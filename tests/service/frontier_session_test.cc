// Copyright (c) 2026 moqo authors. MIT license.
//
// FrontierSession tests: the anytime refinement API (PR 5). TSan-covered
// (see .github/workflows/ci.yml) — the concurrent-Select and coalescing
// tests double as race detectors.

#include "service/frontier_session.h"

#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rta.h"
#include "cost/cost_vector.h"
#include "harness/workload.h"
#include "service/optimization_service.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace {

using testing::MakeStarQuery;
using testing::MakeTinyCatalog;
using testing::SmallOperatorSpace;
using testing::SmallOptions;

constexpr double kInf = std::numeric_limits<double>::infinity();

ServiceOptions SmallServiceOptions(int workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.operators = SmallOperatorSpace();
  return options;
}

ObjectiveSet FirstObjectives(int num_objectives) {
  std::vector<Objective> objectives(kAllObjectives.begin(),
                                    kAllObjectives.begin() + num_objectives);
  return ObjectiveSet(objectives);
}

/// An RTA-routed spec (explicit override so the ladder is multi-rung even
/// on EXA-sized queries).
ProblemSpec RtaStarSpec(const Catalog* catalog, int num_dims,
                        int num_objectives, double alpha) {
  ProblemSpec spec;
  spec.query = std::make_shared<Query>(MakeStarQuery(catalog, num_dims));
  spec.objectives = FirstObjectives(num_objectives);
  spec.algorithm = AlgorithmKind::kRta;
  spec.alpha = alpha;
  return spec;
}

/// Total optimizer invocations recorded by the service (all algorithms);
/// every completed ladder rung counts once.
uint64_t OptimizerRuns(const OptimizationService& service) {
  uint64_t runs = 0;
  for (const HistogramSnapshot& lat : service.Stats().latency_by_algorithm) {
    runs += lat.count;
  }
  return runs;
}

TEST(FrontierSessionTest, FirstFrontierAvailableWhenOpenReturns) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));

  SessionOptions options;
  options.alpha_start = 3.0;
  options.max_steps = 3;
  auto session =
      service.OpenFrontier(RtaStarSpec(&catalog, 3, 3, 1.25), options);
  ASSERT_NE(session, nullptr);

  // quick_first guarantees a selectable frontier before OpenFrontier
  // returned — the anytime property's step 0.
  ASSERT_NE(session->BestFrontier(), nullptr);
  Preference preference;
  preference.weights = WeightVector::Uniform(3);
  const SessionSelection selection = session->Select(preference);
  ASSERT_NE(selection.selection.plan, nullptr);
  EXPECT_GE(selection.step, 0);

  EXPECT_TRUE(session->AwaitTarget());
  EXPECT_TRUE(session->Done());
  EXPECT_DOUBLE_EQ(session->BestAlpha(), 1.25);
  session->Cancel();
}

TEST(FrontierSessionTest, LadderRefinesMonotonicallyToTarget) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));

  SessionOptions options;
  options.alpha_start = 2.5;
  options.max_steps = 3;
  const ProblemSpec spec = RtaStarSpec(&catalog, 3, 3, 1.2);
  auto session = service.OpenFrontier(spec, options);
  ASSERT_TRUE(session->AwaitTarget());

  const std::vector<RefinedFrontier> history = session->History();
  ASSERT_GE(history.size(), 2u);  // Quick prelude + at least the target.
  for (size_t i = 0; i < history.size(); ++i) {
    ASSERT_NE(history[i].plan_set, nullptr) << i;
    EXPECT_GT(history[i].plan_set->size(), 0) << i;
    if (i > 0) {
      // Every published frontier strictly tightens the guarantee.
      EXPECT_LT(history[i].alpha, history[i - 1].alpha) << i;
      // Monotone improvement: each previous frontier plan is covered by
      // the new frontier within the new step's guarantee (the new set is
      // an alpha_i-approximate Pareto set over ALL plans, in particular
      // over the previous frontier). FP slack for the cost arithmetic.
      const double factor = std::isinf(history[i].alpha)
                                ? kInf
                                : history[i].alpha * (1 + 1e-9);
      for (const CostVector& prev : history[i - 1].plan_set->costs()) {
        bool covered = false;
        for (const CostVector& now : history[i].plan_set->costs()) {
          if (ApproxDominates(now, prev, factor)) {
            covered = true;
            break;
          }
        }
        EXPECT_TRUE(covered) << "step " << i << " uncovered prev plan";
      }
    }
  }
  EXPECT_DOUBLE_EQ(history.back().alpha, 1.2);
  EXPECT_TRUE(session->TargetReached());

  // The final frontier is byte-identical to a standalone RTA run at the
  // target precision.
  MOQOProblem problem;
  problem.query = spec.query.get();
  problem.objectives = spec.objectives;
  problem.weights = WeightVector::Uniform(3);
  RTAOptimizer reference(SmallOptions(1.2));
  const OptimizerResult direct = reference.Optimize(problem);
  ASSERT_NE(direct.plan_set, nullptr);
  EXPECT_EQ(session->BestFrontier()->costs(), direct.plan_set->costs());

  // One optimizer invocation per ladder rung, and the stats saw them.
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.refinement_steps, OptimizerRuns(service));
  EXPECT_GE(stats.refinement_steps, 2u);
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_active, 0u);
}

TEST(FrontierSessionTest, ConcurrentSelectDuringRefinementIsSafe) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));

  SessionOptions options;
  options.alpha_start = 4.0;
  options.max_steps = 4;
  auto session =
      service.OpenFrontier(RtaStarSpec(&catalog, 3, 4, 1.1), options);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      double last_alpha = kInf;
      while (!stop.load(std::memory_order_relaxed)) {
        Preference preference;
        WeightVector weights(4);
        for (int i = 0; i < 4; ++i) weights[i] = rng.NextDouble() + 1e-3;
        preference.weights = weights;
        const SessionSelection selection = session->Select(preference);
        if (selection.selection.plan == nullptr ||
            selection.plan_set == nullptr) {
          ++bad;  // quick_first: never empty.
          continue;
        }
        // The served guarantee never regresses for a single observer.
        if (selection.alpha > last_alpha * (1 + 1e-12)) ++bad;
        last_alpha = selection.alpha;
        // The selection is the weighted minimum over its own frontier.
        double best = kInf;
        for (const CostVector& cost : selection.plan_set->costs()) {
          best = std::min(best, weights.WeightedCost(cost));
        }
        if (selection.selection.weighted_cost > best * (1 + 1e-12)) ++bad;
      }
    });
  }
  EXPECT_TRUE(session->AwaitTarget());
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(FrontierSessionTest, OnRefinedReplaysAndStreamsInOrder) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));

  SessionOptions options;
  options.alpha_start = 2.0;
  options.max_steps = 2;
  auto session =
      service.OpenFrontier(RtaStarSpec(&catalog, 2, 3, 1.3), options);
  session->AwaitTarget();

  // Late subscriber: the full history replays synchronously, in order.
  std::vector<double> seen;
  std::mutex seen_mu;
  const int id = session->OnRefined([&](const RefinedFrontier& frontier) {
    std::lock_guard<std::mutex> lock(seen_mu);
    seen.push_back(frontier.alpha);
  });
  const std::vector<RefinedFrontier> history = session->History();
  ASSERT_EQ(seen.size(), history.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], history[i].alpha) << i;
    if (i > 0) EXPECT_LT(seen[i], seen[i - 1]) << i;
  }
  session->RemoveCallback(id);
}

TEST(FrontierSessionTest, CancellationMidStepStopsRefinement) {
  // A deliberately expensive ladder (12-table chain near-exact): Cancel()
  // right after open must abort the rung through the DP's cancellation
  // token instead of letting it run to completion.
  SharedSubgraphOptions workload;
  workload.num_queries = 1;
  workload.tables_per_query = 12;
  workload.num_objectives = 3;
  Catalog catalog = MakeSharedSubgraphCatalog(workload);
  std::vector<ProblemSpec> specs =
      BuildSharedSubgraphSpecs(&catalog, workload);
  ASSERT_EQ(specs.size(), 1u);
  specs[0].algorithm = AlgorithmKind::kRta;
  specs[0].alpha = 1.0005;  // Near-exact: seconds of DP if not cancelled.
  specs[0].parallelism = 1;

  ServiceOptions service_options = SmallServiceOptions(1);
  OptimizationService service(service_options);

  SessionOptions options;
  options.alpha_start = -1;  // Single heavy rung.
  options.max_steps = 1;
  options.quick_first = true;
  StopWatch watch;
  auto session = service.OpenFrontier(specs[0], options);
  ASSERT_NE(session->BestFrontier(), nullptr);  // Quick frontier exists.
  session->Cancel();
  EXPECT_TRUE(session->Cancelled());

  // The session completes (promptly — the rung aborts at its next
  // deadline poll) without reaching the target.
  const bool reached = session->AwaitFor(30000);
  EXPECT_TRUE(session->Done());
  EXPECT_FALSE(reached);
  EXPECT_FALSE(session->TargetReached());
  // Whatever was published is still selectable.
  Preference preference;
  const SessionSelection selection = session->Select(preference);
  EXPECT_NE(selection.selection.plan, nullptr);
  EXPECT_EQ(service.Stats().sessions_active, 0u);
}

TEST(FrontierSessionTest, IdenticalSpecsCoalesceOntoOneLadder) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));

  // Pin the single worker behind a heavy one-shot so the first session's
  // ladder stays queued (but registered — registration is synchronous at
  // open) until both opens happened: the coalesce is then deterministic
  // instead of racing the ladder's completion.
  ServiceRequest heavy;
  heavy.spec.query = std::make_shared<Query>(MakeStarQuery(&catalog, 3));
  heavy.spec.objectives = FirstObjectives(9);
  heavy.spec.algorithm = AlgorithmKind::kExa;
  heavy.preference.deadline_ms = 10000;
  std::future<ServiceResponse> heavy_future = service.Submit(heavy);

  SessionOptions options;
  options.alpha_start = 2.5;
  options.max_steps = 2;
  const ProblemSpec spec = RtaStarSpec(&catalog, 3, 3, 1.2);
  auto first = service.OpenFrontier(spec, options);
  auto second = service.OpenFrontier(spec, options);
  const ServiceResponse heavy_response = heavy_future.get();
  EXPECT_NE(heavy_response.status, ResponseStatus::kRejected);

  // Identical (spec, ladder) opens share one session object and ladder.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(service.Stats().sessions_coalesced, 1u);

  EXPECT_TRUE(first->AwaitTarget());
  // One optimizer run per rung, not per opener: the shared ladder's two
  // rungs plus the heavy blocker, itself a one-step session whose rung
  // counts as a refinement step when it completes in time.
  const bool heavy_completed =
      heavy_response.status == ResponseStatus::kCompleted;
  EXPECT_EQ(service.Stats().refinement_steps, heavy_completed ? 3u : 2u);
  EXPECT_EQ(OptimizerRuns(service), 3u);

  // Each opener owns one cancel ticket: the first Cancel must not abort
  // the other opener's refinement signal.
  first->Cancel();
  EXPECT_FALSE(second->Cancelled());
  second->Cancel();
  EXPECT_TRUE(second->Cancelled());
}

TEST(FrontierSessionTest, SessionBornDoneFromTighterCachedEntry) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));

  // Populate the cache at a TIGHT precision via the one-shot path...
  ServiceRequest request;
  request.spec = RtaStarSpec(&catalog, 3, 3, 1.1);
  request.preference.weights = WeightVector::Uniform(3);
  const ServiceResponse cold = service.SubmitAndWait(request);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  ASSERT_EQ(OptimizerRuns(service), 1u);

  // ...then a LOOSER session is born done from that entry: relaxed alpha
  // identity at the plan-cache level, no ladder, no optimizer run.
  SessionOptions options;
  options.alpha_start = 3.0;
  options.max_steps = 3;
  auto session =
      service.OpenFrontier(RtaStarSpec(&catalog, 3, 3, 1.8), options);
  EXPECT_TRUE(session->Done());
  EXPECT_TRUE(session->TargetReached());
  ASSERT_EQ(session->StepsPublished(), 1);
  const RefinedFrontier served = session->History().front();
  EXPECT_TRUE(served.from_cache);
  EXPECT_DOUBLE_EQ(served.alpha, 1.1);  // The achieved, tighter guarantee.
  EXPECT_EQ(session->BestFrontier().get(), cold.plan_set().get());
  EXPECT_EQ(OptimizerRuns(service), 1u);
}

TEST(FrontierSessionTest, TighterCacheEntryServesLooserOneShotRequest) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));

  ServiceRequest tight;
  tight.spec = RtaStarSpec(&catalog, 3, 3, 1.2);
  tight.preference.weights = WeightVector::Uniform(3);
  ASSERT_EQ(service.SubmitAndWait(tight).status, ResponseStatus::kCompleted);

  // Same spec at a looser precision: served from the tighter entry.
  ServiceRequest loose = tight;
  loose.spec.alpha = 2.5;
  const ServiceResponse response = service.SubmitAndWait(loose);
  ASSERT_EQ(response.status, ResponseStatus::kCompleted);
  EXPECT_TRUE(response.cache_hit());
  EXPECT_DOUBLE_EQ(response.alpha, 1.2);  // Reports the achieved alpha.
  EXPECT_EQ(OptimizerRuns(service), 1u);

  // The reverse direction must re-optimize: looser entries never serve
  // tighter requests.
  ServiceRequest tighter = tight;
  tighter.spec.alpha = 1.05;
  const ServiceResponse recomputed = service.SubmitAndWait(tighter);
  ASSERT_EQ(recomputed.status, ResponseStatus::kCompleted);
  EXPECT_EQ(recomputed.cache, CacheOutcome::kMiss);
  EXPECT_EQ(OptimizerRuns(service), 2u);
}

TEST(FrontierSessionTest, SubmitAndWaitIsByteIdenticalToOneStepSession) {
  Catalog catalog = MakeTinyCatalog();

  ServiceRequest request;
  request.spec = RtaStarSpec(&catalog, 3, 3, 1.4);
  request.preference.weights = WeightVector::Uniform(3);
  request.preference.weights[0] = 2.0;

  // The shim on one service...
  OptimizationService shim_service(SmallServiceOptions(1));
  const ServiceResponse response = shim_service.SubmitAndWait(request);
  ASSERT_EQ(response.status, ResponseStatus::kCompleted);
  EXPECT_EQ(response.cache, CacheOutcome::kMiss);
  ASSERT_NE(response.plan_set(), nullptr);

  // ...a hand-driven one-step session on a fresh one.
  OptimizationService session_service(SmallServiceOptions(1));
  SessionOptions one_step;
  one_step.alpha_start = -1;
  one_step.max_steps = 1;
  one_step.quick_first = false;
  auto session =
      session_service.OpenFrontier(request.spec, one_step);
  ASSERT_TRUE(session->AwaitTarget());
  ASSERT_EQ(session->ladder().size(), 1u);
  EXPECT_DOUBLE_EQ(session->ladder().front(), 1.4);

  // Byte-identical frontiers, identical selections.
  ASSERT_NE(session->BestFrontier(), nullptr);
  EXPECT_EQ(session->BestFrontier()->costs(), response.plan_set()->costs());
  const SessionSelection selection = session->Select(request.preference);
  ASSERT_NE(selection.selection.plan, nullptr);
  EXPECT_TRUE(PlansEqual(selection.selection.plan, response.result->plan));
  EXPECT_EQ(selection.selection.cost, response.result->cost);
  EXPECT_DOUBLE_EQ(selection.selection.weighted_cost,
                   response.result->weighted_cost);
}

TEST(FrontierSessionTest, ConcurrentSubmitAndWaitDuplicatesCoalesce) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));

  ServiceRequest request;
  request.spec = RtaStarSpec(&catalog, 3, 4, 1.15);
  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::vector<ServiceResponse> responses(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      ServiceRequest mine = request;
      mine.preference.weights = WeightVector::Uniform(4);
      mine.preference.weights[0] = 1.0 + t;
      responses[t] = service.SubmitAndWait(mine);
    });
  }
  for (std::thread& client : clients) client.join();

  int misses = 0, coalesced = 0, hits = 0;
  for (int t = 0; t < kClients; ++t) {
    ASSERT_EQ(responses[t].status, ResponseStatus::kCompleted) << t;
    ASSERT_NE(responses[t].result, nullptr) << t;
    ASSERT_NE(responses[t].result->plan, nullptr) << t;
    if (responses[t].cache == CacheOutcome::kMiss) ++misses;
    if (responses[t].cache == CacheOutcome::kCoalescedHit) ++coalesced;
    if (responses[t].cache_hit()) ++hits;
    // Every response selects from the same shared frontier.
    EXPECT_EQ(responses[t].plan_set()->costs(),
              responses[0].plan_set()->costs());
  }
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(misses + coalesced + hits, kClients);
  EXPECT_EQ(OptimizerRuns(service), 1u);
  EXPECT_EQ(service.InFlight(), 0u);
}

TEST(FrontierSessionTest, LadderStepsReuseSubplanMemoAcrossSessions) {
  // Overlapping sessions: same-shape sliding windows share most of their
  // join subgraph, so each ladder rung of the second session probes the
  // table-set frontiers the first session's same-alpha rung published.
  SharedSubgraphOptions workload;
  workload.num_queries = 2;
  workload.tables_per_query = 6;
  workload.num_objectives = 3;
  Catalog catalog = MakeSharedSubgraphCatalog(workload);
  std::vector<ProblemSpec> specs =
      BuildSharedSubgraphSpecs(&catalog, workload);
  for (ProblemSpec& spec : specs) {
    spec.algorithm = AlgorithmKind::kRta;
    spec.alpha = 1.3;
    spec.parallelism = 1;
  }

  ServiceOptions options = SmallServiceOptions(1);
  options.subplan_memo.min_tables = 2;
  options.subplan_memo.admission_epsilon = 0;  // Deterministic admission.
  OptimizationService service(options);

  SessionOptions session_options;
  session_options.alpha_start = 2.2;
  session_options.max_steps = 2;
  session_options.quick_first = false;

  auto first = service.OpenFrontier(specs[0], session_options);
  ASSERT_TRUE(first->AwaitTarget());
  const uint64_t hits_after_first = service.Stats().memo_hits;

  auto second = service.OpenFrontier(specs[1], session_options);
  ASSERT_TRUE(second->AwaitTarget());
  const ServiceStatsSnapshot stats = service.Stats();
  // Distinct specs — the whole-query cache cannot help...
  EXPECT_EQ(stats.cache_hits, 0u);
  // ...but every rung of the second ladder reuses the first's published
  // sub-frontiers at the matching precision.
  EXPECT_GT(stats.memo_hits, hits_after_first);
  EXPECT_EQ(stats.refinement_steps, 4u);  // 2 sessions x 2 rungs.
}

TEST(FrontierSessionTest, InvalidSpecsYieldBornDoneSessions) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));

  // Null query.
  auto null_session = service.OpenFrontier(ProblemSpec{});
  ASSERT_NE(null_session, nullptr);
  EXPECT_TRUE(null_session->Done());
  EXPECT_FALSE(null_session->TargetReached());
  EXPECT_EQ(null_session->BestFrontier(), nullptr);
  EXPECT_EQ(null_session->Select(Preference{}).selection.plan, nullptr);

  // Preference-dependent algorithms cannot be preference-free sessions.
  ProblemSpec ira = RtaStarSpec(&catalog, 2, 3, 1.5);
  ira.algorithm = AlgorithmKind::kIra;
  auto ira_session = service.OpenFrontier(ira);
  EXPECT_TRUE(ira_session->Done());
  EXPECT_FALSE(ira_session->TargetReached());
  EXPECT_EQ(ira_session->BestFrontier(), nullptr);
}

TEST(FrontierSessionTest, OverloadShedsRefinementNotFirstFrontiers) {
  // max_inflight=4, fraction=0.5 → shed watermark max(2, 2) = 2: with four
  // concurrent ladders on one worker, refinement rungs find the service
  // over the watermark and shed, while every session still gets its
  // first frontier (no opens rejected).
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions service_options = SmallServiceOptions(1);
  service_options.max_inflight = 4;
  service_options.refinement_shed_fraction = 0.5;
  service_options.enable_cache = false;
  service_options.enable_coalescing = false;
  OptimizationService service(service_options);

  SessionOptions options;
  options.alpha_start = 4.0;
  options.max_steps = 6;
  std::vector<std::shared_ptr<FrontierSession>> sessions;
  for (int i = 0; i < 4; ++i) {
    sessions.push_back(
        service.OpenFrontier(RtaStarSpec(&catalog, 3, 3, 1.05), options));
    ASSERT_NE(sessions.back(), nullptr);
    // First frontier is never shed: it was published before open returned.
    EXPECT_NE(sessions.back()->BestFrontier(), nullptr);
  }
  int sheds = 0;
  for (const auto& session : sessions) {
    session->AwaitTarget();
    EXPECT_TRUE(session->Done());
    EXPECT_FALSE(session->Rejected());
    EXPECT_NE(session->BestFrontier(), nullptr);
    if (session->Shed()) {
      ++sheds;
      // Shed ends the ladder early, keeping published guarantees only.
      EXPECT_FALSE(session->TargetReached());
    }
  }
  // The exact count depends on how far the worker raced ahead of the
  // opens, but overload must shed someone — and never everyone (the last
  // ladder standing refines below the watermark).
  EXPECT_GE(sheds, 1);
  EXPECT_LE(sheds, 3);
  EXPECT_EQ(service.Stats().refinement_sheds, static_cast<uint64_t>(sheds));
  for (auto& session : sessions) session->Cancel();

  // Control: identical load with priority_admission off sheds nothing and
  // every ladder runs to target.
  ServiceOptions fifo_options = service_options;
  fifo_options.priority_admission = false;
  OptimizationService fifo(fifo_options);
  std::vector<std::shared_ptr<FrontierSession>> fifo_sessions;
  for (int i = 0; i < 4; ++i) {
    fifo_sessions.push_back(
        fifo.OpenFrontier(RtaStarSpec(&catalog, 3, 3, 1.05), options));
  }
  for (auto& session : fifo_sessions) {
    EXPECT_TRUE(session->AwaitTarget());
    EXPECT_FALSE(session->Shed());
    session->Cancel();
  }
  EXPECT_EQ(fifo.Stats().refinement_sheds, 0u);
}

TEST(FrontierSessionTest, CoalescedOpenersObserveMonotoneAlphasOnRungSplit) {
  // Rung-split regression: with each ladder rung a separate pool task, an
  // opener that coalesces onto a running session (or re-probes into a
  // fresh one as the ladder finishes — the insert-before-registry-erase
  // window) must still observe strictly decreasing alphas through
  // OnRefined's replay + live stream.
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions service_options = SmallServiceOptions(2);
  service_options.enable_cache = false;  // Every open runs a real ladder.
  OptimizationService service(service_options);

  SessionOptions options;
  options.alpha_start = 8.0;
  options.max_steps = 8;
  const auto spec = [&] { return RtaStarSpec(&catalog, 3, 3, 1.01); };

  // Opened back-to-back mid-ladder, the second opener joins the first's
  // session rather than starting a duplicate ladder — but on a fast run
  // the first ladder can finish before the second open lands (the
  // re-probe window the joiner loop below also exercises), so retry
  // until a mid-ladder coalesce is actually caught.
  std::shared_ptr<FrontierSession> first;
  std::shared_ptr<FrontierSession> second;
  bool coalesced = false;
  for (int attempt = 0; attempt < 20 && !coalesced; ++attempt) {
    first = service.OpenFrontier(spec(), options);
    ASSERT_NE(first, nullptr);
    second = service.OpenFrontier(spec(), options);
    ASSERT_NE(second, nullptr);
    coalesced = first.get() == second.get();
    if (!coalesced) {
      first->Cancel();
      second->Cancel();
    }
  }
  EXPECT_TRUE(coalesced) << "no back-to-back open coalesced in 20 attempts";

  for (int round = 0; round < 8; ++round) {
    auto joiner = service.OpenFrontier(spec(), options);
    ASSERT_NE(joiner, nullptr);
    std::mutex alphas_mu;
    std::vector<double> alphas;
    const int id = joiner->OnRefined([&](const RefinedFrontier& refined) {
      std::lock_guard<std::mutex> lock(alphas_mu);
      alphas.push_back(refined.alpha);
    });
    joiner->AwaitTarget();
    joiner->RemoveCallback(id);
    std::lock_guard<std::mutex> lock(alphas_mu);
    ASSERT_GE(alphas.size(), 1u);
    for (size_t i = 1; i < alphas.size(); ++i) {
      EXPECT_LT(alphas[i], alphas[i - 1])
          << "round " << round << " step " << i;
    }
    joiner->Cancel();
  }
  first->Cancel();
  second->Cancel();
}

TEST(FrontierSessionTest, CancelExpiryRacingRungCompletionIsExactlyOnce) {
  // Cancellation rides the optimizer's Deadline::WithCancel: setting the
  // flag makes the in-flight rung's deadline report expiry at its next
  // poll, so a cancel can land before a rung, mid-rung, on the rung's
  // finish line, or after the ladder is already done. Sweep that window
  // with a deterministic delay schedule and assert the terminal-state
  // contract at every landing spot: published alphas stay strictly
  // monotone, Done() becomes true, and OnDone fires exactly once —
  // neither the expiring rung nor the finish path may double-terminate.
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions service_options = SmallServiceOptions(2);
  service_options.enable_cache = false;  // Every round runs a real ladder.
  OptimizationService service(service_options);

  SessionOptions options;
  options.alpha_start = 8.0;
  options.max_steps = 8;
  options.step_deadline_ms = 50;

  for (int round = 0; round < 50; ++round) {
    auto session =
        service.OpenFrontier(RtaStarSpec(&catalog, 3, 3, 1.01), options);
    ASSERT_NE(session, nullptr);
    // Shared, not a stack ref: Done() becomes observable slightly before
    // callback delivery finishes, so a late-delivered callback must not
    // scribble a dead frame of a past round.
    auto done_fires = std::make_shared<std::atomic<int>>(0);
    session->OnDone([done_fires] { done_fires->fetch_add(1); });

    // 0..~2.9 ms in coprime steps: dense coverage of the rung lifecycle
    // without two rounds probing the same interleaving.
    std::this_thread::sleep_for(std::chrono::microseconds((round * 59) % 2953));
    session->Cancel();

    // AwaitFor's return is target_reached — legitimately false when the
    // cancel won the race. Terminality is the invariant: Done(), always.
    session->AwaitFor(10000);
    ASSERT_TRUE(session->Done()) << "round " << round;
    // Delivery is asynchronous relative to Done(); wait for the one fire.
    for (int i = 0; i < 10000 && done_fires->load() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(done_fires->load(), 1) << "round " << round;

    // Alphas published up to the terminal state are strictly monotone
    // (History() is the publish log; a late rung sneaking one in after
    // the cancel's finish would break the ordering or resurrect done_).
    const std::vector<RefinedFrontier> history = session->History();
    for (size_t i = 1; i < history.size(); ++i) {
      EXPECT_LT(history[i].alpha, history[i - 1].alpha)
          << "round " << round << " step " << i;
    }

    // A second cancel after the terminal state is a no-op, not a second
    // termination.
    session->Cancel();
    EXPECT_EQ(done_fires->load(), 1) << "round " << round;
  }
  // No admission slot leaks across 50 cancelled ladders.
  for (int i = 0; i < 10000 && service.InFlight() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.InFlight(), 0u);
}

}  // namespace
}  // namespace moqo
