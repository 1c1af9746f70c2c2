// Copyright (c) 2026 moqo authors. MIT license.

#include "service/optimization_service.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/exa.h"
#include "harness/service_experiment.h"
#include "query/tpch_queries.h"
#include "rt/failpoint.h"
#include "service/policy.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace {

using testing::MakeStarQuery;
using testing::MakeTinyCatalog;
using testing::SmallOperatorSpace;
using testing::SmallOptions;

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

ServiceRequest StarRequest(const Catalog* catalog, int num_dims,
                           int num_objectives) {
  ServiceRequest request;
  request.spec.query =
      std::make_shared<Query>(MakeStarQuery(catalog, num_dims));
  request.spec.objectives = FirstObjectives(num_objectives);
  request.preference.weights = WeightVector::Uniform(num_objectives);
  return request;
}

/// Total optimizer invocations recorded by the service (all algorithms).
uint64_t OptimizerRuns(const OptimizationService& service) {
  uint64_t runs = 0;
  for (const HistogramSnapshot& lat : service.Stats().latency_by_algorithm) {
    runs += lat.count;
  }
  return runs;
}

/// Brute-force SelectBest over a PlanSet's frontier.
double MinWeightedCost(const PlanSet& set, const WeightVector& weights) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < set.size(); ++i) {
    best = std::min(best, weights.WeightedCost(set.cost(i)));
  }
  return best;
}

/// Pins the only worker of a one-worker service until Release(), so that
/// requests submitted meanwhile queue behind it deterministically: a
/// one-step session whose publish callback blocks on the worker. The
/// callback registration races the rung; a rung that already published is
/// replayed on this thread instead, and the gate retries on a fresh spec.
class WorkerGate {
 public:
  WorkerGate(OptimizationService* service, const Catalog* catalog) {
    SessionOptions one_step;
    one_step.alpha_start = -1;
    one_step.max_steps = 1;
    one_step.quick_first = false;
    const std::thread::id opener = std::this_thread::get_id();
    std::future<void> entered = entered_.get_future();
    for (int objectives = kNumObjectives; objectives >= 2; --objectives) {
      ProblemSpec spec;
      spec.query = std::make_shared<Query>(MakeStarQuery(catalog, 3));
      spec.objectives = FirstObjectives(objectives);
      spec.algorithm = AlgorithmKind::kExa;
      session_ = service->OpenFrontier(spec, one_step);
      auto replayed = std::make_shared<bool>(false);
      std::shared_future<void> release = release_.get_future().share();
      session_->OnRefined([this, opener, replayed,
                           release](const RefinedFrontier&) {
        if (std::this_thread::get_id() == opener) {
          *replayed = true;
          return;
        }
        entered_.set_value();
        release.wait();
      });
      if (!*replayed) {
        if (entered.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready) {
          ADD_FAILURE() << "worker gate rung never published";
        }
        return;
      }
      release_ = std::promise<void>();  // That gate missed; a fresh one.
    }
    ADD_FAILURE() << "worker gate never pinned the worker";
  }

  WorkerGate(const WorkerGate&) = delete;
  WorkerGate& operator=(const WorkerGate&) = delete;
  ~WorkerGate() { Release(); }

  /// Lets the worker go and waits for the gate's session to finish.
  void Release() {
    if (released_) return;
    released_ = true;
    release_.set_value();
    session_->AwaitTarget();
  }

 private:
  std::promise<void> entered_;
  std::promise<void> release_;
  bool released_ = false;
  std::shared_ptr<FrontierSession> session_;
};

TEST(PolicyTest, RoutesBySpecShape) {
  Catalog catalog = MakeTinyCatalog();
  Query small = MakeStarQuery(&catalog, 2);

  // Single-objective: Selinger.
  EXPECT_EQ(
      ChooseAlgorithm(small, ObjectiveSet::Only(Objective::kTotalTime), -1)
          .algorithm,
      AlgorithmKind::kSelinger);

  // Small weighted instance: EXA.
  EXPECT_EQ(ChooseAlgorithm(small,
                            ObjectiveSet({Objective::kTotalTime,
                                          Objective::kIOLoad,
                                          Objective::kEnergy}),
                            -1)
                .algorithm,
            AlgorithmKind::kExa);

  // Many objectives: RTA with the default precision.
  PolicyDecision relaxed = ChooseAlgorithm(small, ObjectiveSet::All(), -1);
  EXPECT_EQ(relaxed.algorithm, AlgorithmKind::kRta);

  // Tight deadline: still RTA but coarser.
  PolicyDecision tight = ChooseAlgorithm(small, ObjectiveSet::All(), 50);
  EXPECT_EQ(tight.algorithm, AlgorithmKind::kRta);
  EXPECT_GT(tight.alpha, relaxed.alpha);

  // Routing is a pure function of the spec: preferences (weights/bounds)
  // are not even parameters, which keeps the cache key weight-free. The
  // IRA is reachable via ProblemSpec::algorithm only.

  // Intra-query parallelism gates on table count: small specs stay serial,
  // big ones fan out up to the configured cap.
  PolicyOptions fan_out;
  fan_out.parallel_min_tables = 4;
  fan_out.max_parallelism = 4;
  EXPECT_EQ(ChooseAlgorithm(small, ObjectiveSet::All(), -1, fan_out)
                .parallelism,
            1);  // star(2) = 3 tables, below the threshold.
  Query big = MakeStarQuery(&catalog, 3);  // 4 tables: fans out.
  EXPECT_EQ(ChooseAlgorithm(big, ObjectiveSet::All(), -1, fan_out)
                .parallelism,
            4);
  fan_out.max_parallelism = 1;  // Cap 1 = parallelism off everywhere.
  EXPECT_EQ(ChooseAlgorithm(big, ObjectiveSet::All(), -1, fan_out)
                .parallelism,
            1);
}

TEST(ServiceTest, ExactHitIsBitIdenticalToFreshOptimization) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));
  ServiceRequest request = StarRequest(&catalog, 3, 3);

  const ServiceResponse cold = service.SubmitAndWait(request);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  EXPECT_EQ(cold.cache, CacheOutcome::kMiss);
  EXPECT_FALSE(cold.cache_hit());
  ASSERT_NE(cold.result, nullptr);
  ASSERT_NE(cold.result->plan, nullptr);
  ASSERT_NE(cold.plan_set(), nullptr);

  const ServiceResponse warm = service.SubmitAndWait(request);
  ASSERT_EQ(warm.status, ResponseStatus::kCompleted);
  EXPECT_EQ(warm.cache, CacheOutcome::kExactHit);
  EXPECT_TRUE(warm.cache_hit());
  ASSERT_NE(warm.result, nullptr);

  // An exact hit is the same complete result object: plan shape, cost
  // vector, and the shared PlanSet are identical.
  EXPECT_EQ(warm.result.get(), cold.result.get());
  EXPECT_TRUE(PlansEqual(cold.result->plan, warm.result->plan));
  EXPECT_EQ(cold.result->cost, warm.result->cost);
  EXPECT_EQ(cold.result->weighted_cost, warm.result->weighted_cost);
  EXPECT_EQ(warm.plan_set().get(), cold.plan_set().get());

  // And identical to a fresh single-shot optimization with the same
  // resolved algorithm and options.
  MOQOProblem problem;
  problem.query = request.spec.query.get();
  problem.objectives = request.spec.objectives;
  problem.weights = request.preference.weights;
  OptimizerOptions opts = SmallOptions(warm.alpha);
  std::unique_ptr<OptimizerBase> fresh = MakeOptimizer(warm.algorithm, opts);
  const OptimizerResult reference = fresh->Optimize(problem);
  ASSERT_NE(reference.plan, nullptr);
  EXPECT_TRUE(PlansEqual(reference.plan, warm.result->plan));
  EXPECT_EQ(reference.cost, warm.result->cost);
  EXPECT_EQ(reference.frontier(), warm.result->frontier());

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests_total, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.frontier_hits, 0u);
}

// The PR-2 acceptance criterion: a weight-only change on a previously
// optimized query is served from the cache — a frontier hit resolved by
// SelectPlan, with NO optimizer invocation.
TEST(ServiceTest, WeightOnlyChangeIsFrontierHitWithoutOptimizerRun) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));
  ServiceRequest request = StarRequest(&catalog, 3, 3);

  const ServiceResponse cold = service.SubmitAndWait(request);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  ASSERT_EQ(OptimizerRuns(service), 1u);

  Xoshiro256 rng(17);
  constexpr int kSweeps = 8;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (int i = 0; i < 3; ++i) {
      request.preference.weights[i] = rng.NextDouble() + 1e-3;
    }
    const ServiceResponse response = service.SubmitAndWait(request);
    ASSERT_EQ(response.status, ResponseStatus::kCompleted);
    EXPECT_EQ(response.cache, CacheOutcome::kFrontierHit) << sweep;
    EXPECT_TRUE(response.cache_hit());
    ASSERT_NE(response.result, nullptr);
    ASSERT_NE(response.result->plan, nullptr);

    // The response aliases the SAME PlanSet the cold run produced...
    EXPECT_EQ(response.plan_set().get(), cold.plan_set().get());
    // ...and its plan is the weighted-cost minimizer over that frontier.
    EXPECT_DOUBLE_EQ(
        response.result->weighted_cost,
        MinWeightedCost(*response.plan_set(), request.preference.weights));
    EXPECT_EQ(response.result->weighted_cost,
              request.preference.weights.WeightedCost(response.result->cost));
  }

  // The optimizer never ran again: every weight change was pure selection.
  EXPECT_EQ(OptimizerRuns(service), 1u);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.frontier_hits, static_cast<uint64_t>(kSweeps));
  EXPECT_EQ(stats.exact_hits, 0u);
}

// Property test: for randomized weight sweeps on TPC-H queries, SelectPlan
// over the cached PlanSet returns a plan whose weighted cost is within
// alpha of a cold-run (exact) optimum.
TEST(ServiceTest, WeightSweepSelectionWithinAlphaOfColdOptimum) {
  Catalog catalog = Catalog::TpcH(0.01);
  const double alpha = 1.5;
  for (int query_number : {3, 10}) {
    OptimizationService service(SmallServiceOptions(2));
    ServiceRequest request;
    request.spec.query =
        std::make_shared<Query>(MakeTpcHQuery(&catalog, query_number));
    request.spec.objectives = FirstObjectives(3);
    request.spec.algorithm = AlgorithmKind::kRta;
    request.spec.alpha = alpha;

    Xoshiro256 rng(100 + query_number);
    for (int trial = 0; trial < 8; ++trial) {
      WeightVector weights(3);
      for (int i = 0; i < 3; ++i) weights[i] = rng.NextDouble() + 1e-3;
      request.preference.weights = weights;
      const ServiceResponse response = service.SubmitAndWait(request);
      ASSERT_EQ(response.status, ResponseStatus::kCompleted);
      if (trial > 0) {
        EXPECT_EQ(response.cache, CacheOutcome::kFrontierHit)
            << "q" << query_number << " trial " << trial;
      }
      ASSERT_NE(response.result, nullptr);
      ASSERT_NE(response.result->plan, nullptr);

      // Cold-run optimum for this preference.
      MOQOProblem problem;
      problem.query = request.spec.query.get();
      problem.objectives = request.spec.objectives;
      problem.weights = weights;
      const OptimizerResult exact =
          ExactMOQO(SmallOptions()).Optimize(problem);
      ASSERT_NE(exact.plan, nullptr);
      EXPECT_LE(response.result->weighted_cost,
                exact.weighted_cost * alpha + 1e-9)
          << "q" << query_number << " trial " << trial;
    }
    EXPECT_EQ(OptimizerRuns(service), 1u) << "q" << query_number;
  }
}

TEST(ServiceTest, BoundedPreferenceHonoredAtSelectionTime) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));
  ServiceRequest request = StarRequest(&catalog, 3, 3);

  const ServiceResponse cold = service.SubmitAndWait(request);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  std::shared_ptr<const PlanSet> frontier = cold.plan_set();
  ASSERT_NE(frontier, nullptr);
  ASSERT_GE(frontier->size(), 1);

  // Feasible bounds anchored at a frontier plan's cost: the selection must
  // respect them — resolved from the cached frontier, no optimizer run.
  const CostVector anchor = frontier->cost(frontier->size() / 2);
  request.preference.bounds = BoundVector::Unbounded(3);
  for (int i = 0; i < 3; ++i) request.preference.bounds[i] = anchor[i];
  const ServiceResponse bounded = service.SubmitAndWait(request);
  ASSERT_EQ(bounded.status, ResponseStatus::kCompleted);
  EXPECT_EQ(bounded.cache, CacheOutcome::kFrontierHit);
  ASSERT_NE(bounded.result, nullptr);
  EXPECT_TRUE(bounded.result->respects_bounds);
  EXPECT_TRUE(request.preference.bounds.Respects(bounded.result->cost));

  // Unsatisfiable bounds: falls back to the global weighted optimum and
  // says so.
  for (int i = 0; i < 3; ++i) request.preference.bounds[i] = 1e-15;
  const ServiceResponse infeasible = service.SubmitAndWait(request);
  ASSERT_EQ(infeasible.status, ResponseStatus::kCompleted);
  ASSERT_NE(infeasible.result, nullptr);
  EXPECT_FALSE(infeasible.result->respects_bounds);
  EXPECT_DOUBLE_EQ(
      infeasible.result->weighted_cost,
      MinWeightedCost(*frontier, request.preference.weights));

  EXPECT_EQ(OptimizerRuns(service), 1u);
}

TEST(ServiceTest, ColdBoundedRtaMissHonorsBoundsLikeFrontierHit) {
  // Regression: a cold miss must apply the same bounded selection as a
  // frontier hit — cache temperature never changes the answer.
  Catalog catalog = MakeTinyCatalog();

  // Derive feasible bounds from a library-level RTA run's frontier.
  Query query = MakeStarQuery(&catalog, 3);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = FirstObjectives(3);
  problem.weights = WeightVector::Uniform(3);
  const OptimizerResult reference =
      MakeOptimizer(AlgorithmKind::kRta, SmallOptions(1.5))->Optimize(problem);
  ASSERT_GE(reference.frontier_size(), 1);
  const CostVector anchor =
      reference.plan_set->cost(reference.frontier_size() / 2);

  OptimizationService service(SmallServiceOptions(2));
  ServiceRequest request = StarRequest(&catalog, 3, 3);
  request.spec.algorithm = AlgorithmKind::kRta;
  request.spec.alpha = 1.5;
  request.preference.bounds = BoundVector::Unbounded(3);
  for (int i = 0; i < 3; ++i) request.preference.bounds[i] = anchor[i];

  const ServiceResponse cold = service.SubmitAndWait(request);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  EXPECT_EQ(cold.cache, CacheOutcome::kMiss);
  ASSERT_NE(cold.result, nullptr);
  EXPECT_TRUE(cold.result->respects_bounds);
  EXPECT_TRUE(request.preference.bounds.Respects(cold.result->cost));

  // The same preference resubmitted is an exact hit with the same plan.
  const ServiceResponse warm = service.SubmitAndWait(request);
  EXPECT_EQ(warm.cache, CacheOutcome::kExactHit);
  EXPECT_TRUE(PlansEqual(warm.result->plan, cold.result->plan));
}

TEST(ServiceTest, ExplicitIraOverrideIsPreferenceKeyed) {
  // The IRA's output is tailored to its weights/bounds, so its cache
  // entries are shared only between identical preferences: same request
  // twice = exact hit, any weight change = full re-optimization.
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));
  ServiceRequest request = StarRequest(&catalog, 2, 3);
  request.spec.algorithm = AlgorithmKind::kIra;
  request.spec.alpha = 1.5;
  request.preference.bounds = BoundVector::Unbounded(3);
  request.preference.bounds[0] = 1e12;  // Loose finite bound.

  const ServiceResponse first = service.SubmitAndWait(request);
  ASSERT_EQ(first.status, ResponseStatus::kCompleted);
  EXPECT_EQ(first.cache, CacheOutcome::kMiss);
  EXPECT_EQ(first.algorithm, AlgorithmKind::kIra);

  const ServiceResponse repeat = service.SubmitAndWait(request);
  EXPECT_EQ(repeat.cache, CacheOutcome::kExactHit);

  request.preference.weights[0] = 3.5;
  const ServiceResponse reweighted = service.SubmitAndWait(request);
  EXPECT_EQ(reweighted.cache, CacheOutcome::kMiss);
  EXPECT_EQ(OptimizerRuns(service), 2u);
}

// Coalescing (TSan-covered): duplicate cache misses on one signature
// optimize once — later arrivals wait on the first miss and are served
// from its frontier by selection.
TEST(ServiceTest, CachedFrontierCompactedToEpsilonCover) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(2);
  options.max_cached_frontier = 4;
  options.cache_compaction_epsilon = 0.1;
  OptimizationService service(options);

  ServiceRequest request = StarRequest(&catalog, 3, 3);
  const ServiceResponse cold = service.SubmitAndWait(request);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  ASSERT_NE(cold.result, nullptr);
  // The cold response carries the full frontier...
  const int full_size = cold.result->frontier_size();
  ASSERT_GT(full_size, 4) << "fixture frontier too small to compact";

  // ...while the cached copy was compacted: an exact hit serves a PlanSet
  // within the cap whose plan is still a valid selection from it.
  const ServiceResponse warm = service.SubmitAndWait(request);
  ASSERT_EQ(warm.cache, CacheOutcome::kExactHit);
  ASSERT_NE(warm.result, nullptr);
  EXPECT_LE(warm.result->frontier_size(), 4);
  EXPECT_GE(warm.result->frontier_size(), 1);
  ASSERT_NE(warm.result->plan, nullptr);
  EXPECT_EQ(warm.result->weighted_cost,
            MinWeightedCost(*warm.result->plan_set,
                            request.preference.weights));

  // Every full-frontier plan is epsilon-covered by some cached plan at the
  // epsilon CompactPlanSet settled on — spot-check the weighted optimum:
  // compaction cannot cost more than the final coverage factor, which the
  // stats registry sees as a small weighted-cost regression only.
  EXPECT_GE(warm.result->weighted_cost,
            MinWeightedCost(*cold.result->plan_set,
                            request.preference.weights));

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_LE(stats.MeanCachedFrontier(), 4.0);
  EXPECT_GT(stats.cache_bytes, 0u);
}

TEST(ServiceTest, CoalescedDuplicateMissesOptimizeOnce) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));

  // Occupy the single worker so the duplicate spec stays queued.
  ServiceRequest heavy = StarRequest(&catalog, 3, 9);
  heavy.spec.algorithm = AlgorithmKind::kExa;
  heavy.preference.deadline_ms = 2000;
  std::future<ServiceResponse> heavy_future = service.Submit(heavy);

  // Identical spec, rotating weights: the first becomes the queued
  // primary, the rest coalesce behind it.
  constexpr int kDuplicates = 6;
  ServiceRequest dup = StarRequest(&catalog, 2, 3);
  std::vector<std::future<ServiceResponse>> futures;
  std::vector<WeightVector> weights;
  for (int i = 0; i < kDuplicates; ++i) {
    ServiceRequest request = dup;
    request.preference.weights = WeightVector::Uniform(3);
    request.preference.weights[0] = 1.0 + i;
    weights.push_back(request.preference.weights);
    futures.push_back(service.Submit(request));
  }

  int misses = 0, coalesced = 0;
  for (int i = 0; i < kDuplicates; ++i) {
    const ServiceResponse response = futures[i].get();
    ASSERT_EQ(response.status, ResponseStatus::kCompleted) << i;
    ASSERT_NE(response.result, nullptr);
    ASSERT_NE(response.result->plan, nullptr);
    if (response.cache == CacheOutcome::kMiss) ++misses;
    if (response.cache == CacheOutcome::kCoalescedHit) {
      ++coalesced;
      // Waiters get their own preference's selection from the shared set.
      EXPECT_DOUBLE_EQ(response.result->weighted_cost,
                       MinWeightedCost(*response.plan_set(), weights[i]));
    }
  }
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(coalesced, kDuplicates - 1);

  const ServiceResponse heavy_response = heavy_future.get();
  EXPECT_NE(heavy_response.status, ResponseStatus::kRejected);

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.coalesced_hits, static_cast<uint64_t>(kDuplicates - 1));
  // Two optimizer runs total: the heavy blocker and ONE run for all six
  // duplicate-spec requests.
  EXPECT_EQ(OptimizerRuns(service), 2u);
  EXPECT_EQ(service.InFlight(), 0u);
}

TEST(ServiceTest, DegradedPrimaryPromotesOneWaiterNotAll) {
  // A deadline-bounded request that quick-modes must not drag identical
  // deadline-free requests down with it: it opens a private one-step
  // session (a joiner could not degrade to quick mode mid-wait), so the
  // waiters coalesce among themselves — exactly ONE of them runs the full
  // DP and the rest select from that run, no thundering herd. (The shared
  // ladder that really degrades under its joiners is
  // DegradedSharedLadderReopensOneJoinerNotAll.)
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(1);
  // The subplan memo would let the heavy runs below share their DP work
  // (their alpha overrides distinguish *cache* keys, but EXA's internal
  // alpha — what the memo keys on — is always 1), collapsing the runway
  // this test depends on. Coalescing, not the memo, is under test here.
  options.enable_subplan_memo = false;
  OptimizationService service(options);

  // Pin the single worker behind a queue of heavy runs (distinct
  // objective subsets = distinct signatures, so they neither coalesce nor
  // hit the cache — alpha no longer distinguishes keys under the relaxed
  // identity): one ~5 ms EXA is not enough runway under a loaded parallel
  // test host — the submit loop below must finish parking every waiter
  // before the worker reaches the doomed primary.
  constexpr int kHeavy = 10;
  std::vector<std::future<ServiceResponse>> heavy_futures;
  for (int i = 0; i < kHeavy; ++i) {
    ServiceRequest heavy = StarRequest(&catalog, 3, 9);
    // Drop one rotating objective (and for i >= 8, two) from the full
    // set: every subset is distinct, every run stays heavy.
    std::vector<Objective> picked;
    for (int k = 0; k < kNumObjectives; ++k) {
      if (k == 1 + (i % 8)) continue;
      if (i >= 8 && k == 1 + ((i + 1) % 8)) continue;
      picked.push_back(kAllObjectives[k]);
    }
    heavy.spec.objectives = ObjectiveSet(picked);
    heavy.preference.weights =
        WeightVector::Uniform(heavy.spec.objectives.size());
    heavy.spec.algorithm = AlgorithmKind::kExa;
    heavy.preference.deadline_ms = 10000;
    heavy_futures.push_back(service.Submit(heavy));
  }

  // A request with an already-hopeless deadline: by the time the single
  // worker reaches it, it degrades to quick mode and cannot be cached.
  ServiceRequest dup = StarRequest(&catalog, 2, 3);
  ServiceRequest doomed = dup;
  doomed.preference.deadline_ms = 1;
  std::future<ServiceResponse> doomed_future = service.Submit(doomed);

  constexpr int kWaiters = 4;
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < kWaiters; ++i) {
    // Deadline-free: the first opens the shared session, the rest join it.
    ServiceRequest request = dup;
    request.preference.weights = WeightVector::Uniform(3);
    request.preference.weights[0] = 2.0 + i;
    futures.push_back(service.Submit(request));
  }

  EXPECT_EQ(doomed_future.get().status, ResponseStatus::kCompletedQuick);
  int promoted_misses = 0, coalesced = 0;
  for (std::future<ServiceResponse>& future : futures) {
    const ServiceResponse response = future.get();
    ASSERT_EQ(response.status, ResponseStatus::kCompleted);
    ASSERT_NE(response.result, nullptr);
    EXPECT_NE(response.result->plan, nullptr);
    if (response.cache == CacheOutcome::kMiss) ++promoted_misses;
    if (response.cache == CacheOutcome::kCoalescedHit) ++coalesced;
  }
  EXPECT_EQ(promoted_misses, 1);
  EXPECT_EQ(coalesced, kWaiters - 1);
  for (std::future<ServiceResponse>& future : heavy_futures) future.get();
  // kHeavy heavies + doomed quick run + ONE full run for all waiters.
  EXPECT_EQ(OptimizerRuns(service), kHeavy + 2u);
  EXPECT_EQ(service.InFlight(), 0u);
}

TEST(ServiceTest, DeadlineBoundedDuplicatesDoNotCoalesce) {
  // A waiter cannot degrade to quick mode while parked, so duplicates
  // carrying a deadline must keep their own optimizer run.
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));

  ServiceRequest heavy = StarRequest(&catalog, 3, 9);
  heavy.spec.algorithm = AlgorithmKind::kExa;
  heavy.preference.deadline_ms = 2000;
  std::future<ServiceResponse> heavy_future = service.Submit(heavy);

  ServiceRequest dup = StarRequest(&catalog, 2, 3);
  std::future<ServiceResponse> primary_future = service.Submit(dup);
  ServiceRequest bounded = dup;
  bounded.preference.deadline_ms = 1;  // Must honor its own budget.
  std::future<ServiceResponse> bounded_future = service.Submit(bounded);

  const ServiceResponse bounded_response = bounded_future.get();
  EXPECT_EQ(bounded_response.cache, CacheOutcome::kMiss);
  ASSERT_NE(bounded_response.result, nullptr);
  ASSERT_NE(bounded_response.result->plan, nullptr);  // Quick or full.

  EXPECT_EQ(primary_future.get().status, ResponseStatus::kCompleted);
  EXPECT_NE(heavy_future.get().status, ResponseStatus::kRejected);
  EXPECT_EQ(service.Stats().coalesced_hits, 0u);
  EXPECT_EQ(OptimizerRuns(service), 3u);  // heavy + primary + bounded dup.
}

TEST(ServiceTest, DegradedSharedLadderReopensOneJoinerNotAll) {
  // A shared one-step ladder whose rung fails degrades to the quick-mode
  // plan, which depends on its opener's weights and carries no guarantee,
  // so it cannot serve its joiners: exactly ONE joiner's reopen runs a
  // fresh full DP and the rest coalesce onto it — no thundering herd.
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));
  WorkerGate gate(&service, &catalog);
  const uint64_t runs_before = OptimizerRuns(service);
  // The gate's rung already passed the site: the next rung is the shared
  // ladder's, and it is the only one that fails.
  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm("session.rung",
                                                  "first_n(1):throw"));

  ServiceRequest dup = StarRequest(&catalog, 2, 3);  // Deadline-free.
  std::future<ServiceResponse> primary_future = service.Submit(dup);
  constexpr int kJoiners = 4;
  std::vector<std::future<ServiceResponse>> futures;
  std::vector<WeightVector> weights;
  for (int i = 0; i < kJoiners; ++i) {
    ServiceRequest request = dup;
    request.preference.weights[0] = 2.0 + i;
    weights.push_back(request.preference.weights);
    futures.push_back(service.Submit(request));
  }
  EXPECT_EQ(service.Stats().sessions_coalesced,
            static_cast<uint64_t>(kJoiners));
  gate.Release();

  // The failed primary degrades to Section 5.1 quick mode, never null.
  const ServiceResponse primary = primary_future.get();
  EXPECT_EQ(primary.status, ResponseStatus::kCompletedQuick);
  ASSERT_NE(primary.result, nullptr);
  EXPECT_NE(primary.result->plan, nullptr);

  int reopened_misses = 0, coalesced = 0;
  for (int i = 0; i < kJoiners; ++i) {
    const ServiceResponse response = futures[i].get();
    ASSERT_EQ(response.status, ResponseStatus::kCompleted) << i;
    ASSERT_NE(response.result, nullptr);
    ASSERT_NE(response.result->plan, nullptr);
    EXPECT_DOUBLE_EQ(response.result->weighted_cost,
                     MinWeightedCost(*response.plan_set(), weights[i]));
    if (response.cache == CacheOutcome::kMiss) ++reopened_misses;
    if (response.cache == CacheOutcome::kCoalescedHit) ++coalesced;
  }
  rt::FailpointRegistry::Global().DisarmAll();
  EXPECT_EQ(reopened_misses, 1);
  EXPECT_EQ(coalesced, kJoiners - 1);
  // The failed rung records no run: ONE full run serves every joiner.
  EXPECT_EQ(OptimizerRuns(service), runs_before + 1);
  EXPECT_EQ(service.Stats().internal_errors, 1u);
  EXPECT_EQ(service.InFlight(), 0u);
}

/// A deadline-free IRA request with one loose finite bound.
ServiceRequest IraRequest(const Catalog* catalog) {
  ServiceRequest request = StarRequest(catalog, 2, 3);
  request.spec.algorithm = AlgorithmKind::kIra;
  request.spec.alpha = 1.5;
  request.preference.bounds = BoundVector::Unbounded(3);
  request.preference.bounds[0] = 1e12;
  return request;
}

TEST(ServiceTest, IdenticalIraSubmitsCoalesceOntoOneRun) {
  // The IRA frontier depends on the preference, so its one-step sessions
  // are keyed on alpha, weights and bounds: identical requests share one
  // run, and a changed weight runs its own.
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));
  WorkerGate gate(&service, &catalog);
  const uint64_t runs_before = OptimizerRuns(service);

  constexpr int kClients = 6;
  std::vector<std::future<ServiceResponse>> futures(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back(
        [&, t] { futures[t] = service.Submit(IraRequest(&catalog)); });
  }
  for (std::thread& client : clients) client.join();
  ServiceRequest reweighted = IraRequest(&catalog);
  reweighted.preference.weights[0] = 3.5;
  std::future<ServiceResponse> reweighted_future =
      service.Submit(reweighted);
  gate.Release();

  std::vector<ServiceResponse> responses;
  int misses = 0, coalesced = 0;
  for (std::future<ServiceResponse>& future : futures) {
    responses.push_back(future.get());
    const ServiceResponse& response = responses.back();
    ASSERT_EQ(response.status, ResponseStatus::kCompleted);
    EXPECT_EQ(response.algorithm, AlgorithmKind::kIra);
    EXPECT_DOUBLE_EQ(response.alpha, 1.5);
    ASSERT_NE(response.result, nullptr);
    ASSERT_NE(response.result->plan, nullptr);
    if (response.cache == CacheOutcome::kMiss) ++misses;
    if (response.cache == CacheOutcome::kCoalescedHit) ++coalesced;
    // One run: every response selects the same plan from one frontier.
    EXPECT_EQ(response.plan_set()->costs(),
              responses.front().plan_set()->costs());
    EXPECT_TRUE(PlansEqual(response.result->plan,
                           responses.front().result->plan));
  }
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(coalesced, kClients - 1);

  const ServiceResponse other = reweighted_future.get();
  ASSERT_EQ(other.status, ResponseStatus::kCompleted);
  EXPECT_EQ(other.cache, CacheOutcome::kMiss);
  EXPECT_EQ(OptimizerRuns(service), runs_before + 2);
  EXPECT_EQ(service.Stats().coalesced_hits,
            static_cast<uint64_t>(kClients - 1));
  EXPECT_EQ(service.InFlight(), 0u);
}

TEST(ServiceTest, PreferenceDependentResponsesMatchDirectOptimizer) {
  Catalog catalog = MakeTinyCatalog();
  for (AlgorithmKind algorithm :
       {AlgorithmKind::kIra, AlgorithmKind::kWeightedSum}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    OptimizationService service(SmallServiceOptions(2));
    ServiceRequest request = IraRequest(&catalog);
    request.spec.algorithm = algorithm;
    request.preference.weights[1] = 2.5;
    const ServiceResponse response = service.SubmitAndWait(request);
    ASSERT_EQ(response.status, ResponseStatus::kCompleted);
    EXPECT_EQ(response.cache, CacheOutcome::kMiss);
    ASSERT_NE(response.result, nullptr);
    ASSERT_NE(response.result->plan, nullptr);

    MOQOProblem problem;
    problem.query = request.spec.query.get();
    problem.objectives = request.spec.objectives;
    problem.weights = request.preference.weights;
    problem.bounds = request.preference.bounds;
    const OptimizerResult reference =
        MakeOptimizer(algorithm, SmallOptions(1.5))->Optimize(problem);
    ASSERT_NE(reference.plan, nullptr);
    EXPECT_EQ(reference.frontier(), response.result->frontier());
    EXPECT_TRUE(PlansEqual(reference.plan, response.result->plan));
    EXPECT_EQ(reference.cost, response.result->cost);
    EXPECT_EQ(reference.weighted_cost, response.result->weighted_cost);
  }
}

TEST(ServiceTest, FailedIraRungDegradesToQuickModePlan) {
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));
  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm("session.rung",
                                                  "always:throw"));
  const ServiceResponse response =
      service.SubmitAndWait(IraRequest(&catalog));
  rt::FailpointRegistry::Global().DisarmAll();
  // Section 5.1's "never return null": the quick-mode plan, not a reject.
  EXPECT_EQ(response.status, ResponseStatus::kCompletedQuick);
  EXPECT_EQ(response.algorithm, AlgorithmKind::kIra);
  ASSERT_NE(response.result, nullptr);
  EXPECT_NE(response.result->plan, nullptr);
  EXPECT_GE(service.Stats().internal_errors, 1u);
  EXPECT_EQ(service.InFlight(), 0u);
}

TEST(ServiceTest, SubmitReportsAchievedAlpha) {
  // EXA is exact whatever precision was asked for: the response carries
  // the guarantee the served frontier has, on a fresh run and a cache hit.
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));
  ServiceRequest request = StarRequest(&catalog, 2, 3);
  request.spec.algorithm = AlgorithmKind::kExa;
  request.spec.alpha = 1.5;
  const ServiceResponse cold = service.Submit(request).get();
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  EXPECT_EQ(cold.cache, CacheOutcome::kMiss);
  EXPECT_DOUBLE_EQ(cold.alpha, 1.0);
  const ServiceResponse warm = service.Submit(request).get();
  EXPECT_EQ(warm.cache, CacheOutcome::kExactHit);
  EXPECT_DOUBLE_EQ(warm.alpha, 1.0);
}

TEST(ServiceTest, SubmitFuturesResolveAcrossServiceDestruction) {
  Catalog catalog = MakeTinyCatalog();
  std::vector<std::future<ServiceResponse>> futures;
  {
    OptimizationService service(SmallServiceOptions(2));
    for (int i = 0; i < 24; ++i) {
      // Duplicates (joiners), IRA sessions, and deadline-bounded runs.
      ServiceRequest request = i % 3 == 0 ? IraRequest(&catalog)
                                          : StarRequest(&catalog, 1 + i % 3,
                                                        2 + i % 2);
      if (i % 4 == 1) request.preference.deadline_ms = 5000;
      futures.push_back(service.Submit(request));
    }
  }  // Destroyed with work queued, running and joined.
  for (std::future<ServiceResponse>& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const ServiceResponse response = future.get();
    if (response.status != ResponseStatus::kRejected) {
      ASSERT_NE(response.result, nullptr);
      EXPECT_NE(response.result->plan, nullptr);
    }
  }
}

TEST(ServiceTest, ExpiredDeadlineReturnsQuickModePlanNeverNull) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(1);
  options.enable_cache = false;
  OptimizationService service(options);

  ServiceRequest request = StarRequest(&catalog, 3, 3);
  request.preference.deadline_ms = 0;  // Already expired at submit.
  const ServiceResponse response = service.SubmitAndWait(request);

  EXPECT_EQ(response.status, ResponseStatus::kCompletedQuick);
  ASSERT_NE(response.result, nullptr);
  ASSERT_NE(response.result->plan, nullptr);  // Quick-mode plan, not null.
  EXPECT_TRUE(response.result->metrics.timed_out);
  EXPECT_EQ(response.result->plan->tables.Cardinality(), 4);
  EXPECT_GE(service.Stats().deadline_timeouts, 1u);
}

TEST(ServiceTest, TimedOutResultsAreNotCached) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));

  ServiceRequest request = StarRequest(&catalog, 3, 3);
  // Pin algorithm and alpha: otherwise the tight- and no-deadline requests
  // resolve to different policy decisions and thus different cache keys,
  // and the !timed_out cacheability guard would never be exercised.
  request.spec.algorithm = AlgorithmKind::kExa;
  request.spec.alpha = 1.0;
  request.preference.deadline_ms = 0;
  const ServiceResponse quick = service.SubmitAndWait(request);
  EXPECT_EQ(quick.status, ResponseStatus::kCompletedQuick);

  // The same problem with no deadline must re-optimize, not serve the
  // degraded quick-mode plan from the cache.
  request.preference.deadline_ms = -1;
  const ServiceResponse full = service.SubmitAndWait(request);
  EXPECT_EQ(full.status, ResponseStatus::kCompleted);
  EXPECT_FALSE(full.cache_hit());
  EXPECT_FALSE(full.result->metrics.timed_out);
}

TEST(ServiceTest, AdmissionControlShedsLoadBeyondMaxInflight) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(1);
  options.enable_cache = false;
  options.max_inflight = 1;
  OptimizationService service(options);

  // Occupy the single worker long enough to observe rejections: EXA on the
  // full star with all nine objectives, bounded by a deadline so the test
  // finishes fast either way.
  ServiceRequest heavy = StarRequest(&catalog, 3, 9);
  heavy.spec.algorithm = AlgorithmKind::kExa;
  heavy.preference.deadline_ms = 2000;
  std::future<ServiceResponse> heavy_future = service.Submit(heavy);

  // Admission counts queued + running, so these reject synchronously while
  // the heavy request is in flight.
  int rejected = 0;
  for (int i = 0; i < 4; ++i) {
    ServiceRequest light = StarRequest(&catalog, 2, 2);
    const ServiceResponse response = service.SubmitAndWait(light);
    if (response.status == ResponseStatus::kRejected) {
      ++rejected;
      EXPECT_EQ(response.result, nullptr);
    }
  }
  EXPECT_GE(rejected, 1);
  EXPECT_GE(service.Stats().admissions_rejected,
            static_cast<uint64_t>(rejected));

  const ServiceResponse heavy_response = heavy_future.get();
  EXPECT_NE(heavy_response.status, ResponseStatus::kRejected);
  ASSERT_NE(heavy_response.result, nullptr);
  EXPECT_NE(heavy_response.result->plan, nullptr);
}

TEST(ServiceTest, ConcurrentMixedWorkloadCorrectPerRequestResults) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(4);
  OptimizationService service(options);

  // Four distinct problems, each with a known fresh reference result.
  struct Case {
    ServiceRequest request;
    OptimizerResult reference;
  };
  std::vector<Case> cases;
  for (int dims = 1; dims <= 2; ++dims) {
    for (int objectives = 2; objectives <= 3; ++objectives) {
      Case c;
      c.request = StarRequest(&catalog, dims, objectives);
      MOQOProblem problem;
      problem.query = c.request.spec.query.get();
      problem.objectives = c.request.spec.objectives;
      problem.weights = c.request.preference.weights;
      const PolicyDecision decision =
          ChooseAlgorithm(*c.request.spec.query, c.request.spec.objectives,
                          -1, options.policy);
      std::unique_ptr<OptimizerBase> optimizer =
          MakeOptimizer(decision.algorithm, SmallOptions(decision.alpha));
      c.reference = optimizer->Optimize(problem);
      cases.push_back(std::move(c));
    }
  }

  // 8 client threads x 16 requests, round-robin over the cases.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Case& c = cases[(t + i) % cases.size()];
        const ServiceResponse response =
            service.SubmitAndWait(c.request);
        if (response.status != ResponseStatus::kCompleted ||
            response.result == nullptr ||
            response.result->plan == nullptr ||
            !(response.result->cost == c.reference.cost) ||
            !PlansEqual(response.result->plan, c.reference.plan) ||
            response.result->frontier() != c.reference.frontier()) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "client thread " << t;
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests_total,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed, stats.requests_total);
  // At least the first encounter of each distinct problem misses; racing
  // first encounters coalesce behind it instead of optimizing twice.
  EXPECT_GE(stats.cache_misses, cases.size());
  // Every request does exactly one counted cache lookup (coalesced
  // waiters record their miss, then wait).
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.requests_total);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_hits, stats.exact_hits + stats.frontier_hits);
}

TEST(ServiceTest, SustainsManyConcurrentInflightRequests) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(4);
  options.enable_cache = false;  // Force every request through the pool.
  options.max_inflight = 256;
  OptimizationService service(options);

  constexpr int kRequests = 80;  // > 64 concurrently in flight.
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ServiceRequest request = StarRequest(&catalog, 1 + i % 3, 2 + i % 2);
    request.preference.deadline_ms = 30000;
    futures.push_back(service.Submit(request));
  }

  int resolved = 0;
  for (std::future<ServiceResponse>& future : futures) {
    const ServiceResponse response = future.get();
    EXPECT_NE(response.status, ResponseStatus::kRejected);
    ASSERT_NE(response.result, nullptr);
    EXPECT_NE(response.result->plan, nullptr);
    ++resolved;
  }
  EXPECT_EQ(resolved, kRequests);
  EXPECT_EQ(service.InFlight(), 0u);
}

TEST(ServiceTest, NullQueryIsRejectedNotCrashed) {
  OptimizationService service(SmallServiceOptions(1));
  ServiceRequest request;  // spec.query == nullptr
  const ServiceResponse response = service.SubmitAndWait(request);
  EXPECT_EQ(response.status, ResponseStatus::kRejected);
  EXPECT_EQ(response.result, nullptr);
  EXPECT_EQ(response.plan_set(), nullptr);
  EXPECT_EQ(service.Stats().internal_errors, 1u);
}

TEST(ServiceTest, WorkloadDriverEndToEnd) {
  Catalog catalog = Catalog::TpcH(0.01);
  OptimizerOptions gen_options = SmallOptions();
  WorkloadGenerator generator(&catalog, gen_options);

  ServiceWorkloadOptions workload_options;
  workload_options.query_numbers = {3, 10};
  workload_options.cases_per_query = 2;
  workload_options.num_objectives = 3;
  std::vector<ServiceRequest> requests =
      BuildServiceWorkload(&catalog, &generator, workload_options);
  ASSERT_EQ(requests.size(), 4u);

  ServiceOptions options = SmallServiceOptions(2);
  OptimizationService service(options);
  const ServiceRunStats cold = DriveService(&service, requests);
  EXPECT_EQ(cold.completed + cold.quick, cold.total);
  EXPECT_EQ(cold.rejected, 0);
  EXPECT_EQ(cold.null_plans, 0);

  // Re-driving the same workload resolves every request from the cache
  // (exact hits where the cached preference matches, frontier hits where a
  // same-spec sibling's preference populated the entry).
  const ServiceRunStats warm = DriveService(&service, requests);
  EXPECT_EQ(warm.cache_hits, warm.total);
}

// --------------------------------------------------------------------------
// Cross-query subplan memo through the service.

/// Chain catalog for overlap tests: distinct cardinalities, indexed key.
Catalog MakeServiceChainCatalog(int tables) {
  Catalog catalog;
  for (int i = 0; i < tables; ++i) {
    const long rows = 300 * (1 + (i * 3) % 5);
    Table table("c" + std::to_string(i), rows, 40);
    ColumnStats key;
    key.name = "k";
    key.ndv = 40;
    key.min_value = 0;
    key.max_value = 39;
    key.histogram = Histogram::Uniform(0, 39, 8, rows);
    table.AddColumn(key);
    table.AddIndex("k");
    catalog.AddTable(std::move(table));
  }
  return catalog;
}

ServiceRequest ChainRequest(const Catalog* catalog, int lo, int hi) {
  auto query = std::make_shared<Query>(
      Query(catalog, "chain" + std::to_string(lo) + std::to_string(hi)));
  std::vector<int> locals;
  for (int i = lo; i <= hi; ++i) {
    locals.push_back(query->AddTable("c" + std::to_string(i)));
  }
  for (size_t i = 0; i + 1 < locals.size(); ++i) {
    query->AddJoin(locals[i], "k", locals[i + 1], "k");
  }
  ServiceRequest request;
  request.spec.query = std::move(query);
  request.spec.objectives = FirstObjectives(3);
  request.preference.weights = WeightVector::Uniform(3);
  return request;
}

TEST(ServiceTest, SubplanMemoSharesAcrossOverlappingQueries) {
  Catalog catalog = MakeServiceChainCatalog(6);
  // Same-length chains (the memo key carries the resolved precision, and
  // RTA's internal alpha depends on query size): both route identically.
  const ServiceRequest a = ChainRequest(&catalog, 0, 3);
  const ServiceRequest b = ChainRequest(&catalog, 1, 4);

  ServiceOptions memo_on = SmallServiceOptions(1);
  memo_on.subplan_memo.min_tables = 2;
  memo_on.subplan_memo.admission_epsilon = 0;  // Deterministic admission.
  OptimizationService service(memo_on);
  ASSERT_NE(service.subplan_memo(), nullptr);

  const ServiceResponse response_a = service.SubmitAndWait(a);
  ASSERT_EQ(response_a.status, ResponseStatus::kCompleted);
  EXPECT_EQ(service.Stats().memo_hits, 0u);
  EXPECT_GT(service.Stats().memo_insertions, 0u);

  const ServiceResponse response_b = service.SubmitAndWait(b);
  ASSERT_EQ(response_b.status, ResponseStatus::kCompleted);
  // Distinct specs: the whole-query cache cannot help, the memo does.
  EXPECT_EQ(response_b.cache, CacheOutcome::kMiss);
  EXPECT_GT(service.Stats().memo_hits, 0u);
  EXPECT_GT(service.Stats().MemoHitRate(), 0.0);

  // The frontier served with memo sharing is byte-identical to a
  // memo-disabled service's.
  ServiceOptions memo_off = SmallServiceOptions(1);
  memo_off.enable_subplan_memo = false;
  OptimizationService reference(memo_off);
  EXPECT_EQ(reference.subplan_memo(), nullptr);
  const ServiceResponse reference_b = reference.SubmitAndWait(b);
  ASSERT_EQ(reference_b.status, ResponseStatus::kCompleted);
  ASSERT_NE(response_b.plan_set(), nullptr);
  ASSERT_NE(reference_b.plan_set(), nullptr);
  EXPECT_EQ(response_b.plan_set()->costs(), reference_b.plan_set()->costs());
  EXPECT_EQ(response_b.result->cost, reference_b.result->cost);
  EXPECT_EQ(reference.Stats().memo_hits, 0u);
}

TEST(ServiceTest, SubplanMemoInvalidatedOnCatalogEpochBump) {
  Catalog catalog = MakeServiceChainCatalog(5);
  ServiceOptions options = SmallServiceOptions(1);
  options.subplan_memo.min_tables = 2;
  options.subplan_memo.admission_epsilon = 0;
  OptimizationService service(options);

  ASSERT_EQ(service.SubmitAndWait(ChainRequest(&catalog, 0, 3)).status,
            ResponseStatus::kCompleted);
  ASSERT_GT(service.Stats().memo_entries, 0u);

  // Statistics refreshed in place: the next request must flush the memo
  // before probing, so stale sub-frontiers can never be served.
  catalog.BumpEpoch();
  ASSERT_EQ(service.SubmitAndWait(ChainRequest(&catalog, 1, 4)).status,
            ResponseStatus::kCompleted);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.memo_invalidations, 1u);
  EXPECT_EQ(stats.memo_hits, 0u);
}

TEST(ServiceTest, WeightedSumRequestBypassesSubplanMemo) {
  Catalog catalog = MakeServiceChainCatalog(5);
  ServiceOptions options = SmallServiceOptions(1);
  options.subplan_memo.min_tables = 2;
  options.subplan_memo.admission_epsilon = 0;
  OptimizationService service(options);

  // Warm the memo with an overlapping frontier-producing request.
  ASSERT_EQ(service.SubmitAndWait(ChainRequest(&catalog, 0, 3)).status,
            ResponseStatus::kCompleted);
  const SubplanMemo::Stats before = service.MemoStats();
  ASSERT_GT(before.insertions, 0u);

  // The single-plan DP's per-set output depends on the weights: it
  // neither reads nor publishes shared sub-frontiers.
  ServiceRequest weighted = ChainRequest(&catalog, 1, 4);
  weighted.spec.algorithm = AlgorithmKind::kWeightedSum;
  const ServiceResponse response = service.SubmitAndWait(weighted);
  ASSERT_EQ(response.status, ResponseStatus::kCompleted);
  ASSERT_NE(response.result, nullptr);
  EXPECT_NE(response.result->plan, nullptr);
  const SubplanMemo::Stats after = service.MemoStats();
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_EQ(after.hits, before.hits);
}

}  // namespace
}  // namespace moqo
