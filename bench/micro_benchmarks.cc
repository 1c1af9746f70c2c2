// Micro benchmarks (google-benchmark) for the optimizer's hot paths:
// dominance checks, Pareto-set pruning, join pricing (terms, fold and
// rejection corners), the DP candidate loop, subset enumeration,
// end-to-end optimization of small queries, and the
// canonical cache keys every service request and DP run derives.

#include <benchmark/benchmark.h>

#include "core/dp_driver.h"
#include "core/exa.h"
#include "core/pareto_set.h"
#include "core/plan_set.h"
#include "core/rta.h"
#include "memo/subplan_key.h"
#include "memo/subplan_memo.h"
#include "model/cost_model.h"
#include "persist/plan_set_codec.h"
#include "query/tpch_queries.h"
#include "service/signature.h"
#include "util/random.h"

namespace moqo {
namespace {

CostVector RandomVector(Xoshiro256* rng, int dims) {
  CostVector c(dims);
  for (int i = 0; i < dims; ++i) c[i] = rng->NextDouble() * 100;
  return c;
}

void BM_Dominates(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  Xoshiro256 rng(1);
  const CostVector a = RandomVector(&rng, dims);
  const CostVector b = RandomVector(&rng, dims);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dominates(a, b));
  }
}
BENCHMARK(BM_Dominates)->Arg(3)->Arg(6)->Arg(9);

void BM_ApproxDominates(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  Xoshiro256 rng(2);
  const CostVector a = RandomVector(&rng, dims);
  const CostVector b = RandomVector(&rng, dims);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApproxDominates(a, b, 1.2));
  }
}
BENCHMARK(BM_ApproxDominates)->Arg(3)->Arg(9);

void BM_ParetoSetPrune(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  const double alpha = state.range(1) / 100.0;
  Xoshiro256 rng(3);
  Arena arena;
  std::vector<PlanNode*> plans;
  for (int i = 0; i < 20000; ++i) {
    PlanNode* plan = arena.New<PlanNode>();
    plan->cost = RandomVector(&rng, dims);
    plans.push_back(plan);
  }
  const ParetoSet::PruneOptions options{alpha, false};
  for (auto _ : state) {
    ParetoSet set;
    for (PlanNode* plan : plans) set.Prune(plan, options);
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * plans.size());
}
BENCHMARK(BM_ParetoSetPrune)
    ->Args({3, 100})
    ->Args({6, 100})
    ->Args({9, 100})
    ->Args({9, 115})
    ->Args({9, 150});

/// The two halves of pricing one join of two TPC-H Q3 scans, all nine
/// objectives, cycling through every join config: the operator terms
/// (computed once per pair of operand-statistics groups by the DP) and
/// the fold of the children's costs (run once per candidate plan pair).
struct JoinPricingFixture {
  JoinPricingFixture()
      : catalog(Catalog::TpcH(0.01)),
        query(MakeTpcHQuery(&catalog, 3)),
        model(&query, &registry, ObjectiveSet::All()),
        left(model.ScanNode(registry.scan_configs()[0], 0)),
        right(model.ScanNode(registry.scan_configs()[0], 1)),
        left_stats(CostModel::StatsOf(left)),
        right_stats(CostModel::StatsOf(right)),
        output(model.JoinOutputStats(
            left_stats, right_stats,
            model.AnalyzeSplit(left.tables, right.tables))) {}

  Catalog catalog;
  Query query;
  OperatorRegistry registry;
  CostModel model;
  PlanNode left;
  PlanNode right;
  OperandStats left_stats;
  OperandStats right_stats;
  OperandStats output;
};

void BM_JoinTerms(benchmark::State& state) {
  const JoinPricingFixture f;
  const std::vector<int>& joins = f.registry.join_configs();
  size_t config = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.ComputeJoinTerms(
        f.registry.config(joins[config % joins.size()]), f.left_stats,
        f.right_stats, f.output.rows));
    ++config;
  }
}
BENCHMARK(BM_JoinTerms);

void BM_FoldJoinCost(benchmark::State& state) {
  const JoinPricingFixture f;
  std::vector<CostModel::JoinTerms> terms;
  for (int config : f.registry.join_configs()) {
    terms.push_back(f.model.ComputeJoinTerms(f.registry.config(config),
                                             f.left_stats, f.right_stats,
                                             f.output.rows));
  }
  size_t config = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.FoldJoinCost(
        terms[config % terms.size()], f.left.cost, f.right.cost));
    ++config;
  }
}
BENCHMARK(BM_FoldJoinCost);

/// CostModel::RejectionCorner per join config of the Q3 scan pair, with
/// the rejecter at the candidate's own cost (a corner always exists): the
/// once-per-(left plan, config) price of skipping right operands.
void BM_RejectionCorner(benchmark::State& state) {
  const JoinPricingFixture f;
  std::vector<CostModel::JoinTerms> terms;
  std::vector<CostVector> rejecters;
  for (int config : f.registry.join_configs()) {
    terms.push_back(f.model.ComputeJoinTerms(f.registry.config(config),
                                             f.left_stats, f.right_stats,
                                             f.output.rows));
    rejecters.push_back(
        f.model.FoldJoinCost(terms.back(), f.left.cost, f.right.cost));
  }
  std::vector<double> rejecter(kNumObjectives);
  double corner[kNumObjectives];
  size_t config = 0;
  long found = 0;
  for (auto _ : state) {
    const size_t i = config % terms.size();
    for (int d = 0; d < rejecters[i].size(); ++d) rejecter[d] = rejecters[i][d];
    found += f.model.RejectionCorner(terms[i], f.left.cost, rejecter.data(),
                                     1.1, corner);
    benchmark::DoNotOptimize(corner);
    ++config;
  }
  state.counters["found_share"] =
      static_cast<double>(found) / static_cast<double>(config);
}
BENCHMARK(BM_RejectionCorner);

/// A serial DP over TPC-H Q2 (five tables) at all nine objectives and the
/// RTA's internal precision for alpha 1.5 (two sampling rates, DOPs 1 and
/// 4, as DpGoldenTest.RtaNineObjectivesTpcHQ2), whose top set holds most of
/// the candidates: the candidate loop end to end (pricing, rejection
/// corners, dominance scans, inserts). Counters give the per-run
/// considered plans and the share that corners skipped unpriced.
void BM_DpTopSetTpcHQ2(benchmark::State& state) {
  const Catalog catalog = Catalog::TpcH(0.01);
  const Query query = MakeTpcHQuery(&catalog, 2);
  OperatorRegistry::Options operators;
  operators.sampling_rates = {0.05, 0.01};
  operators.dops = {1, 4};
  const OperatorRegistry registry(operators);
  const CostModel model(&query, &registry, ObjectiveSet::All());
  DPOptions options;
  options.alpha = RTAInternalPrecision(1.5, query.num_tables());
  DPStats stats;
  for (auto _ : state) {
    Arena arena;
    DPPlanGenerator generator(&model, &registry, &arena);
    benchmark::DoNotOptimize(generator.Run(query, options).size());
    stats = generator.stats();
  }
  state.counters["considered"] = static_cast<double>(stats.considered_plans);
  state.counters["skipped_share"] =
      static_cast<double>(stats.corner_skipped_plans) /
      static_cast<double>(stats.considered_plans);
}
BENCHMARK(BM_DpTopSetTpcHQ2)->Unit(benchmark::kMillisecond);

void BM_SubsetEnumeration(benchmark::State& state) {
  const TableSet universe = TableSet::Prefix(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    uint64_t acc = 0;
    for (SubsetIterator it(universe); !it.Done(); it.Next()) {
      acc ^= it.Current().mask();
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SubsetEnumeration)->Arg(8)->Arg(12)->Arg(16);

void BM_OptimizeTpcH(benchmark::State& state) {
  const int query_number = static_cast<int>(state.range(0));
  const int num_objectives = static_cast<int>(state.range(1));
  Catalog catalog = Catalog::TpcH(0.01);
  Query query = MakeTpcHQuery(&catalog, query_number);
  MOQOProblem problem;
  problem.query = &query;
  std::vector<Objective> objectives(kAllObjectives.begin(),
                                    kAllObjectives.begin() + num_objectives);
  problem.objectives = ObjectiveSet(objectives);
  problem.weights = WeightVector::Uniform(num_objectives);
  OptimizerOptions options;
  options.alpha = 1.5;
  options.operators.sampling_rates = {0.05, 0.01};
  options.operators.dops = {1, 4};
  for (auto _ : state) {
    RTAOptimizer rta(options);
    benchmark::DoNotOptimize(rta.Optimize(problem).weighted_cost);
  }
}
BENCHMARK(BM_OptimizeTpcH)
    ->Args({3, 3})
    ->Args({3, 6})
    ->Args({10, 3})
    ->Args({10, 6})
    ->Unit(benchmark::kMillisecond);

ObjectiveSet FirstObjectives(int num_objectives) {
  return ObjectiveSet(std::vector<Objective>(
      kAllObjectives.begin(), kAllObjectives.begin() + num_objectives));
}

OptimizerOptions SignatureOptions() {
  OptimizerOptions options;
  options.operators.sampling_rates = {0.05, 0.01};
  options.operators.dops = {1, 4};
  return options;
}

// TPC-H queries of 3, 4, 5, 6 and 8 tables (Q3, Q10, Q2, Q5, Q8).
void SignatureQueries(benchmark::internal::Benchmark* bench) {
  for (int query_number : {3, 10, 2, 5, 8}) bench->Arg(query_number);
}

void BM_ComputeSignature(benchmark::State& state) {
  Catalog catalog = Catalog::TpcH(1.0);
  const Query query =
      MakeTpcHQuery(&catalog, static_cast<int>(state.range(0)));
  const OptimizerOptions options = SignatureOptions();
  size_t key_bytes = 0;
  for (auto _ : state) {
    const ProblemSignature signature = ComputeSignature(
        query, FirstObjectives(6), AlgorithmKind::kRta, 1.5, options);
    key_bytes = signature.key.size();
    benchmark::DoNotOptimize(signature.hash);
  }
  state.counters["key_bytes"] = static_cast<double>(key_bytes);
}
BENCHMARK(BM_ComputeSignature)->Apply(SignatureQueries);

// One session key: a four-rung ladder plus the per-rung deadline.
void BM_ExtendSignature(benchmark::State& state) {
  Catalog catalog = Catalog::TpcH(1.0);
  const Query query =
      MakeTpcHQuery(&catalog, static_cast<int>(state.range(0)));
  const ProblemSignature base = ComputeSignature(
      query, FirstObjectives(6), AlgorithmKind::kRta, 1.5,
      SignatureOptions());
  const std::vector<double> schedule = {4.0, 2.5, 1.8, 1.5, 250.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtendSignature(base, schedule).hash);
  }
}
BENCHMARK(BM_ExtendSignature)->Apply(SignatureQueries);

void BM_SubplanSignatureFor(benchmark::State& state) {
  Catalog catalog = Catalog::TpcH(1.0);
  const Query query =
      MakeTpcHQuery(&catalog, static_cast<int>(state.range(0)));
  const SubplanKeyContext context(query, FirstObjectives(6), 1.1,
                                  SignatureOptions().operators, true, true,
                                  false, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.SignatureFor(query.AllTables()).hash);
  }
}
BENCHMARK(BM_SubplanSignatureFor)->Apply(SignatureQueries);

/// The sealed frontier of TPC-H Q5 (six tables) under six objectives at
/// the RTA's internal precision for alpha 1.5 — 193 plans over 429
/// distinct nodes: the copies the memo boundary, frontier snapshots and
/// the PlanSet codec make of it.
struct SealedFrontierFixture {
  SealedFrontierFixture()
      : catalog(Catalog::TpcH(0.01)),
        query(MakeTpcHQuery(&catalog, 5)),
        registry(SignatureOptions().operators),
        model(&query, &registry, FirstObjectives(6)),
        generator(&model, &registry, &arena) {
    options.alpha = RTAInternalPrecision(1.5, query.num_tables());
    generator.Run(query, options);
  }

  const ParetoSet& Final() const {
    return generator.SetFor(query.AllTables());
  }

  Catalog catalog;
  Query query;
  OperatorRegistry registry;
  CostModel model;
  Arena arena;
  DPPlanGenerator generator;
  DPOptions options;
};

// Arg 0: FromParetoSet (result snapshot); 1: FromParetoSetRemapped
// through a dense-rank map (memo publish).
void BM_PlanSetFromParetoSet(benchmark::State& state) {
  const SealedFrontierFixture f;
  std::vector<int> local_to_rank(f.query.num_tables());
  for (int t = 0; t < f.query.num_tables(); ++t) local_to_rank[t] = t;
  const bool remap = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        remap ? PlanSet::FromParetoSetRemapped(f.Final(),
                                               local_to_rank.data())
              : PlanSet::FromParetoSet(f.Final()));
  }
  state.counters["plans"] = f.Final().size();
}
BENCHMARK(BM_PlanSetFromParetoSet)->Arg(0)->Arg(1);

// A DP run over a memo that already holds every table set of two or more
// tables: each such set is a hit (signature, lookup, validation and the
// rebasing copy into the run's arena), so the run is the memo hit path
// plus the six singleton scans.
void BM_MemoMaterialize(benchmark::State& state) {
  SealedFrontierFixture f;
  SubplanMemo::Options memo_options;
  memo_options.min_tables = 2;
  SubplanMemo memo(memo_options);
  DPOptions options = f.options;
  options.subplan_memo = &memo;
  f.generator.Run(f.query, options);
  long hits = 0;
  for (auto _ : state) {
    Arena arena;
    DPPlanGenerator generator(&f.model, &f.registry, &arena);
    benchmark::DoNotOptimize(&generator.Run(f.query, options));
    hits = generator.stats().memo_hits;
  }
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_MemoMaterialize);

void BM_PlanSetCodecAppend(benchmark::State& state) {
  const SealedFrontierFixture f;
  const std::shared_ptr<const PlanSet> set = PlanSet::FromParetoSet(f.Final());
  std::string out;
  for (auto _ : state) {
    out.clear();
    persist::PlanSetCodec::Append(*set, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["bytes"] = static_cast<double>(out.size());
}
BENCHMARK(BM_PlanSetCodecAppend);

}  // namespace
}  // namespace moqo
