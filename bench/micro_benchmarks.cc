// Micro benchmarks (google-benchmark) for the optimizer's hot paths:
// dominance checks, Pareto-set pruning, cost-model combination, subset
// enumeration, end-to-end optimization of small queries, and the
// canonical cache keys every service request and DP run derives.

#include <benchmark/benchmark.h>

#include "core/exa.h"
#include "core/pareto_set.h"
#include "core/rta.h"
#include "memo/subplan_key.h"
#include "model/cost_model.h"
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

void BM_CostModelCombine(benchmark::State& state) {
  Catalog catalog = Catalog::TpcH(0.01);
  Query query = MakeTpcHQuery(&catalog, 3);
  OperatorRegistry registry;
  CostModel model(&query, &registry, ObjectiveSet::All());
  Arena arena;
  const PlanNode* left =
      model.MakeScan(registry.scan_configs()[0], 0, &arena);
  const PlanNode* right =
      model.MakeScan(registry.scan_configs()[0], 1, &arena);
  const auto split = model.AnalyzeSplit(left->tables, right->tables);
  int config = 0;
  const auto& joins = registry.join_configs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.JoinNode(joins[config % joins.size()], left, right, split));
    ++config;
  }
}
BENCHMARK(BM_CostModelCombine);

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

}  // namespace
}  // namespace moqo
