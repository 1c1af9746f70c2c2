// Ablation: the IRA precision-refinement policy (Section 7.2).
//
// Compares the paper's policy alpha(i) = alpha_U^(2^(-i/(3l-3))) against
// two alternatives on bounded-MOQO instances:
//   halving:  alpha(i) = 1 + (alpha_U - 1) * 2^(-(i-1))   (fast decrease)
//   slow:     alpha(i) = alpha_U^(1/i)                    (harmonic-ish)
// by driving DPPlanGenerator directly with each schedule and the IRA
// stopping condition, one DP per schedule index as in Algorithm 3. A
// fourth row runs the paper's schedule witness-directed, as IRAOptimizer
// does: after a failed test it runs the next DP at the index
// IRAOptimizer::NextIteration picks, skipping indices whose test cannot
// change. Reports iterations (the deciding schedule index), DP runs, total
// time, the share of the last DP in total time, and the weighted cost. The
// witness-directed row must stop at the same index with the same weighted
// cost as the paper row; the bench exits 1 when it does not.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_config.h"
#include "core/ira.h"
#include "harness/table_printer.h"
#include "harness/workload.h"

using namespace moqo;
using namespace moqo::bench;

namespace {

struct PolicyResult {
  int iterations = 0;
  int dp_runs = 0;
  double total_ms = 0;
  double last_ms = 0;
  double weighted_cost = 0;
  bool bounds_ok = false;
  bool timed_out = false;
};

/// Runs the IRA loop with alpha(i) = schedule(i), exact at
/// base.max_iterations. Visits every index unless `witness_directed`, in
/// which case it steps as IRAOptimizer does (paper schedule only).
PolicyResult RunWithSchedule(const Catalog& catalog, const TestCase& tc,
                             const OptimizerOptions& base,
                             const std::function<double(int)>& schedule,
                             bool witness_directed) {
  Query query = MakeTpcHQuery(&catalog, tc.query_number);
  OperatorRegistry registry(base.operators);
  CostModel model(&query, &registry, tc.objectives);
  Arena arena;
  PolicyResult result;
  StopWatch total;
  int max_step = 1;
  for (int i = 1;;) {
    const double alpha =
        i >= base.max_iterations ? 1.0 : std::max(schedule(i), 1.0);
    StopWatch iteration;
    arena.Reset();
    DPPlanGenerator generator(&model, &registry, &arena);
    DPOptions dp;
    dp.alpha = RTAInternalPrecision(alpha, query.num_tables());
    dp.deadline = Deadline::AfterMillis(base.timeout_ms);
    dp.quick_mode_weights = tc.weights;
    const ParetoSet& pareto = generator.Run(query, dp);
    const PlanNode* popt = pareto.SelectBest(tc.weights, tc.bounds);
    result.iterations = i;
    ++result.dp_runs;
    result.timed_out = result.timed_out || generator.stats().timed_out;
    result.last_ms = iteration.ElapsedMillis();
    if (IRAOptimizer::StoppingConditionMet(pareto, tc.weights, tc.bounds,
                                           popt, alpha, base.alpha) ||
        alpha <= 1.0) {
      result.weighted_cost =
          popt != nullptr ? tc.weights.WeightedCost(popt->cost) : 0;
      result.bounds_ok = popt != nullptr && tc.bounds.Respects(popt->cost);
      break;
    }
    i = witness_directed
            ? IRAOptimizer::NextIteration(pareto, tc.weights, tc.bounds,
                                          popt, i, max_step, base.alpha,
                                          kNumObjectives, base.max_iterations)
            : i + 1;
    max_step = std::min(2 * max_step, base.max_iterations);
  }
  result.total_ms = total.ElapsedMillis();
  return result;
}

}  // namespace

int main() {
  BenchConfig config = MakeConfig(/*default_timeout_ms=*/10000);
  config.options.alpha = 1.5;
  Catalog catalog = Catalog::TpcH(config.scale_factor);
  WorkloadGenerator generator(&catalog, config.options);

  std::printf("Ablation: IRA refinement policies (alpha_U=1.5, SF=%g)\n\n",
              config.scale_factor);
  TablePrinter table({"query", "bounds", "seed", "policy", "iters", "dp_runs",
                      "total_ms", "last_dp_share", "wcost", "bounds_ok"});

  const double alpha_u = config.options.alpha;
  const int l = kNumObjectives;
  const auto paper = [&](int i) {
    return IRAIterationPrecision(alpha_u, i, l);
  };
  struct Policy {
    std::string name;
    std::function<double(int)> schedule;
    bool witness_directed;
  };
  const std::vector<Policy> policies = {
      {"paper(2^-i/(3l-3))", paper, false},
      {"halving",
       [&](int i) { return 1.0 + (alpha_u - 1.0) * std::pow(2.0, -(i - 1)); },
       false},
      {"harmonic", [&](int i) { return std::pow(alpha_u, 1.0 / i); }, false},
      {"witness-directed (paper schedule)", paper, true},
  };

  // Seed 7000 at 3 and 6 bounds per query, plus per query the
  // BoundedCase seed among 7000-7011 on which the paper policy refines
  // longest (56, 64 and 64 iterations at SF 0.01).
  struct Instance {
    int query;
    int bounds;
    uint64_t seed;
  };
  const std::vector<Instance> instances = {
      {12, 3, 7000}, {12, 6, 7000}, {3, 3, 7000},  {3, 6, 7000},
      {10, 3, 7000}, {10, 6, 7000}, {12, 6, 7006}, {3, 3, 7004},
      {10, 3, 7008}};

  int mismatches = 0;
  for (const auto& [query, bounds, seed] : instances) {
    const TestCase tc = generator.BoundedCase(query, bounds, seed);
    std::vector<PolicyResult> results;
    for (const Policy& policy : policies) {
      const PolicyResult r =
          RunWithSchedule(catalog, tc, config.options, policy.schedule,
                          policy.witness_directed);
      results.push_back(r);
      table.AddRow(
          {"q" + std::to_string(query), std::to_string(bounds),
           std::to_string(seed), policy.name, std::to_string(r.iterations),
           std::to_string(r.dp_runs), FormatDouble(r.total_ms, 1),
           FormatDouble(r.total_ms > 0 ? r.last_ms / r.total_ms : 1.0, 2),
           FormatDouble(r.weighted_cost, 2), r.bounds_ok ? "yes" : "no"});
    }
    // A timed-out DP makes either run's answer depend on the clock.
    const PolicyResult& step = results.front();
    const PolicyResult& witness = results.back();
    if (!step.timed_out && !witness.timed_out &&
        (step.iterations != witness.iterations ||
         step.weighted_cost != witness.weighted_cost)) {
      std::printf("MISMATCH q%d bounds=%d seed=%llu: paper stops at %d "
                  "(wcost %g), witness-directed at %d (wcost %g)\n",
                  query, bounds, static_cast<unsigned long long>(seed),
                  step.iterations, step.weighted_cost, witness.iterations,
                  witness.weighted_cost);
      ++mismatches;
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "paper claim (Theorem 7): the paper's policy makes the last\n"
      "iteration dominate total time. Measured, a long refinement gives\n"
      "the last DP of the step-by-step loop only a few percent of it;\n"
      "witness-directed refinement stops at the same index and weighted\n"
      "cost after a handful of DPs.\n");
  return mismatches == 0 ? 0 : 1;
}
