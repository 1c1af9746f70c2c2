// Reproduces Figure 10: optimizer performance comparison for bounded MOQO —
// EXA versus IRA with alpha in {1.15, 1.5, 2}. Optimization always
// considers all nine objectives while the number of bounds varies over
// {3, 6, 9}. Reports timeout percentage, mean time, mean memory (of the
// last iteration), mean #iterations (the schedule index that stopped the
// IRA) next to the mean number of DPs the IRA actually ran for it, and
// weighted cost as a percentage of the per-case best. Both iteration
// columns average over the runs that did not time out ("-" if none did).
//
// Expected shape (paper): the EXA's performance is insensitive to the
// number of bounds and times out massively (464 timeouts over the paper's
// sweep); the IRA has at most a handful of timeouts; IRA time/memory tend
// to be higher than the boundless RTA because hard bounds can force finer
// internal precision; the number of iterations can increase with alpha_U
// without significantly increasing total time.
//
// Note: although the EXA's *runtime* is insensitive to the number of
// bounds (it computes the full Pareto set regardless), its SelectBest step
// picks a different plan per bound vector, so each bound count gets its
// own EXA run.

#include <cstdio>

#include "bench/bench_config.h"
#include "harness/table_printer.h"
#include "harness/workload.h"

using namespace moqo;
using namespace moqo::bench;

int main() {
  const BenchConfig config = MakeConfig(/*default_timeout_ms=*/18000);
  Catalog catalog = Catalog::TpcH(config.scale_factor);
  WorkloadGenerator generator(&catalog, config.options);

  const std::vector<double> ira_alphas = {1.15, 1.5, 2.0};
  const std::vector<int> bound_counts = {3, 6, 9};

  std::printf(
      "Figure 10: bounded MOQO (all 9 objectives), EXA vs IRA (SF=%g, "
      "timeout=%lld ms, %d cases/cell)\n\n",
      config.scale_factor,
      static_cast<long long>(config.options.timeout_ms), config.cases);

  TablePrinter table({"query", "tables", "bounds", "algo", "timeout%",
                      "time_ms", "memory_KB", "iters", "dp_runs", "wcost%"});

  long exa_timeouts = 0, ira_timeouts = 0;
  double exa_total_ms = 0, ira_total_ms = 0;

  for (int query : TpcHQueryOrder()) {
    // Generate all bounded cases for this query up front.
    std::vector<std::vector<TestCase>> cases(bound_counts.size());
    for (size_t b = 0; b < bound_counts.size(); ++b) {
      for (int c = 0; c < config.cases; ++c) {
        cases[b].push_back(
            generator.BoundedCase(query, bound_counts[b], 3000 + c));
      }
    }

    for (size_t b = 0; b < bound_counts.size(); ++b) {
      // outcomes[0] = EXA, then one row per IRA alpha.
      std::vector<std::vector<RunOutcome>> outcomes(
          1 + ira_alphas.size(), std::vector<RunOutcome>(config.cases));
      ParallelFor(
          static_cast<int>(1 + ira_alphas.size()) * config.cases,
          config.threads, [&](int job) {
            const int a = job / config.cases;
            const int c = job % config.cases;
            if (a == 0) {
              outcomes[0][c] = RunCase(AlgorithmKind::kExa, catalog,
                                       cases[b][c], config.options);
            } else {
              OptimizerOptions options = config.options;
              options.alpha = ira_alphas[a - 1];
              outcomes[a][c] = RunCase(AlgorithmKind::kIra, catalog,
                                       cases[b][c], options);
            }
          });
      const std::vector<double> best = BestWeightedPerCase(outcomes);
      for (size_t a = 0; a < outcomes.size(); ++a) {
        const std::string label =
            a == 0 ? "EXA"
                   : "IRA(" + FormatDouble(ira_alphas[a - 1], 2) + ")";
        const CellStats stats = Aggregate(outcomes[a], best);
        const bool converged = stats.converged > 0;
        table.AddRow({"q" + std::to_string(query),
                      std::to_string(TpcHQueryTableCount(query)),
                      std::to_string(bound_counts[b]), label,
                      FormatDouble(stats.timeout_pct, 0),
                      FormatDouble(stats.mean_time_ms, 1),
                      FormatDouble(stats.mean_memory_kb, 0),
                      converged ? FormatDouble(stats.mean_iterations, 1)
                                : "-",
                      converged ? FormatDouble(stats.mean_refinement_runs, 1)
                                : "-",
                      FormatDouble(stats.mean_weighted_cost_pct, 2)});
        for (const RunOutcome& o : outcomes[a]) {
          if (a == 0) {
            exa_timeouts += o.metrics.timed_out ? 1 : 0;
            exa_total_ms += o.metrics.optimization_ms;
          } else {
            ira_timeouts += o.metrics.timed_out ? 1 : 0;
            ira_total_ms += o.metrics.optimization_ms;
          }
        }
      }
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "totals: EXA %ld timeouts, %.1f s optimization; IRA (all alphas) %ld "
      "timeouts, %.1f s\n"
      "(paper: 464 EXA timeouts vs at most 4 per IRA instance; total 1200+ "
      "hours EXA vs < 15 hours IRA(1.15))\n",
      exa_timeouts, exa_total_ms / 1000.0, ira_timeouts,
      ira_total_ms / 1000.0);
  return 0;
}
