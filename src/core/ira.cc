#include "core/ira.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace moqo {

bool IRAOptimizer::StoppingConditionMet(const ParetoSet& set,
                                        const WeightVector& weights,
                                        const BoundVector& bounds,
                                        const PlanNode* popt, double alpha,
                                        double alpha_u) {
  if (popt == nullptr) return true;

  // Guard strengthening Algorithm 3 (see DESIGN.md "paper-gap note"): when
  // popt violates the bounds, it is the *global* weighted minimum of P, so
  // the deflation test below is vacuously satisfied — the literal
  // pseudo-code would terminate and return a bound-violating plan even
  // when bound-respecting plans exist (relative cost infinity under
  // Definition 3). Theorem 6's proof implicitly assumes popt respects B
  // whenever the optimum does; we therefore only accept a violating popt
  // once NO plan respects even the relaxed bounds alpha*B — which
  // certifies that no plan at all respects B (any B-respecting plan p* has
  // an alpha-representative within alpha*B). Theorem 8's argument still
  // guarantees termination: below some alpha > 1, "respects alpha*B"
  // coincides with "respects B".
  if (!bounds.Respects(popt->cost)) {
    for (const PlanNode* p : set.plans()) {
      if (bounds.RespectsRelaxed(p->cost, alpha)) return false;
    }
    return true;
  }

  const double popt_threshold = weights.WeightedCost(popt->cost) / alpha_u;
  for (const PlanNode* p : set.plans()) {
    // A plan respecting the *relaxed* bounds alpha*B whose deflated
    // weighted cost undercuts popt's certified cost disproves optimality.
    if (bounds.RespectsRelaxed(p->cost, alpha) &&
        weights.WeightedCost(p->cost) / alpha < popt_threshold) {
      return false;
    }
  }
  return true;
}

int IRAOptimizer::NextIteration(const ParetoSet& set,
                                const WeightVector& weights,
                                const BoundVector& bounds,
                                const PlanNode* popt, int iteration,
                                int max_step, double alpha_u,
                                int num_objectives, int max_iterations) {
  // The forced-exact iteration is entered only from the one before it.
  if (iteration + 1 >= max_iterations) return max_iterations;
  const int cap = std::min(iteration + max_step, max_iterations - 1);

  // The lowest precision at which some witness still fails the test.
  const double alpha =
      IRAIterationPrecision(alpha_u, iteration, num_objectives);
  const bool deflation = bounds.Respects(popt->cost);
  const double popt_cost = weights.WeightedCost(popt->cost);
  double level = std::numeric_limits<double>::infinity();
  for (const PlanNode* p : set.plans()) {
    if (!bounds.RespectsRelaxed(p->cost, alpha)) continue;
    // e(p): below it p no longer fails the test. It is at least v(p), the
    // least relaxation of B that p respects (a zero cost respects even a
    // zero bound).
    double e = 0;
    for (int d = 0; d < bounds.size(); ++d) {
      if (!bounds.IsUnbounded(d) && p->cost[d] > 0) {
        e = std::max(e, p->cost[d] / bounds[d]);
      }
    }
    if (deflation) {
      const double cost = weights.WeightedCost(p->cost);
      if (cost / alpha >= popt_cost / alpha_u) continue;
      e = std::max(e, alpha_u * cost / popt_cost);
    }
    level = std::min(level, e);
  }

  int next = iteration + 1;
  while (next < cap &&
         IRAIterationPrecision(alpha_u, next, num_objectives) >= level) {
    ++next;
  }
  return next;
}

OptimizerResult IRAOptimizer::Optimize(const MOQOProblem& problem) {
  StopWatch watch;
  const int l = problem.objectives.size();
  const int n = problem.query->num_tables();
  const BoundVector bounds =
      problem.bounds.size() == l ? problem.bounds : BoundVector::Unbounded(l);
  const Deadline deadline = MakeDeadline();

  CostModel model(problem.query, &registry_, problem.objectives);
  OptimizerResult result;
  int iteration = 1;
  int max_step = 1;  // Galloping cap on the next jump; doubles per failure.
  // Work is summed over every DP that ran.
  long considered_plans = 0;
  int refinement_runs = 0;
  while (true) {
    const double alpha = iteration >= options_.max_iterations
                             ? 1.0  // Safety net: exact final iteration.
                             : IRAIterationPrecision(options_.alpha,
                                                     iteration, l);

    // Memory is reused across iterations (Section 7.2, footnote 5): each
    // iteration starts from a fresh arena and memo.
    arena_.Reset();
    DPPlanGenerator generator(&model, &registry_, &arena_);
    // FindParetoPlans(Q, alpha): the DP prunes with the |Q|-th root.
    DPOptions dp =
        MakeDPOptions(problem, RTAInternalPrecision(alpha, n), deadline);
    const ParetoSet& pareto = generator.Run(*problem.query, dp);
    considered_plans += generator.stats().considered_plans;
    ++refinement_runs;
    const PlanNode* popt = pareto.SelectBest(problem.weights, bounds);

    // Converged: the alpha_U guarantee of Theorem 6 holds (the exact
    // alpha <= 1 iteration trivially satisfies it).
    const bool converged =
        StoppingConditionMet(pareto, problem.weights, bounds, popt, alpha,
                             options_.alpha) ||
        alpha <= 1.0;
    const bool out_of_time =
        generator.stats().timed_out || deadline.Expired();

    // No max_iterations disjunct needed: at that iteration alpha is
    // forced to 1.0 above, which makes `converged` true.
    if (converged || out_of_time) {
      // FinishResult's SelectPlan re-derives popt over the PlanSet copy:
      // same weights, bounds, and iteration order, hence the same plan.
      result = FinishResult(problem, generator, pareto, bounds,
                            watch.ElapsedMillis());
      result.metrics.iterations = iteration;
      result.metrics.considered_plans = considered_plans;
      result.metrics.refinement_runs = refinement_runs;
      // A deadline exit between iterations truncates refinement without
      // the DP itself timing out; the result then carries no alpha_U
      // guarantee and must be reported (and treated by caches) as
      // timed out.
      if (!converged && out_of_time) result.metrics.timed_out = true;
      return result;
    }
    // Skip the indices at which this set's witnesses would still fail
    // the test, up to the galloping cap.
    iteration = NextIteration(pareto, problem.weights, bounds, popt,
                              iteration, max_step, options_.alpha, l,
                              options_.max_iterations);
    max_step = std::min(2 * max_step, options_.max_iterations);
  }
}

}  // namespace moqo
