// Copyright (c) 2026 moqo authors. MIT license.
//
// IRAOptimizer: the Iterative-Refinement Algorithm (Section 7,
// Algorithm 3) — an approximation scheme for *bounded-weighted* MOQO.
//
// An alpha-approximate Pareto set need not contain a near-optimal plan once
// hard bounds are present (Figure 8): two nearly identical cost vectors can
// fall on opposite sides of a bound. The IRA therefore iterates: each
// iteration generates an alpha-approximate Pareto set (via the RTA engine)
// at a precision of the paper's schedule alpha_i = alpha_U^(2^(-i/(3l-3)));
// it stops as soon as the stopping condition of Algorithm 3 certifies that
// the best generated plan is an alpha_U-approximate solution (Theorem 6):
//
//   stop iff  !exists p in P:  c(p) respects alpha*B  and
//             C_W(c(p)) / alpha < C_W(c(popt)) / alpha_U
//
// Theorem 8 guarantees termination. Theorem 7 bounds the worst-case time
// of iteration i, but measured DPs grow far slower than that bound: on
// TPC-H with 6-9 objectives a plan that breaks a bound by ~4% fails the
// test until alpha_i < 1.04, i.e. for 50-60 iterations whose DPs grow only
// from about 2 to 7 ms, so stepping i -> i+1 costs 30x the last iteration.
// The IRA therefore visits only the schedule indices at which the test can
// change (NextIteration): the plans that made it fail (the *witnesses*)
// keep failing it until alpha_i drops below a level computed from their
// cost vectors, so the next DP runs at the first index below that level,
// capped by a galloping step (1, 2, 4, ... indices per failed test) so a
// popt that improves in between is overshot by fewer indices than have
// already run. Every DP depends only on its alpha, so landing on the
// index where the step-by-step loop stops returns the same answer; the
// unchanged test certifies Theorem 6 at whichever index the IRA stops.

#ifndef MOQO_CORE_IRA_H_
#define MOQO_CORE_IRA_H_

#include "core/optimizer.h"

namespace moqo {

/// Approximation scheme for bounded-weighted MOQO (Definition 4).
class IRAOptimizer : public OptimizerBase {
 public:
  explicit IRAOptimizer(const OptimizerOptions& options)
      : OptimizerBase(options) {}

  OptimizerResult Optimize(const MOQOProblem& problem) override;

  /// Exposed for tests: evaluates the Algorithm-3 stopping condition on a
  /// generated plan set. Returns true iff the IRA may terminate.
  static bool StoppingConditionMet(const ParetoSet& set,
                                   const WeightVector& weights,
                                   const BoundVector& bounds,
                                   const PlanNode* popt, double alpha,
                                   double alpha_u);

  /// Exposed for tests: the schedule index the IRA refines to after the
  /// stopping condition failed on `set` at index `iteration` (precision
  /// IRAIterationPrecision(alpha_u, iteration, num_objectives)); `popt` is
  /// the set's selected plan, non-null since the condition failed, and
  /// `max_step` >= 1.
  ///
  /// A witness is a plan of `set` that fails the condition. A witness p
  /// can fail it only at precisions alpha >= e(p), where v(p) = max over
  /// bounded dimensions of c_d(p)/B_d and
  /// e(p) = max(v(p), alpha_u*C_W(p)/C_W(popt)), or e(p) = v(p) when popt
  /// violates the bounds. The result is the first index k > iteration with
  /// alpha_k < min_p e(p), capped at iteration + max_step; the forced-exact
  /// index `max_iterations` is returned only from max_iterations - 1,
  /// never by a jump.
  static int NextIteration(const ParetoSet& set, const WeightVector& weights,
                           const BoundVector& bounds, const PlanNode* popt,
                           int iteration, int max_step, double alpha_u,
                           int num_objectives, int max_iterations);
};

}  // namespace moqo

#endif  // MOQO_CORE_IRA_H_
