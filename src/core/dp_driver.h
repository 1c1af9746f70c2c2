// Copyright (c) 2026 moqo authors. MIT license.
//
// DPPlanGenerator: the dynamic-programming engine shared by all optimizers
// (FindParetoPlans of Algorithms 1 and 2).
//
// It constructs plan sets for table sets of increasing cardinality; for
// each set it enumerates all ordered splits into two non-empty disjoint
// subsets (every split is one choice of operands for the last join), all
// applicable join operator configurations, and all combinations of stored
// sub-plans (Algorithm 1, lines 15-25). Pruning precision alpha
// distinguishes the EXA (alpha = 1) from the RTA (alpha = |Q|-th root of
// the user precision).
//
// Parallelism (PR 3): table sets of cardinality k depend only on sets of
// cardinality < k, so each DP level is an embarrassingly parallel batch.
// With parallelism > 1 and a pool, the driver partitions every level's
// table sets across ThreadPool::ParallelFor — each set is built by exactly
// one task, in the same split order as the serial engine, allocating
// surviving plans from a per-slot scratch Arena — and seals the level at a
// barrier before the next level starts. Because parallelism is across
// sets (never within one set's insertion sequence), the sealed frontier of
// every table set is byte-for-byte identical to the serial run's for any
// thread count, exact or approximate pruning alike.
//
// Cross-query subplan memo (PR 4): with DPOptions::subplan_memo set, the
// driver probes a shared SubplanMemo before building a table set — keyed
// by the set's canonical signature (memo/subplan_key.h), which guarantees
// byte-identical frontiers for equal keys — and on a hit seals the level
// entry directly from the shared snapshot (plans rebased into this query's
// table indices, costs verbatim). Newly sealed sets are published back
// *after* the level barrier, on the caller thread, so in-flight tasks only
// ever read immutable memo state and the frontiers of a cold run are
// byte-identical with the memo on or off.
//
// Candidate pruning: each candidate is priced by folding its children's
// costs into precomputed operator terms and checked against the set being
// built; right operands that a recent rejecter provably dominates skip
// both steps (rejection corners, see ProcessSetInto).
//
// Postgres heuristics kept in place per Section 4: Cartesian-product splits
// are considered only for table sets where no predicate-connected split
// exists.
//
// Timeout handling per Section 5.1: when the deadline expires, the
// generator "finishes quickly by only generating one plan for all table
// sets that have not been treated so far" — remaining sets combine only the
// weighted-best sub-plans and store a single plan.

#ifndef MOQO_CORE_DP_DRIVER_H_
#define MOQO_CORE_DP_DRIVER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/pareto_set.h"
#include "memo/subplan_key.h"
#include "model/cost_model.h"
#include "util/arena.h"
#include "util/deadline.h"

namespace moqo {

class PlanSet;
class SubplanMemo;
class ThreadPool;
class Tracer;

/// Knobs of one dynamic-programming run.
struct DPOptions {
  /// Internal pruning precision alpha_i; 1.0 = exact (EXA).
  double alpha = 1.0;
  /// Ablation only: also delete approximately dominated stored plans
  /// (destroys the near-optimality guarantee; Section 6.2).
  bool aggressive_delete = false;
  /// Consider bushy plans (paper default). false = left-deep only
  /// (right operand of every join is a base table) for the ablation bench.
  bool bushy = true;
  /// Consider Cartesian products only when no predicate-connected split
  /// exists (Postgres heuristic, Section 4).
  bool cartesian_heuristic = true;
  /// From the start, keep only the single weighted-best plan per table set.
  /// This degenerates the DP into the classic Selinger-style algorithm with
  /// the *weighted sum* as pruning metric — the heuristic that Example 1
  /// shows can be arbitrarily suboptimal. Used as an ablation baseline.
  bool single_plan_mode = false;
  /// Wall-clock budget; infinite by default.
  Deadline deadline;
  /// Weights used to pick the representative plan in timeout quick-mode /
  /// single-plan mode. Defaults to uniform when empty.
  WeightVector quick_mode_weights;
  /// Intra-query parallelism: cooperating threads per DP level (the caller
  /// counts as one). 1 = serial; > 1 requires `pool`. The result is
  /// independent of this value (see header comment).
  int parallelism = 1;
  /// Shared pool the level fan-out borrows helpers from; not owned. Null =
  /// serial regardless of `parallelism`.
  ThreadPool* pool = nullptr;
  /// Cross-query memo of sealed table-set frontiers, shared between runs
  /// and requests; not owned. Null = no cross-query reuse. Ignored in
  /// single_plan_mode (its per-set "frontier" depends on the weights) and
  /// for quick-mode (timed-out) sets, which are never published.
  SubplanMemo* subplan_memo = nullptr;
  /// Observability (PR 6): span recorder for per-level / per-set / memo
  /// spans; not owned, null = no tracing (the disabled path is one branch
  /// per level). `trace_id` correlates this run's spans with the request
  /// that issued it.
  Tracer* tracer = nullptr;
  uint64_t trace_id = 0;
};

/// Counters and outcomes of one run, feeding the Figure 5/9/10 metrics.
struct DPStats {
  bool timed_out = false;
  /// Plans constructed and cost-evaluated (considered plans, Section 5.1).
  long considered_plans = 0;
  /// Plans that survived pruning at insertion time.
  long inserted_plans = 0;
  /// Considered plans rejected by a rejection corner without being priced
  /// (a subset of considered_plans; see ProcessSetInto).
  long corner_skipped_plans = 0;
  /// "#Pareto plans for the last table set that was treated completely".
  int last_complete_pareto_count = 0;
  TableSet last_complete_set;
  /// Table sets fully processed before the deadline.
  int complete_sets = 0;
  int total_sets = 0;
  /// Cross-query subplan memo traffic of this run (0 when no memo is
  /// attached): sets sealed from a shared snapshot, sets probed without an
  /// entry, and sets published after their level's barrier.
  long memo_hits = 0;
  long memo_misses = 0;
  long memo_publishes = 0;
  /// Barrier-tail attribution (PR 6): DP levels that actually fanned out,
  /// and the total time participating slots spent finished-but-waiting at
  /// level barriers (the work-stealing ROADMAP item's target metric).
  int parallel_levels = 0;
  long barrier_wait_us = 0;
};

/// The DP engine. One instance per optimization run; plans live in the
/// provided arena (plus per-slot scratch arenas owned by the generator
/// when a run fans out).
class DPPlanGenerator {
 public:
  DPPlanGenerator(const CostModel* model, const OperatorRegistry* registry,
                  Arena* arena)
      : model_(model), registry_(registry), arena_(arena) {}

  /// Runs the DP over all non-empty subsets of the query's tables and
  /// returns the plan set for the full set. The returned reference is
  /// valid until the next Run() call.
  const ParetoSet& Run(const Query& query, const DPOptions& options);

  /// Plan set stored for `tables` (empty set if never built).
  const ParetoSet& SetFor(TableSet tables) const;

  const DPStats& stats() const { return stats_; }

  /// Memory metric: arena reservations (run arena + parallel slot arenas)
  /// plus plan-set container footprint.
  size_t MemoryBytes() const;

 private:
  void ProcessSingletons(const Query& query, const DPOptions& options);

  /// Builds the plan set for `tables` into `set`, allocating survivors
  /// from `arena` and counting into `stats`; seals the set on success.
  /// Returns false if the deadline expired mid-set (the partial set is
  /// discarded and rebuilt quickly by the caller).
  ///
  /// Candidates are enumerated in (split, left plan, right plan, join
  /// config) order and each is priced by CostModel::FoldJoinCost alone: the
  /// operator-local JoinTerms depend only on operand cardinality and row
  /// width, so they are computed once per (left statistics, right
  /// statistics group, config) — right plans are grouped by their
  /// statistics per split, and a left plan recomputes its row of terms
  /// only when its statistics differ from the previous left plan's. Equal
  /// statistics give bit-identical terms, so the hoisting is exact:
  /// costs, candidate order, considered/inserted counts and the deadline
  /// poll are those of calling JoinNode per candidate. Only survivors of
  /// WouldInsert become PlanNodes.
  ///
  /// Rejection corners: the first time a (left plan, config) row has a
  /// candidate rejected, the set's most recent rejecter is turned into a
  /// right-operand corner by CostModel::RejectionCorner, over the least
  /// terms of any right group. Every later right plan of that row whose
  /// sealed cost row is at or above the corner is counted as considered
  /// (and in the deadline poll) but never priced: the fold is monotone in
  /// the right cost, and a rejecter stays dominated by some live plan for
  /// the rest of the build under the default deletion rule, so WouldInsert
  /// would have returned false. Once every applicable config of the left
  /// plan has a corner, a right plan at or above their component-wise
  /// maximum skips all configs after one comparison. Skips are exact —
  /// inserts, counters and the sealed frontier match the loop without
  /// corners bit for bit. The aggressive_delete ablation, where a
  /// rejecter can be deleted for a merely alpha-dominating plan, prices
  /// every candidate.
  bool ProcessSetInto(TableSet tables, const DPOptions& options,
                      Arena* arena, ParetoSet* set, DPStats* stats) const;

  /// Fans one level's memo-miss table sets out over options.pool (largest
  /// estimated sets first, to shorten the barrier tail); merges stats and
  /// seals every set at the closing barrier. `from_memo[i]` marks sets
  /// already sealed by a memo hit; `built[i]` is set for sets completely
  /// built locally (the publish candidates).
  void ProcessLevelParallel(const std::vector<TableSet>& level,
                            const DPOptions& options,
                            const std::vector<char>& from_memo,
                            std::vector<char>* built);

  /// Seals memo_[tables] from a shared memo snapshot: plans are deep-copied
  /// into the run arena with their table references rebased from the
  /// entry's dense-rank space to this query's local indices. Returns false,
  /// leaving memo_ untouched, for an entry that does not fit this run — an
  /// empty one, or one with a node whose tables or scan table fall outside
  /// ranks 0..|tables|-1, whose children are half-present, or whose cost
  /// has another dimension count than the run's objectives (entries can
  /// come from a disk tier or a restored snapshot); the caller then treats
  /// the probe as a miss.
  bool MaterializeFromMemo(TableSet tables, const PlanSet& entry);

  /// Estimated candidate count of building `tables`: sum over its splits
  /// of |left frontier| * |right frontier|. Cheap (frontiers of lower
  /// levels are sealed) and only a *scheduling* hint — results never
  /// depend on task order.
  uint64_t SplitWorkProxy(TableSet tables, const DPOptions& options) const;

  /// Quick mode: single weighted-best plan for `tables`.
  void ProcessSetQuick(TableSet tables, const DPOptions& options);

  /// One ordered split with its precomputed plan-independent facts.
  struct Split {
    TableSet left;
    TableSet right;
    CostModel::SplitInfo info;
  };

  /// Ordered splits of `tables` honouring the Cartesian heuristic and the
  /// bushy/left-deep switch, with SplitInfo computed once per split.
  std::vector<Split> SplitsOf(TableSet tables,
                              const DPOptions& options) const;

  WeightVector EffectiveWeights(const DPOptions& options) const;

  const CostModel* model_;
  const OperatorRegistry* registry_;
  Arena* arena_;
  /// Scratch arenas for parallel helper slots (slot 0 reuses arena_);
  /// plans they hand out live until the next Run().
  std::vector<std::unique_ptr<Arena>> slot_arenas_;
  std::unordered_map<uint64_t, ParetoSet> memo_;
  /// Canonical-signature builder of the current run; set iff a subplan
  /// memo is attached and active.
  std::unique_ptr<SubplanKeyContext> key_context_;
  DPStats stats_;
  ParetoSet empty_set_;
};

}  // namespace moqo

#endif  // MOQO_CORE_DP_DRIVER_H_
