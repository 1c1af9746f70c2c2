// Copyright (c) 2026 moqo authors. MIT license.
//
// ParetoSet: the per-table-set plan container with the pruning procedure of
// Algorithm 1 (exact) and Algorithm 2 (approximate).
//
// Exact pruning (EXA, Algorithm 1, Prune):
//   insert pN iff no stored p has c(p) "dominating" c(pN); then delete every
//   stored p whose cost the new plan dominates.
//
// Approximate pruning (RTA, Algorithm 2, Prune with precision alpha_i):
//   insert pN iff no stored p approximately dominates it, i.e.
//   ¬∃p: c(p) ⪯_alpha c(pN). Deletion still uses *plain* dominance: the
//   paper explicitly warns (Section 6.2) that also deleting approximately
//   dominated plans lets stored vectors drift arbitrarily far from the real
//   Pareto frontier, destroying the near-optimality guarantee. The
//   guarantee-destroying variant is available behind an explicit flag for
//   the ablation bench only.
//
// Performance: dominance checks are the optimizer's innermost loop — every
// candidate is compared against every stored plan, and sets grow into the
// tens of thousands for many-objective instances (Section 5.1). Storage is
// struct-of-arrays: one contiguous row-major double matrix of cost
// components plus a parallel plan-pointer array, so the dominance scans
// stream over dense doubles without dragging plan pointers through the
// cache — and so the RowLeq kernel (core/dominance_kernel.h) can compare
// four components per AVX2 instruction where the CPU supports it. The
// kernel is chosen once per scan, not once per row: the dominator scan
// (WouldInsert) and the deletion scan (InsertAccepted) are each one
// always-inline template body instantiated into a scalar and an
// AVX2-targeted wrapper (the kernel inlined into the loops), and the CPUID
// flag picks the wrapper. Three further optimizations keep the scans
// tractable without changing semantics:
//
//  * Hoisted precision. The alpha multiply of approximate dominance is
//    applied once per candidate (scaling it into a stack-local threshold
//    row), not once per stored-plan comparison.
//  * Block summaries. Rows are grouped into blocks of kBlockSize; each
//    block keeps the component-wise min and max of its live cost rows
//    (+inf/-inf when the block has none). A block can contain a dominator
//    of candidate c only if block_min <= alpha*c component-wise, and the
//    new plan can dominate a block member only if c <= block_max
//    component-wise — one row comparison skips up to kBlockSize rows.
//  * Tombstone deletion. Dominated rows are unlinked lazily
//    (plan = nullptr) instead of compacting the matrix on every insert;
//    compaction runs when tombstones exceed half the rows, and the DP
//    driver Seal()s a set once its table set is fully processed.
//
// Thread-safety: none while mutating, but every const member is genuinely
// read-only except WouldInsert (which touches the mutable hot-rejecter
// cache). The parallel DP driver therefore shares *sealed* sets across
// threads freely and calls WouldInsert/Prune only on the one unsealed set
// its task owns.

#ifndef MOQO_CORE_PARETO_SET_H_
#define MOQO_CORE_PARETO_SET_H_

#include <array>
#include <vector>

#include "cost/cost_vector.h"
#include "plan/plan_node.h"

namespace moqo {

/// A set of mutually non-dominated plans for one table set.
class ParetoSet {
 public:
  ParetoSet() = default;

  /// Pruning precision: 1.0 reproduces the exact EXA behaviour; > 1.0 the
  /// RTA behaviour. `aggressive_delete` enables the guarantee-destroying
  /// deletion rule for the ablation study; never set it in production code.
  struct PruneOptions {
    double alpha = 1.0;
    bool aggressive_delete = false;
  };

  /// Insertion check only: would a plan with cost `cost` survive pruning?
  /// Lets the DP driver cost-evaluate candidates on the stack and
  /// arena-allocate only survivors.
  bool WouldInsert(const CostVector& cost, const PruneOptions& options) const;

  /// Second half of Prune: inserts `plan`, deleting the stored plans it
  /// dominates. Precondition: WouldInsert(plan->cost, options) returned
  /// true and the set has not been mutated since — the DP driver checks
  /// every candidate and inserts the few survivors without scanning for a
  /// dominator twice.
  void InsertAccepted(const PlanNode* plan, const PruneOptions& options);

  /// Attempts to insert `plan`; returns true iff the plan was kept
  /// (WouldInsert, then InsertAccepted). Postcondition: no stored live
  /// plan strictly dominates another.
  bool Prune(const PlanNode* plan, const PruneOptions& options);

  /// Convenience overload with exact pruning.
  bool Prune(const PlanNode* plan) { return Prune(plan, PruneOptions()); }

  /// Number of live (non-deleted) plans.
  int size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Dense access; valid only after Seal() (the DP driver seals every
  /// completed table set; freshly built sets must be sealed before
  /// iteration).
  const PlanNode* at(int i) const { return plans_[i]; }
  /// Gathers row `i` of the cost matrix into a value-type vector.
  CostVector cost_at(int i) const;
  /// Row `i` of the cost matrix in place (one double per dimension); valid
  /// only after Seal(), like at().
  const double* row(int i) const {
    return costs_.data() + static_cast<size_t>(i) * dims_;
  }

  /// The stored cost row that made the most recent WouldInsert return
  /// false, or nullptr (none yet, or the set runs aggressive deletion,
  /// which keeps no rejecters). The copy stays valid for the rest of the
  /// set's build: under the default deletion rule a stored plan is only
  /// ever deleted for a live plan that plainly dominates it, so some live
  /// plan is always at or below the returned row, and every candidate it
  /// rejects stays rejected. The DP driver derives rejection corners from
  /// it (CostModel::RejectionCorner). The pointer addresses the
  /// rejecter list, so read it before the next WouldInsert.
  const double* recent_rejecter() const {
    return hot_used_ > 0 ? hot_.data() : nullptr;
  }

  /// Compacts tombstones and rebuilds block summaries; afterwards
  /// entries 0..size()-1 are exactly the live plans.
  void Seal();

  /// Replaces the contents with `plans` (all non-null, each carrying its
  /// cost), already known to be a valid sealed frontier in its original
  /// insertion order, and seals. No dominance checks run: this is the
  /// cross-query subplan memo's hit path — re-running Prune over a frontier
  /// that survived pruning once reproduces the identical set (no final plan
  /// plainly dominates another, and no final plan is alpha-dominated by an
  /// earlier one), so the scans are skipped outright. The resulting sealed
  /// state is byte-identical to re-building: same rows, same order, same
  /// block summaries.
  void LoadSealed(const std::vector<const PlanNode*>& plans);

  /// Stored live plans, oldest first.
  std::vector<const PlanNode*> plans() const;

  void clear();

  /// Bytes used by this container (for the memory metric of Figs. 5/9/10).
  size_t MemoryBytes() const {
    return plans_.capacity() * sizeof(const PlanNode*) +
           (costs_.capacity() + block_min_.capacity() +
            block_max_.capacity()) *
               sizeof(double) +
           sizeof(*this);
  }

  /// SelectBest of Algorithm 1: the plan minimizing weighted cost among
  /// plans respecting `bounds`; if none respects them, the plan minimizing
  /// weighted cost overall. Returns nullptr iff the set is empty.
  const PlanNode* SelectBest(const WeightVector& weights,
                             const BoundVector& bounds) const;

  /// The plan minimizing weighted cost (no bounds). Null iff empty.
  const PlanNode* SelectBestWeighted(const WeightVector& weights) const;

  /// Cost vectors of all live plans (the (approximate) Pareto frontier).
  std::vector<CostVector> Frontier() const;

 private:
  static constexpr int kBlockSize = 32;

  int rows() const { return static_cast<int>(plans_.size()); }

  int NumBlocks() const {
    return (rows() + kBlockSize - 1) / kBlockSize;
  }

  /// Recomputes min/max summaries of block `b` from its live rows.
  void RebuildBlock(int b);

  /// Drops tombstones and rebuilds all blocks.
  void Compact();

  /// Active cost dimensions; fixed by the first insert.
  int dims_ = 0;
  int live_ = 0;
  /// Row i's plan; nullptr = tombstone. Parallel to costs_ rows.
  std::vector<const PlanNode*> plans_;
  /// Row-major rows() x dims_ matrix of cost components (tombstoned rows
  /// keep their stale values; plans_ is the liveness authority).
  std::vector<double> costs_;
  /// Component-wise min/max over live rows per block, NumBlocks() x dims_;
  /// +inf / -inf for blocks with no live rows.
  std::vector<double> block_min_;
  std::vector<double> block_max_;

  /// Kernel-pinned scan instantiations (see the header comment); the
  /// public WouldInsert/InsertAccepted pick one per call from the CPUID
  /// flag. The Avx2 variants may only run when RowLeqKernelIsAvx2() holds
  /// (they fall back to scalar where AVX2 is not compiled in).
  template <bool kAvx2>
  bool WouldInsertImpl(const CostVector& cost,
                       const PruneOptions& options) const;
  template <bool kAvx2>
  void InsertImpl(const PlanNode* plan, const PruneOptions& options);
  bool WouldInsertScalar(const CostVector& cost,
                         const PruneOptions& options) const;
  bool WouldInsertAvx2(const CostVector& cost,
                       const PruneOptions& options) const;
  void InsertScalar(const PlanNode* plan, const PruneOptions& options);
  void InsertAvx2(const PlanNode* plan, const PruneOptions& options);

  /// Tests drive both instantiations with one candidate stream.
  friend class ParetoSetScanPeer;

  /// Recently rejecting cost rows, most recent first (row 0 is
  /// recent_rejecter(); a hit moves to the front, a new rejecter from the
  /// scan is pushed there and the least recent row drops out): consecutive
  /// candidates usually come from the same split and are rejected by the
  /// same stored plan. Purely an accelerator; stale copies are harmless
  /// because every cached row belonged to a stored plan whose dominance
  /// already implied rejection (tombstoning only ever happens to plans
  /// dominated by a *kept* plan, which then dominates the same
  /// candidates). Rows are only ever written under the default deletion
  /// rule.
  static constexpr int kHotSlots = 4;
  mutable std::array<double, kHotSlots * kNumObjectives> hot_{};
  mutable int hot_used_ = 0;
};

}  // namespace moqo

#endif  // MOQO_CORE_PARETO_SET_H_
