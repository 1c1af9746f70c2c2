#include "core/pareto_set.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/dominance_kernel.h"

namespace moqo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The two scans are written once, as always-inline templates over the
// kernel (WouldInsertImpl: the dominator scan; InsertImpl: the deletion
// scan plus the append), and instantiated twice: into plain wrappers and
// into AVX2-targeted ones, where the compiler inlines RowLeqAvx2 into the
// loops. The CPUID flag picks a wrapper once per call instead of
// dispatching an out-of-line kernel call per row.
#if defined(__GNUC__) || defined(__clang__)
#define MOQO_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define MOQO_ALWAYS_INLINE inline
#endif

template <bool kAvx2>
MOQO_ALWAYS_INLINE bool Leq(const double* a, const double* b, int dims) {
#if MOQO_DOMINANCE_AVX2
  if constexpr (kAvx2) return RowLeqAvx2(a, b, dims);
#endif
  return RowLeqScalar(a, b, dims);
}

}  // namespace

template <bool kAvx2>
MOQO_ALWAYS_INLINE bool ParetoSet::WouldInsertImpl(
    const CostVector& cost, const PruneOptions& options) const {
  const int dims = cost.size();
  // stored ⪯_alpha cost  <=>  stored ⪯ alpha*cost; the alpha multiply is
  // hoisted out of the scans by scaling the candidate once into a
  // stack-local threshold row.
  double threshold[kNumObjectives];
  if (options.alpha <= 1.0) {
    for (int d = 0; d < dims; ++d) threshold[d] = cost[d];
  } else {
    for (int d = 0; d < dims; ++d) threshold[d] = cost[d] * options.alpha;
  }
  // Recent-rejecter cache (sound only with the default deletion rule: a
  // tombstoned plan is plainly dominated by a live one, so its rejections
  // transfer; with aggressive deletion that implication weakens to alpha^2).
  const bool use_hot = !options.aggressive_delete;
  if (use_hot) {
    for (int h = 0; h < hot_used_; ++h) {
      double* hot = &hot_[h * kNumObjectives];
      if (Leq<kAvx2>(hot, threshold, dims)) {
        // Move the hit to the front: the next candidate most likely meets
        // the same rejecter, and recent_rejecter() is always row 0.
        if (h > 0) {
          double hit[kNumObjectives];
          std::copy_n(hot, dims, hit);
          std::copy_backward(hot_.data(), hot, hot + kNumObjectives);
          std::copy_n(hit, dims, hot_.data());
        }
        return false;
      }
    }
  }
  // Newest blocks first: consecutive candidates usually come from the same
  // split and are most often dominated by a recent insertion.
  const double* costs = costs_.data();
  for (int b = NumBlocks() - 1; b >= 0; --b) {
    // A block can contain a dominator only if its component-wise min is
    // below the threshold in every dimension (+inf mins — dead blocks —
    // never pass).
    if (!Leq<kAvx2>(&block_min_[static_cast<size_t>(b) * dims_], threshold,
                    dims)) {
      continue;
    }
    const int begin = b * kBlockSize;
    const int end = std::min(begin + kBlockSize, rows());
    for (int i = end - 1; i >= begin; --i) {
      const double* row = costs + static_cast<size_t>(i) * dims_;
      if (plans_[i] != nullptr && Leq<kAvx2>(row, threshold, dims)) {
        if (use_hot) {
          // New front row; the least recent one drops out when full.
          const int keep = std::min(hot_used_, kHotSlots - 1);
          std::copy_backward(hot_.data(), &hot_[keep * kNumObjectives],
                             &hot_[(keep + 1) * kNumObjectives]);
          std::copy_n(row, dims, hot_.data());
          hot_used_ = keep + 1;
        }
        return false;
      }
    }
  }
  return true;
}

template <bool kAvx2>
MOQO_ALWAYS_INLINE void ParetoSet::InsertImpl(const PlanNode* plan,
                                              const PruneOptions& options) {
  const CostVector& cost = plan->cost;
  const int dims = cost.size();
  if (dims_ == 0) dims_ = dims;
  double row[kNumObjectives];
  for (int d = 0; d < dims; ++d) row[d] = cost[d];

  // Deletion: tombstone stored plans the new plan dominates. Plain
  // dominance by default (see header); approximate dominance only in the
  // ablation mode.
  const bool aggressive = options.aggressive_delete && options.alpha > 1.0;
  const double* costs = costs_.data();
  for (int b = 0; b < NumBlocks(); ++b) {
    // The new plan can dominate a block member only if row <= block_max
    // (-inf maxes — dead blocks — never pass).
    if (!aggressive &&
        !Leq<kAvx2>(row, &block_max_[static_cast<size_t>(b) * dims_], dims)) {
      continue;
    }
    const int begin = b * kBlockSize;
    const int end = std::min(begin + kBlockSize, rows());
    bool removed_any = false;
    for (int i = begin; i < end; ++i) {
      if (plans_[i] == nullptr) continue;
      const double* stored = costs + static_cast<size_t>(i) * dims_;
      bool remove;
      if (aggressive) {
        remove = true;
        for (int d = 0; d < dims; ++d) {
          if (row[d] > stored[d] * options.alpha) {
            remove = false;
            break;
          }
        }
      } else {
        remove = Leq<kAvx2>(row, stored, dims);
      }
      if (remove) {
        plans_[i] = nullptr;
        --live_;
        removed_any = true;
      }
    }
    if (removed_any) RebuildBlock(b);
  }

  // Compact when tombstones dominate the storage.
  if (live_ * 2 < rows()) Compact();

  // Append the row and fold it into the last block's summaries.
  plans_.push_back(plan);
  costs_.insert(costs_.end(), row, row + dims);
  ++live_;
  if (static_cast<int>(block_min_.size()) <
      NumBlocks() * static_cast<int>(dims_)) {
    block_min_.insert(block_min_.end(), dims, kInf);
    block_max_.insert(block_max_.end(), dims, -kInf);
  }
  double* bmin = &block_min_[static_cast<size_t>(NumBlocks() - 1) * dims_];
  double* bmax = &block_max_[static_cast<size_t>(NumBlocks() - 1) * dims_];
  for (int d = 0; d < dims; ++d) {
    bmin[d] = std::min(bmin[d], row[d]);
    bmax[d] = std::max(bmax[d], row[d]);
  }
}

bool ParetoSet::WouldInsertScalar(const CostVector& cost,
                                  const PruneOptions& options) const {
  return WouldInsertImpl<false>(cost, options);
}

void ParetoSet::InsertScalar(const PlanNode* plan,
                             const PruneOptions& options) {
  InsertImpl<false>(plan, options);
}

#if MOQO_DOMINANCE_AVX2
__attribute__((target("avx2"))) bool ParetoSet::WouldInsertAvx2(
    const CostVector& cost, const PruneOptions& options) const {
  return WouldInsertImpl<true>(cost, options);
}

__attribute__((target("avx2"))) void ParetoSet::InsertAvx2(
    const PlanNode* plan, const PruneOptions& options) {
  InsertImpl<true>(plan, options);
}
#else
bool ParetoSet::WouldInsertAvx2(const CostVector& cost,
                                const PruneOptions& options) const {
  return WouldInsertScalar(cost, options);
}

void ParetoSet::InsertAvx2(const PlanNode* plan, const PruneOptions& options) {
  InsertScalar(plan, options);
}
#endif  // MOQO_DOMINANCE_AVX2

bool ParetoSet::WouldInsert(const CostVector& cost,
                            const PruneOptions& options) const {
  return internal::kRowLeqUseAvx2 ? WouldInsertAvx2(cost, options)
                                  : WouldInsertScalar(cost, options);
}

void ParetoSet::InsertAccepted(const PlanNode* plan,
                               const PruneOptions& options) {
  if (internal::kRowLeqUseAvx2) {
    InsertAvx2(plan, options);
  } else {
    InsertScalar(plan, options);
  }
}

bool ParetoSet::Prune(const PlanNode* plan, const PruneOptions& options) {
  if (!WouldInsert(plan->cost, options)) return false;
  InsertAccepted(plan, options);
  return true;
}

void ParetoSet::RebuildBlock(int b) {
  const int begin = b * kBlockSize;
  const int end = std::min(begin + kBlockSize, rows());
  double* bmin = &block_min_[static_cast<size_t>(b) * dims_];
  double* bmax = &block_max_[static_cast<size_t>(b) * dims_];
  for (int d = 0; d < dims_; ++d) {
    bmin[d] = kInf;
    bmax[d] = -kInf;
  }
  const double* costs = costs_.data();
  for (int i = begin; i < end; ++i) {
    if (plans_[i] == nullptr) continue;
    const double* row = costs + static_cast<size_t>(i) * dims_;
    for (int d = 0; d < dims_; ++d) {
      bmin[d] = std::min(bmin[d], row[d]);
      bmax[d] = std::max(bmax[d], row[d]);
    }
  }
}

void ParetoSet::Compact() {
  size_t kept = 0;
  for (size_t i = 0; i < plans_.size(); ++i) {
    if (plans_[i] == nullptr) continue;
    if (kept != i) {
      plans_[kept] = plans_[i];
      std::copy_n(costs_.begin() + i * dims_, dims_,
                  costs_.begin() + kept * dims_);
    }
    ++kept;
  }
  plans_.resize(kept);
  costs_.resize(kept * dims_);
  live_ = static_cast<int>(kept);
  block_min_.assign(static_cast<size_t>(NumBlocks()) * dims_, kInf);
  block_max_.assign(static_cast<size_t>(NumBlocks()) * dims_, -kInf);
  for (int b = 0; b < NumBlocks(); ++b) RebuildBlock(b);
}

void ParetoSet::Seal() { Compact(); }

void ParetoSet::LoadSealed(const std::vector<const PlanNode*>& plans) {
  clear();
  if (plans.empty()) return;
  dims_ = plans.front()->cost.size();
  plans_.reserve(plans.size());
  costs_.reserve(plans.size() * static_cast<size_t>(dims_));
  for (const PlanNode* plan : plans) {
    assert(plan != nullptr && plan->cost.size() == dims_);
    plans_.push_back(plan);
    for (int d = 0; d < dims_; ++d) costs_.push_back(plan->cost[d]);
  }
  live_ = static_cast<int>(plans.size());
  // Compact is a no-op row-wise (no tombstones) but rebuilds the block
  // min/max summaries exactly as a local build's Seal would.
  Seal();
}

void ParetoSet::clear() {
  plans_.clear();
  costs_.clear();
  block_min_.clear();
  block_max_.clear();
  dims_ = 0;
  live_ = 0;
  hot_used_ = 0;
}

CostVector ParetoSet::cost_at(int i) const {
  CostVector cost(dims_);
  const double* row = costs_.data() + static_cast<size_t>(i) * dims_;
  for (int d = 0; d < dims_; ++d) cost[d] = row[d];
  return cost;
}

std::vector<const PlanNode*> ParetoSet::plans() const {
  std::vector<const PlanNode*> result;
  result.reserve(live_);
  for (const PlanNode* plan : plans_) {
    if (plan != nullptr) result.push_back(plan);
  }
  return result;
}

const PlanNode* ParetoSet::SelectBest(const WeightVector& weights,
                                      const BoundVector& bounds) const {
  const PlanNode* best_bounded = nullptr;
  double best_bounded_cost = kInf;
  const PlanNode* best_any = nullptr;
  double best_any_cost = kInf;
  const double* costs = costs_.data();
  const int bound_dims = std::min(dims_, bounds.size());
  for (int i = 0; i < rows(); ++i) {
    if (plans_[i] == nullptr) continue;
    const double* row = costs + static_cast<size_t>(i) * dims_;
    double weighted = 0;
    for (int d = 0; d < dims_; ++d) weighted += weights[d] * row[d];
    if (weighted < best_any_cost) {
      best_any_cost = weighted;
      best_any = plans_[i];
    }
    if (weighted < best_bounded_cost) {
      bool respects = true;
      for (int d = 0; d < bound_dims; ++d) {
        if (row[d] > bounds[d]) {
          respects = false;
          break;
        }
      }
      if (respects) {
        best_bounded_cost = weighted;
        best_bounded = plans_[i];
      }
    }
  }
  return best_bounded != nullptr ? best_bounded : best_any;
}

const PlanNode* ParetoSet::SelectBestWeighted(
    const WeightVector& weights) const {
  return SelectBest(weights, BoundVector::Unbounded(weights.size()));
}

std::vector<CostVector> ParetoSet::Frontier() const {
  std::vector<CostVector> frontier;
  frontier.reserve(live_);
  for (int i = 0; i < rows(); ++i) {
    if (plans_[i] != nullptr) frontier.push_back(cost_at(i));
  }
  return frontier;
}

}  // namespace moqo
