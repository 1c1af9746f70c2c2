// Copyright (c) 2026 moqo authors. MIT license.
//
// PlanDagWalker: the one walk over a plan DAG behind every plan copy and
// flattening.
//
// The DP stores a table set's plans as a DAG: a join points at sub-plans
// that many sibling plans share. Every boundary where such a set leaves or
// enters an arena — frontier snapshots (PlanSet), the subplan memo's
// publish and hit, the on-disk PlanSetCodec — must visit each distinct node
// exactly once, or the copy multiplies by the frontier size. The walker
// memoizes one value per distinct node in a flat open-addressing table
// keyed by node address: power-of-two slots, linear probing, doubled at
// half load. A walk therefore costs one slot array, not one hash-map node
// per PlanNode, and CopyPlanDag allocates every copy from the target arena.

#ifndef MOQO_PLAN_PLAN_DAG_H_
#define MOQO_PLAN_PLAN_DAG_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "plan/plan_node.h"
#include "util/arena.h"

namespace moqo {

/// Memoized DAG walk: Walk(root, visit) computes one Value per distinct
/// node reachable from the roots walked through this instance, so several
/// roots walked through one walker share their common sub-plans. Not
/// thread-safe; one walker per copy or encode.
template <typename Value>
class PlanDagWalker {
 public:
  /// Distinct nodes budgeted per plan before the first growth: frontier
  /// plans of one table set share most of their sub-plans, so a set's DAG
  /// is a small multiple of its plan count.
  static constexpr size_t kNodesPerPlan = 4;

  /// Sized for `plans` roots' worth of nodes at under half load.
  explicit PlanDagWalker(size_t plans) {
    const size_t slots =
        std::bit_ceil(std::max<size_t>(16, 2 * kNodesPerPlan * plans));
    slots_.resize(slots);
    shift_ = 64 - std::countr_zero(slots);
  }

  /// The value of `node`: on its first sighting `visit(node, walk)`, where
  /// `walk(child)` yields a child's value the same way; afterwards the
  /// memoized value. `visit` runs once per distinct node, and controls the
  /// order (pre- or post-order) by where it calls `walk`. A null node
  /// yields Value{} without a visit.
  template <typename Visit>
  Value Walk(const PlanNode* node, Visit&& visit) {
    if (node == nullptr) return Value{};
    if (const Slot* seen = Find(node)) return seen->value;
    const Value value = visit(node, [this, &visit](const PlanNode* child) {
      return Walk(child, visit);
    });
    Insert(node, value);
    return value;
  }

  /// Distinct nodes visited so far.
  size_t size() const { return size_; }

  /// Forgets every visited node, keeping the slot array for reuse.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

 private:
  struct Slot {
    const PlanNode* key = nullptr;
    Value value{};
  };

  size_t Home(const PlanNode* node) const {
    // Fibonacci hashing: arena addresses share their low bits, so the
    // multiply spreads the high ones into the slot index.
    return static_cast<size_t>((reinterpret_cast<uintptr_t>(node) *
                                uint64_t{0x9E3779B97F4A7C15}) >>
                               shift_);
  }

  const Slot* Find(const PlanNode* node) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(node);; i = (i + 1) & mask) {
      if (slots_[i].key == node) return &slots_[i];
      if (slots_[i].key == nullptr) return nullptr;
    }
  }

  /// `node` must be absent (a DAG never reaches a node from below it).
  void Insert(const PlanNode* node, Value value) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = Home(node);
    while (slots_[i].key != nullptr) i = (i + 1) & mask;
    slots_[i] = Slot{node, value};
    ++size_;
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.key != nullptr) Insert(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 0;
  size_t size_ = 0;
};

/// DAG-sharing deep copy of `root` into `arena`: every distinct source node
/// reachable from the roots copied through one `copied` walker is copied
/// exactly once (parent before children), so sub-plans shared among them
/// stay shared by pointer. With a non-null `table_map`, every copy's
/// `table` and `tables` are renumbered (new = table_map[old]; every
/// referenced old index must have a mapping; `tables` is renumbered one mask
/// bit at a time): the cross-query subplan memo
/// stores plans in a table set's dense-rank space and rebinds them to a
/// query's local indices on a hit.
const PlanNode* CopyPlanDag(const PlanNode* root, Arena* arena,
                            PlanDagWalker<const PlanNode*>* copied,
                            const int* table_map = nullptr);

}  // namespace moqo

#endif  // MOQO_PLAN_PLAN_DAG_H_
