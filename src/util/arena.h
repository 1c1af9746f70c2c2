// Copyright (c) 2026 moqo authors. MIT license.
//
// Arena: a bump allocator for immutable plan nodes.
//
// The optimizers allocate very large numbers of small, immutable PlanNode
// objects whose lifetime is the lifetime of one optimization run (the EXA
// can allocate millions before a timeout). A bump allocator makes each
// allocation a pointer increment, never frees individual objects, and
// reports its total footprint so OptimizerMetrics can reproduce the
// "allocated memory during optimization" series of Figures 5/9/10.

#ifndef MOQO_UTIL_ARENA_H_
#define MOQO_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "rt/failpoint.h"

namespace moqo {

/// Block-based bump allocator. Not thread-safe; each optimizer run owns one.
class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = size_t{1} << 16;  // 64 KiB

  explicit Arena(size_t block_bytes = kDefaultBlockBytes)
      : initial_block_bytes_(block_bytes), block_bytes_(block_bytes) {}

  /// Geometric-growth arena: the first block reserves `initial_bytes` and
  /// every subsequent block doubles, up to `max_block_bytes`. Sizes the
  /// reservation to the payload for arenas whose footprint is unknown and
  /// often tiny — PlanSet snapshots pin their arenas for the lifetime of a
  /// cache/memo entry, and a fixed 64 KiB first block would waste most of
  /// a small frontier's byte budget — while big consumers still converge
  /// to full-size blocks after a few doublings.
  Arena(size_t initial_bytes, size_t max_block_bytes)
      : initial_block_bytes_(initial_bytes < 1 ? 1 : initial_bytes),
        block_bytes_(initial_block_bytes_),
        max_block_bytes_(max_block_bytes < initial_block_bytes_
                             ? initial_block_bytes_
                             : max_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates `bytes` with `alignment`, uninitialized; memory is owned by
  /// the arena and released only on destruction or Reset().
  void* Allocate(size_t bytes, size_t alignment = alignof(std::max_align_t)) {
    // Align the actual address, not the block-relative offset: block bases
    // from new char[] only guarantee fundamental alignment.
    size_t padded = blocks_.empty() ? 0 : AlignedOffset(alignment);
    if (blocks_.empty() || padded + bytes > blocks_.back().size) {
      NewBlock(bytes + alignment);
      padded = AlignedOffset(alignment);
    }
    void* result = blocks_.back().data.get() + padded;
    offset_ = padded + bytes;
    allocated_bytes_ += bytes;
    return result;
  }

  /// Constructs a T in arena storage. T must be trivially destructible or
  /// not require destruction (plan nodes qualify: POD-ish, pointer fields).
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    void* mem = Allocate(sizeof(T), alignof(T));
    return new (mem) T(std::forward<Args>(args)...);
  }

  /// Total bytes handed out to callers since construction or last Reset().
  size_t allocated_bytes() const { return allocated_bytes_; }

  /// Total bytes reserved from the system (>= allocated_bytes()).
  size_t reserved_bytes() const { return reserved_bytes_; }

  /// Releases all blocks; invalidates every pointer previously returned.
  /// A growth arena restarts from its initial block size.
  void Reset() {
    blocks_.clear();
    offset_ = 0;
    allocated_bytes_ = 0;
    reserved_bytes_ = 0;
    block_bytes_ = initial_block_bytes_;
  }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size;
  };

  /// Smallest block offset >= offset_ whose address is `alignment`-aligned.
  size_t AlignedOffset(size_t alignment) const {
    const uintptr_t base =
        reinterpret_cast<uintptr_t>(blocks_.back().data.get());
    const uintptr_t aligned =
        (base + offset_ + alignment - 1) & ~(uintptr_t{alignment} - 1);
    return static_cast<size_t>(aligned - base);
  }

  void NewBlock(size_t min_bytes) {
    // Block refill, not per-Allocate: the bump fast path stays untouched.
    // Arm with `oom` to simulate allocation failure mid-optimization.
    MOQO_FAILPOINT("arena.new_block");
    size_t size = min_bytes > block_bytes_ ? min_bytes : block_bytes_;
    // Uninitialized: New() constructs every object it hands out, and no
    // caller reads raw arena bytes, so zero-filling each block is waste.
    blocks_.push_back(
        Block{std::make_unique_for_overwrite<char[]>(size), size});
    reserved_bytes_ += size;
    offset_ = 0;
    if (block_bytes_ < max_block_bytes_) {
      const size_t doubled = block_bytes_ * 2;
      block_bytes_ = doubled > max_block_bytes_ ? max_block_bytes_ : doubled;
    }
  }

  size_t initial_block_bytes_;
  size_t block_bytes_;
  /// Growth ceiling; == initial for fixed-size arenas.
  size_t max_block_bytes_ = 0;
  std::vector<Block> blocks_;
  size_t offset_ = 0;
  size_t allocated_bytes_ = 0;
  size_t reserved_bytes_ = 0;
};

}  // namespace moqo

#endif  // MOQO_UTIL_ARENA_H_
