// Copyright (c) 2026 moqo authors. MIT license.
//
// Append flattens the set's plan DAG with one PlanDagWalker walk
// (plan/plan_dag.h): each distinct node gets its node-table index in
// children-before-parents order, and the walk hands every parent its
// children's indices, so emitting the table needs no second lookup.
// Decode needs no walker at all: a valid block is already in that order.

#include "persist/plan_set_codec.h"

#include <cassert>
#include <vector>

#include "cost/objective.h"
#include "persist/format.h"
#include "plan/plan_dag.h"
#include "plan/plan_node.h"
#include "util/byte_codec.h"
#include "util/table_set.h"

namespace moqo {
namespace persist {

void PlanSetCodec::Append(const PlanSet& set, std::string* out) {
  // Children-before-parents node table with DAG dedup: every distinct node
  // gets exactly one index, and child indices are always smaller than the
  // parent's.
  struct Flat {
    const PlanNode* node;
    uint32_t left, right;
  };
  std::vector<Flat> nodes;
  std::vector<uint32_t> roots(set.size());
  PlanDagWalker<uint32_t> index(set.size());
  const auto enumerate = [&nodes](const PlanNode* node, auto&& walk) {
    const uint32_t left = node->left == nullptr ? kNoChild : walk(node->left);
    const uint32_t right =
        node->right == nullptr ? kNoChild : walk(node->right);
    nodes.push_back(Flat{node, left, right});
    return static_cast<uint32_t>(nodes.size() - 1);
  };
  for (int i = 0; i < set.size(); ++i) {
    roots[i] = index.Walk(set.plan(i), enumerate);
  }
  const uint32_t dims =
      set.empty() ? 0 : static_cast<uint32_t>(set.cost(0).size());

  PutU32(out, static_cast<uint32_t>(set.size()));
  PutU32(out, static_cast<uint32_t>(nodes.size()));
  PutU32(out, dims);
  PutU32(out, 0);  // reserved
  for (int i = 0; i < set.size(); ++i) {
    const CostVector& cost = set.cost(i);
    assert(cost.size() == static_cast<int>(dims));
    for (uint32_t d = 0; d < dims; ++d) PutF64(out, cost[d]);
  }
  for (uint32_t root : roots) PutU32(out, root);
  for (const auto& [node, left, right] : nodes) {
    PutI32(out, node->op_config);
    PutI32(out, node->table);
    PutU32(out, left);
    PutU32(out, right);
    PutU64(out, node->tables.mask());
    PutF64(out, node->cardinality);
    PutF64(out, node->row_width);
    assert(node->cost.size() == static_cast<int>(dims));
    for (uint32_t d = 0; d < dims; ++d) PutF64(out, node->cost[d]);
  }
}

std::shared_ptr<const PlanSet> PlanSetCodec::Decode(const void* data,
                                                    size_t size,
                                                    size_t* consumed) try {
  ByteReader reader(data, size);
  uint32_t num_plans, num_nodes, dims, reserved;
  if (!reader.GetU32(&num_plans) || !reader.GetU32(&num_nodes) ||
      !reader.GetU32(&dims) || !reader.GetU32(&reserved)) {
    return nullptr;
  }
  if (dims > static_cast<uint32_t>(kNumObjectives)) return nullptr;
  // Up-front size check: a lying header must fail here, not mid-parse.
  const uint64_t node_bytes = 4u + 4u + 4u + 4u + 8u + 8u + 8u +
                              static_cast<uint64_t>(dims) * 8u;
  const uint64_t need =
      static_cast<uint64_t>(num_plans) * dims * 8u +
      static_cast<uint64_t>(num_plans) * 4u +
      static_cast<uint64_t>(num_nodes) * node_bytes;
  if (need > reader.remaining()) return nullptr;
  if (num_plans == 0) {
    if (consumed != nullptr) *consumed = reader.position();
    return PlanSet::Empty();
  }
  // Every plan needs a root node.
  if (num_nodes == 0) return nullptr;

  struct Constructible : PlanSet {};
  auto result = std::make_shared<Constructible>();
  result->costs_.reserve(num_plans);
  for (uint32_t i = 0; i < num_plans; ++i) {
    CostVector cost(static_cast<int>(dims));
    for (uint32_t d = 0; d < dims; ++d) {
      double v;
      if (!reader.GetF64(&v)) return nullptr;
      cost[static_cast<int>(d)] = v;
    }
    result->costs_.push_back(cost);
  }
  std::vector<uint32_t> roots(num_plans);
  for (uint32_t i = 0; i < num_plans; ++i) {
    if (!reader.GetU32(&roots[i]) || roots[i] >= num_nodes) return nullptr;
  }
  // One forward pass: child indices must refer to already-built nodes, so
  // a valid block materializes without recursion or fixups.
  std::vector<const PlanNode*> nodes;
  nodes.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    int32_t op_config, table;
    uint32_t left, right;
    uint64_t tables_mask;
    double cardinality, row_width;
    if (!reader.GetI32(&op_config) || !reader.GetI32(&table) ||
        !reader.GetU32(&left) || !reader.GetU32(&right) ||
        !reader.GetU64(&tables_mask) || !reader.GetF64(&cardinality) ||
        !reader.GetF64(&row_width)) {
      return nullptr;
    }
    if ((left != kNoChild && left >= i) || (right != kNoChild && right >= i)) {
      return nullptr;
    }
    // Scans have no children, joins have both — anything else is corrupt.
    if ((left == kNoChild) != (right == kNoChild)) return nullptr;
    // PlanNode's invariants, which plan consumers index by without
    // checking: a scan covers exactly its own table, a join the disjoint
    // union of its children's tables.
    const TableSet tables(tables_mask);
    if (op_config < 0) return nullptr;
    if (left == kNoChild) {
      if (table < 0 || table >= TableSet::kMaxTables ||
          tables != TableSet::Singleton(table)) {
        return nullptr;
      }
    } else {
      const TableSet left_tables = nodes[left]->tables;
      const TableSet right_tables = nodes[right]->tables;
      if (table != -1 || left_tables.Intersects(right_tables) ||
          left_tables.Union(right_tables) != tables) {
        return nullptr;
      }
    }
    CostVector cost(static_cast<int>(dims));
    for (uint32_t d = 0; d < dims; ++d) {
      double v;
      if (!reader.GetF64(&v)) return nullptr;
      cost[static_cast<int>(d)] = v;
    }
    PlanNode* node = result->arena_.New<PlanNode>();
    node->op_config = op_config;
    node->table = table;
    node->left = left == kNoChild ? nullptr : nodes[left];
    node->right = right == kNoChild ? nullptr : nodes[right];
    node->tables = tables;
    node->cost = cost;
    node->cardinality = cardinality;
    node->row_width = row_width;
    nodes.push_back(node);
  }
  result->plans_.reserve(num_plans);
  for (uint32_t i = 0; i < num_plans; ++i) {
    result->plans_.push_back(nodes[roots[i]]);
  }
  if (consumed != nullptr) *consumed = reader.position();
  return result;
} catch (const std::bad_alloc&) {
  // Allocation failure mid-decode (arena growth, vector reserve — real or
  // injected via arena.new_block) degrades to the undecodable path every
  // caller already handles: a tier probe misses, a restore skips the
  // record. A cache can always refuse to produce an entry.
  return nullptr;
}

}  // namespace persist
}  // namespace moqo
