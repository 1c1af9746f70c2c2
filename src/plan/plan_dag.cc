// Copyright (c) 2026 moqo authors. MIT license.

#include "plan/plan_dag.h"

#include <bit>

#include "util/table_set.h"

namespace moqo {

namespace {

TableSet RemapTables(TableSet tables, const int* table_map) {
  uint64_t mapped = 0;
  for (uint64_t m = tables.mask(); m != 0; m &= m - 1) {
    mapped |= uint64_t{1} << table_map[std::countr_zero(m)];
  }
  return TableSet(mapped);
}

}  // namespace

const PlanNode* CopyPlanDag(const PlanNode* root, Arena* arena,
                            PlanDagWalker<const PlanNode*>* copied,
                            const int* table_map) {
  return copied->Walk(root, [arena, table_map](const PlanNode* node,
                                               auto&& walk) {
    PlanNode* copy = arena->New<PlanNode>(*node);
    if (table_map != nullptr) {
      if (node->table >= 0) copy->table = table_map[node->table];
      copy->tables = RemapTables(node->tables, table_map);
    }
    copy->left = walk(node->left);
    copy->right = walk(node->right);
    return static_cast<const PlanNode*>(copy);
  });
}

}  // namespace moqo
