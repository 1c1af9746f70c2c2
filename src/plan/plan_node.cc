#include "plan/plan_node.h"

#include <algorithm>

namespace moqo {

int PlanNode::Height() const {
  if (IsScan()) return 1;
  return 1 + std::max(left->Height(), right->Height());
}

bool PlanNode::IsLeftDeep() const {
  if (IsScan()) return true;
  return right->IsScan() && left->IsLeftDeep();
}

bool PlansEqual(const PlanNode* a, const PlanNode* b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->op_config != b->op_config || a->table != b->table ||
      !(a->tables == b->tables)) {
    return false;
  }
  return PlansEqual(a->left, b->left) && PlansEqual(a->right, b->right);
}

uint64_t PlanHash(const PlanNode* plan) {
  if (plan == nullptr) return 0;
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<uint64_t>(plan->op_config) + 1);
  mix(static_cast<uint64_t>(plan->table) + 2);
  mix(plan->tables.mask());
  mix(PlanHash(plan->left) * 3);
  mix(PlanHash(plan->right) * 5);
  return h;
}

}  // namespace moqo
