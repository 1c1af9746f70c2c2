// Fixture: an ad-hoc DAG walk over a pointer-keyed hash map — moqo_lint
// must report `plan-dag-walk`.
#include <unordered_map>
#include <unordered_set>
struct PlanNode {
  const PlanNode* left;
  const PlanNode* right;
};
int CountDistinct(const PlanNode* node,
                  std::unordered_set<const PlanNode*>* seen) {
  if (node == nullptr || !seen->insert(node).second) return 0;
  return 1 + CountDistinct(node->left, seen) + CountDistinct(node->right, seen);
}
std::unordered_map<PlanNode*, int> g_index;
