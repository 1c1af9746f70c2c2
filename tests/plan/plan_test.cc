// Tests for the operator registry, plan nodes, and plan printing.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "model/cost_model.h"
#include "plan/operators.h"
#include "plan/plan_dag.h"
#include "plan/plan_node.h"
#include "plan/plan_printer.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace {

TEST(OperatorRegistryTest, DefaultSpaceMatchesPaperFanOut) {
  OperatorRegistry registry;
  // Section 4: "over 10 different configurations are considered for the
  // scan and for the join operator respectively".
  EXPECT_GT(static_cast<int>(registry.scan_configs().size()), 10);
  EXPECT_GT(static_cast<int>(registry.join_configs().size()), 10);
  EXPECT_EQ(registry.OperatorCountJ(), registry.num_configs());
}

TEST(OperatorRegistryTest, DefaultSamplingRatesAre1To5Percent) {
  OperatorRegistry registry;
  std::set<double> rates;
  for (int id : registry.scan_configs()) {
    rates.insert(registry.config(id).sampling_rate);
  }
  EXPECT_EQ(rates, (std::set<double>{0.01, 0.02, 0.03, 0.04, 0.05, 1.0}));
}

TEST(OperatorRegistryTest, DopUpTo4Cores) {
  OperatorRegistry registry;
  int max_dop = 0;
  for (int id : registry.join_configs()) {
    max_dop = std::max(max_dop, registry.config(id).dop);
  }
  EXPECT_EQ(max_dop, 4);
}

TEST(OperatorRegistryTest, DisablingFeaturesShrinksSpace) {
  OperatorRegistry::Options options;
  options.enable_sampling = false;
  options.enable_index_scan = false;
  options.enable_parallelism = false;
  OperatorRegistry registry(options);
  EXPECT_EQ(registry.scan_configs().size(), 1u);   // SeqScan full only.
  EXPECT_EQ(registry.join_configs().size(), 4u);   // 4 join types, DOP 1.
}

TEST(OperatorConfigTest, ToStringShowsParameters) {
  EXPECT_EQ(OperatorConfig{OperatorType::kSeqScan}.ToString(), "SeqScan");
  OperatorConfig sampled{OperatorType::kSeqScan, 0.05, 1};
  EXPECT_EQ(sampled.ToString(), "SeqScan(sample=5%)");
  OperatorConfig parallel{OperatorType::kHashJoin, 1.0, 4};
  EXPECT_EQ(parallel.ToString(), "HashJ(dop=4)");
}

class PlanNodeTest : public ::testing::Test {
 protected:
  PlanNodeTest()
      : catalog_(testing::MakeTinyCatalog()),
        query_(testing::MakeStarQuery(&catalog_, 2)),
        registry_(testing::SmallOperatorSpace()),
        model_(&query_, &registry_,
               ObjectiveSet({Objective::kTotalTime, Objective::kEnergy})) {}

  const PlanNode* Scan(int table) {
    return model_.MakeScan(registry_.scan_configs()[0], table, &arena_);
  }
  const PlanNode* Join(const PlanNode* l, const PlanNode* r) {
    return model_.MakeJoin(registry_.join_configs()[0], l, r, &arena_);
  }

  Catalog catalog_;
  Query query_;
  OperatorRegistry registry_;
  CostModel model_;
  Arena arena_;
};

TEST_F(PlanNodeTest, ScanNodeProperties) {
  const PlanNode* scan = Scan(0);
  EXPECT_TRUE(scan->IsScan());
  EXPECT_EQ(scan->NodeCount(), 1);
  EXPECT_EQ(scan->Height(), 1);
  EXPECT_TRUE(scan->IsLeftDeep());
  EXPECT_EQ(scan->tables, TableSet::Singleton(0));
  EXPECT_GT(scan->cardinality, 0);
}

TEST_F(PlanNodeTest, JoinShapePredicates) {
  const PlanNode* left_deep = Join(Join(Scan(0), Scan(1)), Scan(2));
  EXPECT_TRUE(left_deep->IsLeftDeep());
  EXPECT_EQ(left_deep->NodeCount(), 5);
  EXPECT_EQ(left_deep->Height(), 3);

  const PlanNode* right_heavy = Join(Scan(2), Join(Scan(0), Scan(1)));
  EXPECT_FALSE(right_heavy->IsLeftDeep());  // Bushy/right-deep shape.
  EXPECT_EQ(right_heavy->tables, TableSet::Prefix(3));
}

TEST_F(PlanNodeTest, PlansEqualAndHash) {
  const PlanNode* a = Join(Scan(0), Scan(1));
  const PlanNode* b = Join(Scan(0), Scan(1));
  const PlanNode* c = Join(Scan(1), Scan(0));
  EXPECT_TRUE(PlansEqual(a, b));
  EXPECT_EQ(PlanHash(a), PlanHash(b));
  EXPECT_FALSE(PlansEqual(a, c));
  EXPECT_NE(PlanHash(a), PlanHash(c));
}

TEST_F(PlanNodeTest, ExplainAndSignature) {
  const PlanNode* plan = Join(Scan(0), Scan(1));
  const std::string explain = ExplainPlan(plan, query_, registry_);
  EXPECT_NE(explain.find("fact"), std::string::npos);
  EXPECT_NE(explain.find("dim1"), std::string::npos);
  EXPECT_NE(explain.find("rows="), std::string::npos);

  const std::string signature = PlanSignature(plan, query_, registry_);
  EXPECT_NE(signature.find("("), std::string::npos);
  EXPECT_NE(signature.find("fact"), std::string::npos);

  const std::string inventory = OperatorInventory(plan, registry_);
  EXPECT_NE(inventory.find("SeqScan"), std::string::npos);
}

// PlanDagWalker / CopyPlanDag over hand-built DAGs: synthetic nodes carry
// just the fields a copy touches, so sharing is fully controlled.
class PlanDagWalkerTest : public ::testing::Test {
 protected:
  const PlanNode* Scan(int table) {
    PlanNode* node = source_.New<PlanNode>();
    node->op_config = 1;
    node->table = table;
    node->tables = TableSet::Singleton(table);
    node->cost = CostVector(2, 1.0 + table);
    return node;
  }
  const PlanNode* Join(const PlanNode* left, const PlanNode* right) {
    PlanNode* node = source_.New<PlanNode>();
    node->op_config = 2;
    node->left = left;
    node->right = right;
    node->tables = left->tables.Union(right->tables);
    node->cost = CostVector(2, left->cost[0] + right->cost[0]);
    return node;
  }

  /// Distinct nodes reachable from `roots`.
  static std::set<const PlanNode*> Distinct(
      const std::vector<const PlanNode*>& roots) {
    std::set<const PlanNode*> seen;
    std::vector<const PlanNode*> stack(roots.begin(), roots.end());
    while (!stack.empty()) {
      const PlanNode* node = stack.back();
      stack.pop_back();
      if (node == nullptr || !seen.insert(node).second) continue;
      stack.push_back(node->left);
      stack.push_back(node->right);
    }
    return seen;
  }

  /// Checks `copy` against `source` renumbered the way the memo did before
  /// the walker: table_map applied to every member of TableSet::Members().
  static void ExpectMembersRemap(const PlanNode* source, const PlanNode* copy,
                                 const std::vector<int>& table_map) {
    ASSERT_EQ(source == nullptr, copy == nullptr);
    if (source == nullptr) return;
    TableSet expected;
    for (int table : source->tables.Members()) {
      expected = expected.With(table_map[table]);
    }
    EXPECT_EQ(copy->tables, expected);
    EXPECT_EQ(copy->table,
              source->table >= 0 ? table_map[source->table] : source->table);
    EXPECT_EQ(copy->op_config, source->op_config);
    EXPECT_EQ(copy->cost, source->cost);
    ExpectMembersRemap(source->left, copy->left, table_map);
    ExpectMembersRemap(source->right, copy->right, table_map);
  }

  Arena source_;
};

TEST_F(PlanDagWalkerTest, MultiRootCopyAllocatesOncePerDistinctNode) {
  const PlanNode* shared = Join(Scan(0), Scan(1));
  const PlanNode* s2 = Scan(2);
  const PlanNode* s3 = Scan(3);
  const std::vector<const PlanNode*> roots = {
      Join(shared, s2), Join(shared, s3), Join(s3, shared), Join(s2, s3)};
  const size_t distinct = Distinct(roots).size();
  ASSERT_EQ(distinct, 9u);

  Arena target;
  PlanDagWalker<const PlanNode*> copied(roots.size());
  std::vector<const PlanNode*> copies;
  for (const PlanNode* root : roots) {
    copies.push_back(CopyPlanDag(root, &target, &copied));
  }
  EXPECT_EQ(copied.size(), distinct);
  EXPECT_EQ(target.allocated_bytes(), distinct * sizeof(PlanNode));
  EXPECT_EQ(Distinct(copies).size(), distinct);
  // Shared children stay shared by pointer, and no copy aliases a source.
  EXPECT_EQ(copies[0]->left, copies[1]->left);
  EXPECT_EQ(copies[0]->left, copies[2]->right);
  EXPECT_EQ(copies[0]->right, copies[3]->left);
  EXPECT_EQ(copies[1]->right, copies[2]->left);
  for (const PlanNode* copy : Distinct(copies)) {
    EXPECT_EQ(Distinct(roots).count(copy), 0u);
  }
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_TRUE(PlansEqual(copies[i], roots[i]));
    EXPECT_EQ(PlanHash(copies[i]), PlanHash(roots[i]));
  }
  // A root already copied through this walker costs nothing more.
  EXPECT_EQ(CopyPlanDag(roots[2], &target, &copied), copies[2]);
  EXPECT_EQ(target.allocated_bytes(), distinct * sizeof(PlanNode));
}

TEST_F(PlanDagWalkerTest, VisitsEachDistinctNodeOnceChildrenFirst) {
  const PlanNode* shared = Join(Scan(0), Scan(1));
  const std::vector<const PlanNode*> roots = {Join(shared, Scan(2)),
                                              Join(Scan(3), shared)};
  std::vector<const PlanNode*> order;
  PlanDagWalker<int> index(roots.size());
  const auto post_order = [&order](const PlanNode* node, auto&& walk) {
    const int left = walk(node->left);
    const int right = walk(node->right);
    if (node->left != nullptr) {
      EXPECT_LT(left, static_cast<int>(order.size()));
      EXPECT_LT(right, static_cast<int>(order.size()));
    }
    order.push_back(node);
    return static_cast<int>(order.size()) - 1;
  };
  EXPECT_EQ(index.Walk(roots[0], post_order), 4);
  EXPECT_EQ(index.Walk(roots[1], post_order), 6);
  EXPECT_EQ(order.size(), Distinct(roots).size());
  EXPECT_EQ(std::set<const PlanNode*>(order.begin(), order.end()).size(),
            order.size());
  EXPECT_EQ(order[2], shared);
}

TEST_F(PlanDagWalkerTest, RemapUnderNonMonotoneMapMatchesMembersRemap) {
  const PlanNode* shared = Join(Scan(0), Scan(2));
  const std::vector<const PlanNode*> roots = {
      Join(shared, Join(Scan(1), Scan(3))), Join(Scan(3), shared)};
  // Reverses some ranks and interleaves others: bit order is not kept.
  const std::vector<int> table_map = {7, 0, 63, 5};
  Arena target;
  PlanDagWalker<const PlanNode*> copied(roots.size());
  for (const PlanNode* root : roots) {
    const PlanNode* copy =
        CopyPlanDag(root, &target, &copied, table_map.data());
    ExpectMembersRemap(root, copy, table_map);
  }
  EXPECT_EQ(CopyPlanDag(roots[0], &target, &copied, table_map.data())->tables,
            TableSet((uint64_t{1} << 63) | (1 << 7) | (1 << 5) | 1));
}

TEST_F(PlanDagWalkerTest, GrowsPastInitialReservation) {
  // One plan, a left-deep chain over 48 tables: 95 distinct nodes, far
  // beyond the kNodesPerPlan budget of a one-plan walker.
  const PlanNode* chain = Scan(0);
  for (int t = 1; t < 48; ++t) chain = Join(chain, Scan(t));
  const size_t distinct = Distinct({chain}).size();
  ASSERT_GT(distinct, 4 * PlanDagWalker<const PlanNode*>::kNodesPerPlan);

  Arena target;
  PlanDagWalker<const PlanNode*> copied(1);
  const PlanNode* copy = CopyPlanDag(chain, &target, &copied);
  EXPECT_EQ(copied.size(), distinct);
  EXPECT_EQ(target.allocated_bytes(), distinct * sizeof(PlanNode));
  EXPECT_TRUE(PlansEqual(copy, chain));
  EXPECT_EQ(PlanHash(copy), PlanHash(chain));
  // Every node is still found after the rehashes.
  EXPECT_EQ(CopyPlanDag(chain->left, &target, &copied), copy->left);
  EXPECT_EQ(target.allocated_bytes(), distinct * sizeof(PlanNode));
}

TEST_F(PlanDagWalkerTest, NullRootAndSingleScan) {
  Arena target;
  PlanDagWalker<const PlanNode*> copied(0);
  EXPECT_EQ(CopyPlanDag(nullptr, &target, &copied), nullptr);
  EXPECT_EQ(copied.size(), 0u);
  EXPECT_EQ(target.allocated_bytes(), 0u);

  const PlanNode* scan = Scan(5);
  const int table_map[6] = {0, 0, 0, 0, 0, 2};
  const PlanNode* copy = CopyPlanDag(scan, &target, &copied, table_map);
  EXPECT_EQ(copied.size(), 1u);
  EXPECT_EQ(target.allocated_bytes(), sizeof(PlanNode));
  EXPECT_EQ(copy->table, 2);
  EXPECT_EQ(copy->tables, TableSet::Singleton(2));
  EXPECT_EQ(copy->left, nullptr);
  EXPECT_EQ(copy->right, nullptr);

  // Clear forgets the visit: the next walk copies afresh.
  copied.Clear();
  EXPECT_EQ(copied.size(), 0u);
  EXPECT_NE(CopyPlanDag(scan, &target, &copied), copy);
}

}  // namespace
}  // namespace moqo
