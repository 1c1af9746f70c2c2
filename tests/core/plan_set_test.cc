// Copyright (c) 2026 moqo authors. MIT license.
//
// PlanSet: snapshot semantics (ownership, DAG sharing) and the SelectPlan
// scalarization, cross-checked against ParetoSet::SelectBest.

#include "core/plan_set.h"

#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/dp_driver.h"
#include "core/exa.h"
#include "query/tpch_queries.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace {

/// Builds a tiny 2-D frontier of synthetic scan plans with the given cost
/// vectors inside `arena`.
ParetoSet BuildSet(Arena* arena,
                   const std::vector<std::pair<double, double>>& costs) {
  ParetoSet set;
  int table = 0;
  for (const auto& [a, b] : costs) {
    PlanNode* plan = arena->New<PlanNode>();
    plan->table = table++;
    plan->cost = CostVector(2);
    plan->cost[0] = a;
    plan->cost[1] = b;
    set.Prune(plan);
  }
  set.Seal();
  return set;
}

TEST(PlanSetTest, SnapshotsCostsAndPlans) {
  Arena arena;
  ParetoSet source = BuildSet(&arena, {{1, 4}, {2, 2}, {4, 1}});
  std::shared_ptr<const PlanSet> set = PlanSet::FromParetoSet(source);
  ASSERT_EQ(set->size(), 3);
  EXPECT_FALSE(set->empty());
  for (int i = 0; i < set->size(); ++i) {
    ASSERT_NE(set->plan(i), nullptr);
    EXPECT_EQ(set->plan(i)->cost, set->cost(i));
    EXPECT_EQ(set->cost(i), source.cost_at(i));
  }
  EXPECT_EQ(set->costs(), source.Frontier());
}

TEST(PlanSetTest, OutlivesSourceArena) {
  std::shared_ptr<const PlanSet> set;
  {
    Arena arena;
    ParetoSet source = BuildSet(&arena, {{1, 2}, {2, 1}});
    set = PlanSet::FromParetoSet(source);
  }  // Source arena and set destroyed; the snapshot owns its plans.
  ASSERT_EQ(set->size(), 2);
  EXPECT_EQ(set->plan(0)->cost[0], 1.0);
  EXPECT_EQ(set->plan(1)->cost[1], 1.0);
}

TEST(PlanSetTest, EmptySetSharedSingleton) {
  ParetoSet empty;
  std::shared_ptr<const PlanSet> a = PlanSet::FromParetoSet(empty);
  std::shared_ptr<const PlanSet> b = PlanSet::Empty();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_TRUE(a->empty());
  const PlanSelection selection =
      SelectPlan(*a, WeightVector::Uniform(2));
  EXPECT_EQ(selection.plan, nullptr);
  EXPECT_EQ(selection.index, -1);
}

TEST(PlanSetTest, DeepCopyPreservesDagSharing) {
  // Two frontier plans joining the same sub-plan: the copy must reference
  // one shared copy of the sub-plan, not two clones.
  Arena arena;
  PlanNode* shared_scan = arena.New<PlanNode>();
  shared_scan->table = 0;
  shared_scan->cost = CostVector(2);

  ParetoSet source;
  for (int i = 0; i < 2; ++i) {
    PlanNode* other = arena.New<PlanNode>();
    other->table = 1 + i;
    other->cost = CostVector(2);
    PlanNode* join = arena.New<PlanNode>();
    join->left = shared_scan;
    join->right = other;
    join->cost = CostVector(2);
    join->cost[0] = i == 0 ? 1 : 3;
    join->cost[1] = i == 0 ? 3 : 1;
    source.Prune(join);
  }
  source.Seal();
  ASSERT_EQ(source.size(), 2);

  std::shared_ptr<const PlanSet> set = PlanSet::FromParetoSet(source);
  ASSERT_EQ(set->size(), 2);
  EXPECT_NE(set->plan(0), source.at(0));  // Actually copied...
  EXPECT_EQ(set->plan(0)->left, set->plan(1)->left);  // ...sharing intact.
}

TEST(PlanSetTest, SelectPlanMatchesParetoSetSelectBest) {
  Catalog catalog = testing::MakeTinyCatalog();
  Query query = testing::MakeStarQuery(&catalog, 3);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = ObjectiveSet(
      {Objective::kTotalTime, Objective::kBufferFootprint,
       Objective::kTupleLoss});
  problem.weights = WeightVector::Uniform(3);
  OptimizerResult result =
      ExactMOQO(testing::SmallOptions()).Optimize(problem);
  ASSERT_GE(result.frontier_size(), 1);

  Xoshiro256 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    WeightVector weights(3);
    for (int i = 0; i < 3; ++i) weights[i] = rng.NextDouble();
    BoundVector bounds = BoundVector::Unbounded(3);
    if (trial % 2 == 1) {
      // Bound one dimension at a random frontier plan's cost.
      const int anchor = static_cast<int>(
          rng.NextInt(static_cast<uint64_t>(result.frontier_size())));
      bounds[trial % 3] = result.plan_set->cost(anchor)[trial % 3];
    }
    const PlanSelection selection =
        SelectPlan(*result.plan_set, weights, bounds);
    ASSERT_NE(selection.plan, nullptr);
    // Reference: brute-force over the same frontier with SelectBest
    // semantics (bounded min weighted cost, else global min).
    double best_bounded = -1, best_any = -1;
    for (int i = 0; i < result.plan_set->size(); ++i) {
      const double weighted =
          weights.WeightedCost(result.plan_set->cost(i));
      if (best_any < 0 || weighted < best_any) best_any = weighted;
      if (bounds.Respects(result.plan_set->cost(i)) &&
          (best_bounded < 0 || weighted < best_bounded)) {
        best_bounded = weighted;
      }
    }
    const double expected = best_bounded >= 0 ? best_bounded : best_any;
    EXPECT_DOUBLE_EQ(selection.weighted_cost, expected) << "trial " << trial;
    EXPECT_EQ(selection.weighted_cost,
              weights.WeightedCost(selection.cost));
    EXPECT_EQ(selection.plan, result.plan_set->plan(selection.index));
  }
}

TEST(PlanSetTest, CompactPlanSetCoversDroppedPlans) {
  // A dense 2-D frontier; after compaction with slack 0.25, every original
  // plan must be (1.25)-approximately dominated by a kept plan — the
  // epsilon-coverage property the cache relies on.
  Arena arena;
  std::vector<std::pair<double, double>> costs;
  for (int i = 0; i <= 40; ++i) {
    costs.push_back({10.0 + i, 50.0 - i});
  }
  ParetoSet source = BuildSet(&arena, costs);
  std::shared_ptr<const PlanSet> full = PlanSet::FromParetoSet(source);
  ASSERT_EQ(full->size(), 41);

  const double epsilon = 0.25;
  std::shared_ptr<const PlanSet> compact =
      CompactPlanSet(full, epsilon, /*max_size=*/0);
  ASSERT_NE(compact, nullptr);
  EXPECT_LT(compact->size(), full->size());
  for (int i = 0; i < full->size(); ++i) {
    bool covered = false;
    for (int k = 0; k < compact->size(); ++k) {
      if (ApproxDominates(compact->cost(k), full->cost(i), 1.0 + epsilon)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "plan " << i << " uncovered";
  }
  // The compacted set owns its plans: costs stay index-aligned.
  for (int k = 0; k < compact->size(); ++k) {
    ASSERT_NE(compact->plan(k), nullptr);
    EXPECT_EQ(compact->plan(k)->cost, compact->cost(k));
  }
}

TEST(PlanSetTest, CompactPlanSetHonorsMaxSize) {
  Arena arena;
  std::vector<std::pair<double, double>> costs;
  for (int i = 0; i <= 60; ++i) {
    costs.push_back({10.0 + i, 80.0 - i});
  }
  std::shared_ptr<const PlanSet> full =
      PlanSet::FromParetoSet(BuildSet(&arena, costs));
  std::shared_ptr<const PlanSet> compact =
      CompactPlanSet(full, 0.01, /*max_size=*/5);
  ASSERT_NE(compact, nullptr);
  EXPECT_LE(compact->size(), 5);
  EXPECT_GE(compact->size(), 1);
}

TEST(PlanSetTest, CompactPlanSetNoopWhenNothingDropped) {
  Arena arena;
  std::shared_ptr<const PlanSet> full =
      PlanSet::FromParetoSet(BuildSet(&arena, {{1, 9}, {9, 1}}));
  // Widely separated plans: slack 0.01 covers nothing, so the same object
  // comes back (no deep copy).
  std::shared_ptr<const PlanSet> compact = CompactPlanSet(full, 0.01, 0);
  EXPECT_EQ(compact.get(), full.get());
}

TEST(PlanSetTest, SelectPlanEmptyBoundsEqualsUnbounded) {
  Arena arena;
  ParetoSet source = BuildSet(&arena, {{1, 9}, {9, 1}});
  std::shared_ptr<const PlanSet> set = PlanSet::FromParetoSet(source);
  WeightVector weights(2);
  weights[0] = 1.0;
  weights[1] = 0.1;
  const PlanSelection no_bounds = SelectPlan(*set, weights);
  const PlanSelection unbounded =
      SelectPlan(*set, weights, BoundVector::Unbounded(2));
  EXPECT_EQ(no_bounds.plan, unbounded.plan);
  EXPECT_EQ(no_bounds.weighted_cost, unbounded.weighted_cost);
}

// Snapshot copies through the flat DAG walker (plan/plan_dag.h), on the
// real DAG a DP leaves behind: frontier plans of TPC-H Q3's final set
// share most of their sub-plans.
class PlanSetCopyTest : public ::testing::Test {
 protected:
  PlanSetCopyTest()
      : catalog_(Catalog::TpcH(0.01)),
        query_(MakeTpcHQuery(&catalog_, 3)),
        registry_(testing::SmallOperatorSpace()),
        model_(&query_, &registry_,
               ObjectiveSet({Objective::kTotalTime,
                             Objective::kBufferFootprint,
                             Objective::kTupleLoss})),
        generator_(&model_, &registry_, &arena_) {
    DPOptions options;
    options.alpha = 1.05;
    generator_.Run(query_, options);
  }

  const ParetoSet& Final() const {
    return generator_.SetFor(query_.AllTables());
  }

  /// Walks `sources` and `copies` in lockstep and checks that the copy is
  /// a bijection on distinct nodes: every source node has exactly one
  /// copy, shared by pointer wherever the source shares it.
  static void ExpectIsomorphicDag(const std::vector<const PlanNode*>& sources,
                                  const std::vector<const PlanNode*>& copies) {
    ASSERT_EQ(sources.size(), copies.size());
    std::map<const PlanNode*, const PlanNode*> copy_of, source_of;
    std::vector<std::pair<const PlanNode*, const PlanNode*>> stack;
    for (size_t i = 0; i < sources.size(); ++i) {
      stack.emplace_back(sources[i], copies[i]);
    }
    while (!stack.empty()) {
      const auto [source, copy] = stack.back();
      stack.pop_back();
      ASSERT_EQ(source == nullptr, copy == nullptr);
      if (source == nullptr) continue;
      EXPECT_NE(source, copy);
      const auto [it, fresh] = copy_of.emplace(source, copy);
      EXPECT_EQ(it->second, copy);
      EXPECT_EQ(source_of.emplace(copy, source).first->second, source);
      if (!fresh) continue;
      stack.emplace_back(source->left, copy->left);
      stack.emplace_back(source->right, copy->right);
    }
    EXPECT_EQ(copy_of.size(), source_of.size());
  }

  static std::vector<const PlanNode*> Plans(const PlanSet& set) {
    std::vector<const PlanNode*> plans;
    for (int i = 0; i < set.size(); ++i) plans.push_back(set.plan(i));
    return plans;
  }

  Catalog catalog_;
  Query query_;
  OperatorRegistry registry_;
  CostModel model_;
  Arena arena_;
  DPPlanGenerator generator_;
};

TEST_F(PlanSetCopyTest, SnapshotCopiesEachDistinctNodeOnce) {
  const ParetoSet& final_set = Final();
  ASSERT_GT(final_set.size(), 1);
  std::shared_ptr<const PlanSet> set = PlanSet::FromParetoSet(final_set);
  ASSERT_EQ(set->size(), final_set.size());
  ExpectIsomorphicDag(final_set.plans(), Plans(*set));
  for (int i = 0; i < set->size(); ++i) {
    EXPECT_TRUE(PlansEqual(set->plan(i), final_set.at(i)));
    EXPECT_EQ(PlanHash(set->plan(i)), PlanHash(final_set.at(i)));
    EXPECT_EQ(set->cost(i), final_set.at(i)->cost);
  }
}

TEST_F(PlanSetCopyTest, RemappedSnapshotMatchesMembersRemap) {
  const ParetoSet& final_set = Final();
  // Non-monotone: reverses the query's table order, then shifts it up.
  std::vector<int> table_map(query_.num_tables());
  for (int t = 0; t < query_.num_tables(); ++t) {
    table_map[t] = 10 + query_.num_tables() - 1 - t;
  }
  std::shared_ptr<const PlanSet> set =
      PlanSet::FromParetoSetRemapped(final_set, table_map.data());
  ASSERT_EQ(set->size(), final_set.size());
  ExpectIsomorphicDag(final_set.plans(), Plans(*set));
  // Reference: the Members()-based renumbering, node by node.
  std::vector<std::pair<const PlanNode*, const PlanNode*>> stack;
  for (int i = 0; i < set->size(); ++i) {
    stack.emplace_back(final_set.at(i), set->plan(i));
    EXPECT_EQ(set->cost(i), final_set.at(i)->cost);
  }
  while (!stack.empty()) {
    const auto [source, copy] = stack.back();
    stack.pop_back();
    if (source == nullptr) continue;
    TableSet expected;
    for (int table : source->tables.Members()) {
      expected = expected.With(table_map[table]);
    }
    EXPECT_EQ(copy->tables, expected);
    EXPECT_EQ(copy->table,
              source->table >= 0 ? table_map[source->table] : -1);
    stack.emplace_back(source->left, copy->left);
    stack.emplace_back(source->right, copy->right);
  }
}

TEST(PlanSetTest, SnapshotGrowsPastInitialReservation) {
  // Two plans, each a left-deep chain over its own 30 scans: 118 distinct
  // nodes for a walker budgeted at kNodesPerPlan per plan.
  Arena arena;
  ParetoSet source;
  for (int p = 0; p < 2; ++p) {
    const PlanNode* chain = nullptr;
    for (int t = 0; t < 30; ++t) {
      PlanNode* scan = arena.New<PlanNode>();
      scan->table = t;
      scan->tables = TableSet::Singleton(t);
      scan->cost = CostVector(2, 1.0);
      if (chain == nullptr) {
        chain = scan;
        continue;
      }
      PlanNode* join = arena.New<PlanNode>();
      join->left = chain;
      join->right = scan;
      join->tables = chain->tables.Union(scan->tables);
      join->cost = CostVector(2);
      join->cost[0] = p == 0 ? 1 : 2;
      join->cost[1] = p == 0 ? 2 : 1;
      chain = join;
    }
    source.Prune(chain);
  }
  source.Seal();
  ASSERT_EQ(source.size(), 2);

  std::shared_ptr<const PlanSet> set = PlanSet::FromParetoSet(source);
  ASSERT_EQ(set->size(), 2);
  std::set<const PlanNode*> copies;
  std::vector<const PlanNode*> stack = {set->plan(0), set->plan(1)};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (node == nullptr || !copies.insert(node).second) continue;
    stack.push_back(node->left);
    stack.push_back(node->right);
  }
  EXPECT_EQ(copies.size(), 118u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(PlansEqual(set->plan(i), source.at(i)));
    EXPECT_EQ(PlanHash(set->plan(i)), PlanHash(source.at(i)));
  }
}

TEST(PlanSetTest, EmptyAndSingleScanCopies) {
  Arena arena;
  ParetoSet source = BuildSet(&arena, {{3, 4}});
  std::shared_ptr<const PlanSet> set = PlanSet::FromParetoSet(source);
  EXPECT_EQ(PlanSet::FromIndices(*set, {}).get(), PlanSet::Empty().get());
  EXPECT_EQ(PlanSet::FromParetoSetRemapped(ParetoSet(), nullptr).get(),
            PlanSet::Empty().get());

  ASSERT_EQ(set->size(), 1);
  EXPECT_NE(set->plan(0), source.at(0));
  EXPECT_EQ(set->plan(0)->left, nullptr);
  EXPECT_EQ(set->plan(0)->right, nullptr);
  EXPECT_TRUE(PlansEqual(set->plan(0), source.at(0)));
  EXPECT_EQ(set->cost(0), source.cost_at(0));

  const int table_map[1] = {9};
  std::shared_ptr<const PlanSet> remapped =
      PlanSet::FromParetoSetRemapped(source, table_map);
  ASSERT_EQ(remapped->size(), 1);
  EXPECT_EQ(remapped->plan(0)->table, 9);
  EXPECT_EQ(remapped->cost(0), source.cost_at(0));

  std::shared_ptr<const PlanSet> single = PlanSet::FromIndices(*set, {0});
  ASSERT_EQ(single->size(), 1);
  EXPECT_NE(single->plan(0), set->plan(0));
  EXPECT_TRUE(PlansEqual(single->plan(0), set->plan(0)));
}

TEST_F(PlanSetCopyTest, FromIndicesAndCompactCopiesEqualSources) {
  std::shared_ptr<const PlanSet> full = PlanSet::FromParetoSet(Final());
  ASSERT_GE(full->size(), 3);
  // Out of stored order: copies follow `indices`, sharing intact.
  const std::vector<int> indices = {full->size() - 1, 0, full->size() / 2};
  std::shared_ptr<const PlanSet> picked = PlanSet::FromIndices(*full, indices);
  ASSERT_EQ(picked->size(), 3);
  std::vector<const PlanNode*> sources;
  for (size_t k = 0; k < indices.size(); ++k) {
    const PlanNode* source = full->plan(indices[k]);
    sources.push_back(source);
    EXPECT_TRUE(PlansEqual(picked->plan(k), source));
    EXPECT_EQ(PlanHash(picked->plan(k)), PlanHash(source));
    EXPECT_EQ(picked->cost(k), full->cost(indices[k]));
  }
  ExpectIsomorphicDag(sources, Plans(*picked));

  std::shared_ptr<const PlanSet> compact = CompactPlanSet(full, 0.5, 0);
  ASSERT_LT(compact->size(), full->size());
  ASSERT_GE(compact->size(), 1);
  // The greedy cover keeps plans in stored order: match each kept plan to
  // the next source plan with the same cost bits.
  int next = 0;
  for (int k = 0; k < compact->size(); ++k) {
    while (next < full->size() && !(full->cost(next) == compact->cost(k))) {
      ++next;
    }
    ASSERT_LT(next, full->size()) << "kept plan " << k;
    EXPECT_TRUE(PlansEqual(compact->plan(k), full->plan(next)));
    EXPECT_EQ(PlanHash(compact->plan(k)), PlanHash(full->plan(next)));
    ++next;
  }
}

}  // namespace
}  // namespace moqo
