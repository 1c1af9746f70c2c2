// Tests for the DP engine: memo structure, split enumeration, the
// Cartesian-product heuristic, and quick/timeout modes.

#include "core/dp_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "harness/workload.h"
#include "query/tpch_queries.h"
#include "testing/test_helpers.h"
#include "util/byte_codec.h"
#include "util/random.h"

namespace moqo {
namespace {

class DpDriverTest : public ::testing::Test {
 protected:
  DpDriverTest()
      : catalog_(testing::MakeTinyCatalog()),
        registry_(testing::SmallOperatorSpace()) {}

  Catalog catalog_;
  OperatorRegistry registry_;
  Arena arena_;
};

TEST_F(DpDriverTest, BuildsEntriesForConnectedSubsetsOnly) {
  // Star query: fact(0)-dim1(1), fact-dim2(2). {dim1,dim2} is disconnected.
  Query query = testing::MakeStarQuery(&catalog_, 2);
  CostModel model(&query, &registry_,
                  ObjectiveSet({Objective::kTotalTime, Objective::kEnergy}));
  DPPlanGenerator generator(&model, &registry_, &arena_);
  DPOptions options;
  const ParetoSet& result = generator.Run(query, options);
  EXPECT_FALSE(result.empty());
  EXPECT_FALSE(generator.SetFor(TableSet::Singleton(0)).empty());
  EXPECT_FALSE(
      generator.SetFor(TableSet::Singleton(0).With(1)).empty());
  // Disconnected subset skipped entirely.
  EXPECT_TRUE(generator.SetFor(TableSet::Singleton(1).With(2)).empty());
}

TEST_F(DpDriverTest, DisconnectedQueryStillOptimizable) {
  // Query with NO join predicate: only Cartesian products are possible, so
  // the heuristic must fall back to product splits.
  Query query(&catalog_, "cross");
  query.AddTable("dim1");
  query.AddTable("dim2");
  CostModel model(&query, &registry_, ObjectiveSet::Only(Objective::kTotalTime));
  DPPlanGenerator generator(&model, &registry_, &arena_);
  DPOptions options;
  const ParetoSet& result = generator.Run(query, options);
  ASSERT_FALSE(result.empty());
  EXPECT_EQ(result.at(0)->tables, query.AllTables());
}

TEST_F(DpDriverTest, StatsCountConsideredAndInserted) {
  Query query = testing::MakeStarQuery(&catalog_, 2);
  CostModel model(&query, &registry_, ObjectiveSet::Only(Objective::kTotalTime));
  DPPlanGenerator generator(&model, &registry_, &arena_);
  DPOptions options;
  generator.Run(query, options);
  const DPStats& stats = generator.stats();
  EXPECT_GT(stats.considered_plans, 0);
  EXPECT_GT(stats.inserted_plans, 0);
  EXPECT_LE(stats.inserted_plans, stats.considered_plans);
  EXPECT_FALSE(stats.timed_out);
  EXPECT_EQ(stats.last_complete_set, query.AllTables());
  EXPECT_EQ(stats.last_complete_pareto_count, 1);  // Single objective.
}

TEST_F(DpDriverTest, ApproximatePruningStoresFewerPlans) {
  Query query = testing::MakeStarQuery(&catalog_, 3);
  CostModel model(&query, &registry_, ObjectiveSet::All());
  DPOptions exact;
  Arena arena1;
  DPPlanGenerator exact_gen(&model, &registry_, &arena1);
  const int exact_size = exact_gen.Run(query, exact).size();

  DPOptions approx;
  approx.alpha = RTAInternalPrecision(2.0, query.num_tables());
  Arena arena2;
  DPPlanGenerator approx_gen(&model, &registry_, &arena2);
  const int approx_size = approx_gen.Run(query, approx).size();

  EXPECT_LE(approx_size, exact_size);
  EXPECT_GT(approx_size, 0);
  EXPECT_LE(approx_gen.stats().considered_plans,
            exact_gen.stats().considered_plans);
}

TEST_F(DpDriverTest, SinglePlanModeKeepsOnePlanPerSet) {
  Query query = testing::MakeStarQuery(&catalog_, 3);
  CostModel model(&query, &registry_, ObjectiveSet::All());
  DPPlanGenerator generator(&model, &registry_, &arena_);
  DPOptions options;
  options.single_plan_mode = true;
  options.quick_mode_weights = WeightVector::Uniform(kNumObjectives);
  const ParetoSet& result = generator.Run(query, options);
  EXPECT_EQ(result.size(), 1);
  EXPECT_EQ(generator.SetFor(TableSet::Singleton(0)).size(), 1);
}

TEST_F(DpDriverTest, MemoryBytesGrowWithWork) {
  Query small_query = testing::MakeStarQuery(&catalog_, 1);
  Query big_query = testing::MakeStarQuery(&catalog_, 3);
  CostModel small_model(&small_query, &registry_, ObjectiveSet::All());
  CostModel big_model(&big_query, &registry_, ObjectiveSet::All());
  Arena arena1, arena2;
  DPPlanGenerator small_gen(&small_model, &registry_, &arena1);
  DPPlanGenerator big_gen(&big_model, &registry_, &arena2);
  DPOptions options;
  small_gen.Run(small_query, options);
  big_gen.Run(big_query, options);
  EXPECT_GT(big_gen.MemoryBytes(), small_gen.MemoryBytes());
}

TEST_F(DpDriverTest, SplitEnumerationPrefersConnectedSplits) {
  Query query = testing::MakeStarQuery(&catalog_, 2);
  CostModel model(&query, &registry_, ObjectiveSet::Only(Objective::kTotalTime));
  DPPlanGenerator generator(&model, &registry_, &arena_);
  // With the heuristic on, the full set {0,1,2} must never be built from
  // the Cartesian split ({1,2} | {0}) — {1,2} has no plans anyway — and the
  // result must use predicate-connected joins.
  DPOptions options;
  const ParetoSet& result = generator.Run(query, options);
  ASSERT_FALSE(result.empty());
  const PlanNode* plan = result.at(0);
  // Both joins in the plan connect fact with a dimension.
  EXPECT_TRUE(plan->left->tables.Contains(0) ||
              plan->right->tables.Contains(0));
}


// ---------------------------------------------------------------------------
// Rejection corners must not change what the DP builds. The reference is
// the candidate loop without corners, written against the public
// CostModel / ParetoSet API: every (split, left plan, right plan, config)
// candidate is priced by JoinNode and offered to WouldInsert. Each table
// set is rebuilt from the engine's own sealed operand sets and compared
// bit for bit (order, PlanHash, cost bits), and the run's considered and
// inserted counters must equal the reference's.

/// Storage-order bytes of a sealed frontier: per plan its PlanHash and the
/// bits of every cost component.
std::string FrontierBytes(const ParetoSet& set) {
  std::string bytes;
  PutU32(&bytes, static_cast<uint32_t>(set.size()));
  for (int i = 0; i < set.size(); ++i) {
    PutU64(&bytes, PlanHash(set.at(i)));
    const CostVector cost = set.cost_at(i);
    for (int d = 0; d < cost.size(); ++d) PutF64(&bytes, cost[d]);
  }
  return bytes;
}

struct ReferenceCounts {
  long considered = 0;
  long inserted = 0;
  long skipped = 0;  ///< The engine's corner_skipped_plans.
};

/// Runs the DP on one problem and checks every table set against the
/// reference loop; accumulates both sides' counters into `counts`.
void ExpectCornerSkipMatchesReference(const Query& query,
                                      const ObjectiveSet& objectives,
                                      const OperatorRegistry& registry,
                                      double alpha, bool aggressive_delete,
                                      ReferenceCounts* counts) {
  const std::string label = query.name() + " objectives=" +
                            std::to_string(objectives.size()) +
                            " alpha=" + std::to_string(alpha);
  const CostModel model(&query, &registry, objectives);
  Arena arena;
  DPPlanGenerator generator(&model, &registry, &arena);
  DPOptions options;
  options.alpha = alpha;
  options.aggressive_delete = aggressive_delete;
  generator.Run(query, options);
  ASSERT_FALSE(generator.stats().timed_out) << label;

  const ParetoSet::PruneOptions prune{alpha, aggressive_delete};
  Arena reference_arena;
  long considered = 0;
  long inserted = 0;
  const TableSet all = query.AllTables();
  const bool skip_disconnected = query.JoinGraphConnected();
  for (uint64_t mask = 1; mask <= all.mask(); ++mask) {
    const TableSet tables(mask);
    if (!all.ContainsAll(tables)) continue;
    ParetoSet reference;
    if (tables.Cardinality() == 1) {
      const int table = std::countr_zero(mask);
      for (int config : registry.scan_configs()) {
        if (!model.ScanApplicable(config, table)) continue;
        const PlanNode scan = model.ScanNode(config, table);
        ++considered;
        if (reference.WouldInsert(scan.cost, prune)) {
          reference.InsertAccepted(reference_arena.New<PlanNode>(scan),
                                   prune);
          ++inserted;
        }
      }
    } else if (skip_disconnected && !query.InducedSubgraphConnected(tables)) {
      EXPECT_TRUE(generator.SetFor(tables).empty()) << label;
      continue;
    } else {
      // Ordered splits; predicate-connected ones only, unless none exists
      // (the Cartesian-product heuristic).
      std::vector<std::pair<TableSet, CostModel::SplitInfo>> connected;
      std::vector<std::pair<TableSet, CostModel::SplitInfo>> every;
      for (SubsetIterator it(tables); !it.Done(); it.Next()) {
        const CostModel::SplitInfo info =
            model.AnalyzeSplit(it.Current(), it.Complement());
        if (info.has_predicate) connected.emplace_back(it.Current(), info);
        every.emplace_back(it.Current(), info);
      }
      for (const auto& [left_set, info] :
           connected.empty() ? every : connected) {
        const ParetoSet& lefts = generator.SetFor(left_set);
        const ParetoSet& rights = generator.SetFor(tables.Minus(left_set));
        for (int li = 0; li < lefts.size(); ++li) {
          for (int ri = 0; ri < rights.size(); ++ri) {
            for (int config : registry.join_configs()) {
              if (!model.JoinApplicableFast(registry.config(config), info)) {
                continue;
              }
              const PlanNode join =
                  model.JoinNode(config, lefts.at(li), rights.at(ri), info);
              ++considered;
              if (reference.WouldInsert(join.cost, prune)) {
                reference.InsertAccepted(
                    reference_arena.New<PlanNode>(join), prune);
                ++inserted;
              }
            }
          }
        }
      }
    }
    reference.Seal();
    ASSERT_TRUE(FrontierBytes(reference) ==
                FrontierBytes(generator.SetFor(tables)))
        << label << " table set " << mask;
  }
  EXPECT_EQ(generator.stats().considered_plans, considered) << label;
  EXPECT_EQ(generator.stats().inserted_plans, inserted) << label;
  EXPECT_LE(generator.stats().corner_skipped_plans, considered) << label;
  if (aggressive_delete) {
    EXPECT_EQ(generator.stats().corner_skipped_plans, 0) << label;
  }
  counts->considered += considered;
  counts->inserted += inserted;
  counts->skipped += generator.stats().corner_skipped_plans;
}

/// Seeded objective selection: a random subset of `count` objectives in
/// random order.
ObjectiveSet RandomObjectives(Xoshiro256* rng, int count) {
  std::vector<Objective> objectives(kAllObjectives.begin(),
                                    kAllObjectives.end());
  for (int i = kNumObjectives - 1; i > 0; --i) {
    std::swap(objectives[i], objectives[rng->NextInt(0, i)]);
  }
  objectives.resize(count);
  return ObjectiveSet(objectives);
}

TEST_F(DpDriverTest, CornerSkipMatchesReferenceLoop) {
  const Catalog tpch = Catalog::TpcH(0.01);
  OperatorRegistry::Options operators;
  operators.sampling_rates = {0.05, 0.01};
  operators.dops = {1, 4};
  const OperatorRegistry registry(operators);
  ReferenceCounts counts;
  Xoshiro256 rng(18);
  for (int query_number : {2, 3, 5, 10}) {
    const Query query = MakeTpcHQuery(&tpch, query_number);
    const int n = query.num_tables();
    for (int round = 0; round < 3; ++round) {
      // Many objectives at RTA precision, fewer at EXA, so every run
      // stays small.
      const ObjectiveSet rta_objectives =
          RandomObjectives(&rng, rng.NextInt(1, kNumObjectives));
      ExpectCornerSkipMatchesReference(query, rta_objectives, registry,
                                       RTAInternalPrecision(1.5, n), false,
                                       &counts);
      const ObjectiveSet exa_objectives =
          RandomObjectives(&rng, rng.NextInt(1, n >= 6 ? 4 : 6));
      ExpectCornerSkipMatchesReference(query, exa_objectives, registry, 1.0,
                                       false, &counts);
    }
  }

  SharedSubgraphOptions windows;
  windows.num_queries = 3;
  windows.tables_per_query = 5;
  windows.stride = 2;
  const Catalog chain = MakeSharedSubgraphCatalog(windows);
  for (const ProblemSpec& spec : BuildSharedSubgraphSpecs(&chain, windows)) {
    const ObjectiveSet objectives =
        RandomObjectives(&rng, rng.NextInt(3, kNumObjectives));
    for (double alpha : {1.0, RTAInternalPrecision(1.5, 5)}) {
      ExpectCornerSkipMatchesReference(*spec.query, objectives, registry,
                                       alpha, false, &counts);
    }
  }
  // The ablation's deletion rule runs without corners.
  const Query q3 = MakeTpcHQuery(&tpch, 3);
  ExpectCornerSkipMatchesReference(q3, RandomObjectives(&rng, 6), registry,
                                   RTAInternalPrecision(1.5, 3), true,
                                   &counts);
  // Corners did skip a real share of the candidates.
  EXPECT_GT(counts.skipped, counts.considered / 4);
}

}  // namespace
}  // namespace moqo
