// Tests for cardinality estimation and per-operator cost behaviour.

#include "model/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/dp_driver.h"
#include "query/tpch_queries.h"
#include "testing/test_helpers.h"
#include "util/random.h"

namespace moqo {
namespace {

class CardinalityTest : public ::testing::Test {
 protected:
  CardinalityTest()
      : catalog_(testing::MakeTinyCatalog()),
        query_(testing::MakeStarQuery(&catalog_, 2)),
        estimator_(&query_) {}

  Catalog catalog_;
  Query query_;
  CardinalityEstimator estimator_;
};

TEST_F(CardinalityTest, ScanWithoutFiltersReturnsTableSize) {
  EXPECT_DOUBLE_EQ(estimator_.ScanOutputRows(0, 1.0), 10000);
  EXPECT_DOUBLE_EQ(estimator_.ScanOutputRows(1, 1.0), 100);
}

TEST_F(CardinalityTest, SamplingScalesLinearly) {
  EXPECT_DOUBLE_EQ(estimator_.ScanOutputRows(0, 0.05),
                   estimator_.ScanOutputRows(0, 1.0) * 0.05);
}

TEST_F(CardinalityTest, FilterSelectivityFromHistogram) {
  FilterPredicate f;
  f.table = 0;
  f.column = "f_value";
  f.op = FilterOp::kRange;
  f.value = 0;
  f.value_hi = 499.5;
  EXPECT_NEAR(estimator_.FilterSelectivity(f), 0.5, 0.01);
  query_.AddFilter(f);
  EXPECT_NEAR(estimator_.ScanOutputRows(0, 1.0), 5000, 100);
}

TEST_F(CardinalityTest, EquiJoinUsesMaxNdv) {
  // fact.f_d1 (ndv 100) = dim1.d1_key (ndv 100) -> selectivity 1/100.
  const double rows = estimator_.JoinOutputRows(
      TableSet::Singleton(0), 10000, TableSet::Singleton(1), 100);
  EXPECT_NEAR(rows, 10000 * 100 / 100.0, 1);
}

TEST_F(CardinalityTest, CartesianProductWithoutPredicate) {
  // dim1 x dim2 have no connecting predicate.
  const double rows = estimator_.JoinOutputRows(
      TableSet::Singleton(1), 100, TableSet::Singleton(2), 100);
  EXPECT_DOUBLE_EQ(rows, 10000);
}

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : catalog_(testing::MakeTinyCatalog()),
        query_(testing::MakeStarQuery(&catalog_, 2)),
        registry_(testing::SmallOperatorSpace()),
        model_(&query_, &registry_, ObjectiveSet::All()) {}

  int ScanConfig(OperatorType type, double rate) {
    for (int id : registry_.scan_configs()) {
      const OperatorConfig& c = registry_.config(id);
      if (c.type == type && c.sampling_rate == rate) return id;
    }
    return -1;
  }
  int JoinConfig(OperatorType type, int dop) {
    for (int id : registry_.join_configs()) {
      const OperatorConfig& c = registry_.config(id);
      if (c.type == type && c.dop == dop) return id;
    }
    return -1;
  }
  double Dim(const CostVector& c, Objective o) {
    return c[ObjectiveSet::All().IndexOf(o)];
  }

  Catalog catalog_;
  Query query_;
  OperatorRegistry registry_;
  CostModel model_;
  Arena arena_;
};

TEST_F(CostModelTest, ScanCostsAreValidAndPositive) {
  for (int id : registry_.scan_configs()) {
    if (!model_.ScanApplicable(id, 0)) continue;
    const PlanNode scan = model_.ScanNode(id, 0);
    EXPECT_TRUE(scan.cost.IsValid()) << registry_.config(id).ToString();
    EXPECT_GT(Dim(scan.cost, Objective::kTotalTime), 0);
    EXPECT_GE(Dim(scan.cost, Objective::kTupleLoss), 0);
    EXPECT_LE(Dim(scan.cost, Objective::kTupleLoss), 1);
  }
}

TEST_F(CostModelTest, SampledScanTradesLossForTime) {
  const PlanNode full =
      model_.ScanNode(ScanConfig(OperatorType::kSeqScan, 1.0), 0);
  const PlanNode sampled =
      model_.ScanNode(ScanConfig(OperatorType::kSeqScan, 0.05), 0);
  EXPECT_LT(Dim(sampled.cost, Objective::kTotalTime),
            Dim(full.cost, Objective::kTotalTime));
  EXPECT_DOUBLE_EQ(Dim(full.cost, Objective::kTupleLoss), 0.0);
  EXPECT_DOUBLE_EQ(Dim(sampled.cost, Objective::kTupleLoss), 0.95);
  EXPECT_LT(sampled.cardinality, full.cardinality);
}

TEST_F(CostModelTest, IndexScanRequiresIndex) {
  // fact has an index on f_d1 (join column) -> applicable.
  EXPECT_TRUE(
      model_.ScanApplicable(ScanConfig(OperatorType::kIndexScan, 1.0), 0));
  // A table occurrence with no indexed filter/join column is not:
  Query lone(&catalog_, "lone");
  lone.AddTable("fact");
  FilterPredicate f;
  f.table = 0;
  f.column = "f_value";  // Not indexed.
  f.op = FilterOp::kLess;
  f.value = 10;
  lone.AddFilter(f);
  CostModel lone_model(&lone, &registry_, ObjectiveSet::All());
  EXPECT_FALSE(lone_model.ScanApplicable(
      ScanConfig(OperatorType::kIndexScan, 1.0), 0));
  EXPECT_TRUE(lone_model.ScanApplicable(
      ScanConfig(OperatorType::kSeqScan, 1.0), 0));
}

TEST_F(CostModelTest, ParallelismTradesTimeForCoresAndEnergy) {
  const PlanNode* fact = model_.MakeScan(
      ScanConfig(OperatorType::kSeqScan, 1.0), 0, &arena_);
  const PlanNode* dim = model_.MakeScan(
      ScanConfig(OperatorType::kSeqScan, 1.0), 1, &arena_);
  const PlanNode serial = model_.JoinNode(
      JoinConfig(OperatorType::kHashJoin, 1), fact, dim);
  const PlanNode parallel = model_.JoinNode(
      JoinConfig(OperatorType::kHashJoin, 2), fact, dim);
  EXPECT_LT(Dim(parallel.cost, Objective::kCores) -
                Dim(serial.cost, Objective::kCores),
            3);
  EXPECT_GE(Dim(parallel.cost, Objective::kCores),
            Dim(serial.cost, Objective::kCores));
  // Parallel overhead: more total CPU work and energy.
  EXPECT_GT(Dim(parallel.cost, Objective::kCPULoad),
            Dim(serial.cost, Objective::kCPULoad));
  EXPECT_GT(Dim(parallel.cost, Objective::kEnergy),
            Dim(serial.cost, Objective::kEnergy));
}

TEST_F(CostModelTest, HashJoinHasWorseStartupThanIndexNL) {
  const PlanNode* fact = model_.MakeScan(
      ScanConfig(OperatorType::kSeqScan, 1.0), 0, &arena_);
  const PlanNode* dim = model_.MakeScan(
      ScanConfig(OperatorType::kSeqScan, 1.0), 1, &arena_);
  const PlanNode hash = model_.JoinNode(
      JoinConfig(OperatorType::kHashJoin, 1), fact, dim);
  const PlanNode idxnl = model_.JoinNode(
      JoinConfig(OperatorType::kIndexNLJoin, 1), fact, dim);
  // Pipelined IdxNL produces the first tuple long before hash join, whose
  // startup includes consuming the whole build side (Figure 3(c) driver).
  EXPECT_LT(Dim(idxnl.cost, Objective::kStartupTime),
            Dim(hash.cost, Objective::kStartupTime));
  // Hash join holds a hash table; IdxNL holds almost nothing (Fig. 3(b)).
  EXPECT_LT(Dim(idxnl.cost, Objective::kBufferFootprint),
            Dim(hash.cost, Objective::kBufferFootprint));
}

TEST_F(CostModelTest, TupleLossComposesViaLossFormula) {
  const PlanNode* fact = model_.MakeScan(
      ScanConfig(OperatorType::kSeqScan, 0.05), 0, &arena_);
  const PlanNode* dim = model_.MakeScan(
      ScanConfig(OperatorType::kSeqScan, 0.05), 1, &arena_);
  const PlanNode join = model_.JoinNode(
      JoinConfig(OperatorType::kHashJoin, 1), fact, dim);
  // 1 - (1-0.95)(1-0.95) = 0.9975.
  EXPECT_NEAR(Dim(join.cost, Objective::kTupleLoss), 0.9975, 1e-9);
}

TEST_F(CostModelTest, IndexNLJoinApplicability) {
  const PlanNode* fact = model_.MakeScan(
      ScanConfig(OperatorType::kSeqScan, 1.0), 0, &arena_);
  const PlanNode* dim = model_.MakeScan(
      ScanConfig(OperatorType::kSeqScan, 1.0), 1, &arena_);
  const int idxnl = JoinConfig(OperatorType::kIndexNLJoin, 1);
  // dim1 as inner: indexed join column -> applicable.
  EXPECT_TRUE(model_.JoinApplicable(idxnl, *fact, *dim));
  // A join as inner is never probed by index.
  const PlanNode* join = model_.MakeJoin(
      JoinConfig(OperatorType::kHashJoin, 1), fact, dim, &arena_);
  const PlanNode* dim2 = model_.MakeScan(
      ScanConfig(OperatorType::kSeqScan, 1.0), 2, &arena_);
  EXPECT_FALSE(model_.JoinApplicable(idxnl, *dim2, *join));
}

TEST_F(CostModelTest, AnalyzeSplitMatchesSlowPath) {
  const CostModel::SplitInfo info =
      model_.AnalyzeSplit(TableSet::Singleton(0), TableSet::Singleton(1));
  EXPECT_TRUE(info.has_predicate);
  EXPECT_TRUE(info.index_nl_applicable);
  EXPECT_NEAR(info.selectivity, 0.01, 1e-9);
  const CostModel::SplitInfo cross =
      model_.AnalyzeSplit(TableSet::Singleton(1), TableSet::Singleton(2));
  EXPECT_FALSE(cross.has_predicate);
  EXPECT_DOUBLE_EQ(cross.selectivity, 1.0);
}

TEST_F(CostModelTest, JoinNodeFastPathMatchesSlowPath) {
  const PlanNode* fact = model_.MakeScan(
      ScanConfig(OperatorType::kSeqScan, 1.0), 0, &arena_);
  const PlanNode* dim = model_.MakeScan(
      ScanConfig(OperatorType::kSeqScan, 1.0), 1, &arena_);
  for (int config : registry_.join_configs()) {
    const PlanNode slow = model_.JoinNode(config, fact, dim);
    const PlanNode fast = model_.JoinNode(
        config, fact, dim,
        model_.AnalyzeSplit(fact->tables, dim->tables));
    EXPECT_EQ(slow.cost, fast.cost);
    EXPECT_DOUBLE_EQ(slow.cardinality, fast.cardinality);
  }
}

// The DP driver prices candidates as FoldJoinCost over terms computed once
// per operand-statistics group. For every (left plan, right plan, join
// config) the DP enumerates on TPC-H Q10 with all nine objectives, terms
// computed from the statistics of the *first* plan with equal bits on
// each side must fold to exactly JoinNode's cost, cardinality and width.
TEST_F(CostModelTest, FoldOfTermsBitIdenticalToJoinNodeOnTpcHQ10) {
  Catalog catalog = Catalog::TpcH(0.01);
  const Query query = MakeTpcHQuery(&catalog, 10);
  ASSERT_EQ(query.num_tables(), 4);
  OperatorRegistry::Options operators;
  operators.sampling_rates = {0.05, 0.01};
  operators.dops = {1, 4};
  const OperatorRegistry registry(operators);
  const CostModel model(&query, &registry, ObjectiveSet::All());
  Arena arena;
  DPPlanGenerator generator(&model, &registry, &arena);
  DPOptions options;
  options.alpha = 1.1;
  generator.Run(query, options);

  const auto bits = [](const CostVector& c) {
    std::vector<uint64_t> out;
    for (int d = 0; d < c.size(); ++d) out.push_back(DoubleBits(c[d]));
    return out;
  };
  // First plan of `set` whose statistics have the bits of `plan`'s.
  const auto representative = [](const ParetoSet& set, const PlanNode& plan) {
    for (int i = 0;; ++i) {
      const PlanNode& other = *set.at(i);
      if (DoubleBits(other.cardinality) == DoubleBits(plan.cardinality) &&
          DoubleBits(other.row_width) == DoubleBits(plan.row_width)) {
        return CostModel::StatsOf(other);
      }
    }
  };
  long checked = 0;
  for (uint64_t mask = 1; mask <= query.AllTables().mask(); ++mask) {
    const TableSet tables(mask);
    if (tables.Cardinality() < 2) continue;
    for (SubsetIterator it(tables); !it.Done(); it.Next()) {
      const ParetoSet& lefts = generator.SetFor(it.Current());
      const ParetoSet& rights = generator.SetFor(it.Complement());
      const CostModel::SplitInfo split =
          model.AnalyzeSplit(it.Current(), it.Complement());
      for (int li = 0; li < lefts.size(); ++li) {
        const OperandStats left_stats = representative(lefts, *lefts.at(li));
        for (int ri = 0; ri < rights.size(); ++ri) {
          const OperandStats right_stats =
              representative(rights, *rights.at(ri));
          const OperandStats output =
              model.JoinOutputStats(left_stats, right_stats, split);
          for (int config : registry.join_configs()) {
            const OperatorConfig& op = registry.config(config);
            if (!model.JoinApplicableFast(op, split)) continue;
            const PlanNode node =
                model.JoinNode(config, lefts.at(li), rights.at(ri), split);
            const CostVector folded = model.FoldJoinCost(
                model.ComputeJoinTerms(op, left_stats, right_stats,
                                       output.rows),
                lefts.at(li)->cost, rights.at(ri)->cost);
            ASSERT_EQ(bits(folded), bits(node.cost)) << op.ToString();
            ASSERT_EQ(DoubleBits(output.rows), DoubleBits(node.cardinality));
            ASSERT_EQ(DoubleBits(output.width), DoubleBits(node.row_width));
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

// RejectionCorner is sound: on a seeded corpus over every join config,
// objective subsets of 1-9 objectives (with and without tuple loss),
// alpha = 1 and alpha > 1, and random left costs and rejecters, every
// right cost at or above a returned corner folds — under the corner's
// terms or any larger terms of the same shape — to a cost the rejecter
// passes WouldInsert's rejection test against in every dimension; and no
// corner is returned where the rejecter's tuple loss needs the right
// operand's share.
TEST_F(CostModelTest, RejectionCornerIsSound) {
  const OperatorRegistry registry;  // Every operator type and DOP.
  Xoshiro256 rng(20260418);
  // Log-uniform over [lo, hi): costs and statistics span magnitudes.
  const auto log_uniform = [&rng](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.NextDouble());
  };
  long corners = 0;
  long right_share_cases = 0;
  long checked = 0;
  for (int trial = 0; trial < 240; ++trial) {
    std::vector<Objective> objectives(kAllObjectives.begin(),
                                      kAllObjectives.end());
    for (int i = kNumObjectives - 1; i > 0; --i) {
      std::swap(objectives[i], objectives[rng.NextInt(0, i)]);
    }
    objectives.resize(rng.NextInt(1, kNumObjectives));
    // Half the trials carry tuple loss, half do not.
    const auto loss_at = std::find(objectives.begin(), objectives.end(),
                                   Objective::kTupleLoss);
    if (trial % 2 == 0 && loss_at == objectives.end()) {
      objectives.back() = Objective::kTupleLoss;
    } else if (trial % 2 == 1 && loss_at != objectives.end()) {
      objectives.erase(loss_at);
      if (objectives.empty()) objectives.push_back(Objective::kTotalTime);
    }
    const ObjectiveSet set(objectives);
    const CostModel model(&query_, &registry, set);
    const int dims = set.size();
    const int loss = set.IndexOf(Objective::kTupleLoss);
    const double alpha = trial % 4 < 2 ? 1.0 : rng.NextDouble(1.0001, 3.0);
    const auto threshold = [alpha](double cost) {
      return alpha <= 1.0 ? cost : cost * alpha;
    };
    const auto random_cost = [&] {
      CostVector cost(dims);
      for (int d = 0; d < dims; ++d) {
        cost[d] = d == loss ? rng.NextDouble() : log_uniform(1e-2, 1e6);
      }
      return cost;
    };

    for (int config : registry.join_configs()) {
      const OperatorConfig& op = registry.config(config);
      const OperandStats left_stats{log_uniform(1, 1e6),
                                    log_uniform(8, 256)};
      const OperandStats right_stats{log_uniform(1, 1e6),
                                     log_uniform(8, 256)};
      const CostModel::JoinTerms terms = model.ComputeJoinTerms(
          op, left_stats, right_stats, log_uniform(1e-3, 1e9));
      const CostVector left = random_cost();
      // Mostly a rejecter of some real candidate (each component at or
      // below that candidate's threshold), sometimes an arbitrary row.
      double rejecter[kNumObjectives];
      const CostVector candidate =
          model.FoldJoinCost(terms, left, random_cost());
      const bool arbitrary = rng.NextInt(0, 4) == 0;
      for (int d = 0; d < dims; ++d) {
        rejecter[d] = arbitrary ? log_uniform(1e-2, 1e7)
                                : threshold(candidate[d]) *
                                      rng.NextDouble(0.3, 1.0);
      }
      if (loss >= 0) {
        const double a = left[loss];
        // Either the left share covers the rejecter's tuple loss, or only
        // the candidate's full loss (left and right share) does.
        rejecter[loss] = rng.NextInt(0, 1) == 0
                             ? threshold(a) * rng.NextDouble(0.0, 1.0)
                             : threshold(a) + (threshold(candidate[loss]) -
                                               threshold(a)) *
                                                  rng.NextDouble(0.01, 1.0);
      }

      double corner[kNumObjectives];
      const bool found =
          model.RejectionCorner(terms, left, rejecter, alpha, corner);
      if (loss >= 0 && rejecter[loss] > threshold(left[loss])) {
        ++right_share_cases;
        EXPECT_FALSE(found) << "tuple loss needs the right share, "
                            << op.ToString();
        continue;
      }
      if (!found) continue;
      ++corners;
      if (loss >= 0) EXPECT_EQ(corner[loss], 0.0);

      ParetoSet stored;
      PlanNode rejecter_plan;
      rejecter_plan.cost = CostVector(dims);
      for (int d = 0; d < dims; ++d) rejecter_plan.cost[d] = rejecter[d];
      stored.Prune(&rejecter_plan);
      for (int sample = 0; sample < 16; ++sample) {
        CostVector right(dims);
        for (int d = 0; d < dims; ++d) {
          if (d == loss) {
            right[d] = rng.NextInt(0, 3) == 0 ? 0.0 : rng.NextDouble();
          } else {
            right[d] = rng.NextInt(0, 2) == 0
                           ? corner[d]
                           : corner[d] * rng.NextDouble(1.0, 3.0) +
                                 log_uniform(1e-6, 1e3);
          }
        }
        // Odd samples fold under larger terms of the same shape.
        CostModel::JoinTerms larger = terms;
        if (sample % 2 == 1) {
          for (double* field :
               {&larger.own_time, &larger.startup_own, &larger.setup,
                &larger.io_pages, &larger.cpu_load, &larger.cores,
                &larger.disk, &larger.buffer, &larger.energy}) {
            if (rng.NextInt(0, 1) == 0) *field += log_uniform(1e-3, 1e4);
          }
        }
        const CostVector folded = model.FoldJoinCost(larger, left, right);
        for (int d = 0; d < dims; ++d) {
          ASSERT_LE(rejecter[d], threshold(folded[d]))
              << op.ToString() << " trial " << trial << " dimension " << d;
        }
        ASSERT_FALSE(stored.WouldInsert(folded, {alpha, false}));
        ++checked;
      }
    }
  }
  // The corpus exercises corners and the tuple-loss refusal alike.
  EXPECT_GT(corners, 500);
  EXPECT_GT(right_share_cases, 200);
  EXPECT_GT(checked, 8000);
}

// Lemma 1 sanity: costs stay finite and polynomially bounded on the
// largest TPC-H query at full scale.
TEST(CostModelScaleTest, CostsFiniteOnTpcHQ8) {
  Catalog catalog = Catalog::TpcH(1.0);
  Query query = MakeTpcHQuery(&catalog, 8);
  OperatorRegistry registry;
  CostModel model(&query, &registry, ObjectiveSet::All());
  Arena arena;
  // Chain all eight tables with hash joins.
  const PlanNode* plan =
      model.MakeScan(registry.scan_configs()[0], 0, &arena);
  for (int t = 1; t < query.num_tables(); ++t) {
    const PlanNode* scan =
        model.MakeScan(registry.scan_configs()[0], t, &arena);
    plan = model.MakeJoin(registry.join_configs()[0], plan, scan, &arena);
  }
  EXPECT_TRUE(plan->cost.IsValid());
  EXPECT_GT(plan->cardinality, 0);
}

}  // namespace
}  // namespace moqo
