// Copyright (c) 2026 moqo authors. MIT license.
//
// Golden DP frontiers: the sealed output of the DP engine — every table
// set's frontier in storage order, each plan as its structural PlanHash
// plus the bit patterns of its cost components — and the considered /
// inserted plan counters are pinned for fixed TPC-H problems. Any change
// to split enumeration, the cost model's floating-point evaluation order,
// candidate order or pruning moves a digest; a pure speedup must not.

#include <string>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/dp_driver.h"
#include "core/ira.h"
#include "query/tpch_queries.h"
#include "testing/test_helpers.h"
#include "util/byte_codec.h"
#include "util/thread_pool.h"

namespace moqo {
namespace {

/// Appends one sealed frontier: its size, then per plan its PlanHash and
/// the bits of every cost component.
void AppendFrontier(const ParetoSet& set, std::string* out) {
  PutU32(out, static_cast<uint32_t>(set.size()));
  for (int i = 0; i < set.size(); ++i) {
    PutU64(out, PlanHash(set.at(i)));
    const CostVector cost = set.cost_at(i);
    for (int d = 0; d < cost.size(); ++d) PutF64(out, cost[d]);
  }
}

class DpGoldenTest : public ::testing::Test {
 protected:
  DpGoldenTest() : catalog_(Catalog::TpcH(0.01)) {
    operators_.sampling_rates = {0.05, 0.01};
    operators_.dops = {1, 4};
  }

  /// Runs the DP and serializes every table set's sealed frontier, by
  /// ascending mask, followed by the run's plan counters.
  std::string RunDp(const Query& query, const ObjectiveSet& objectives,
                    double alpha, int parallelism = 1,
                    ThreadPool* pool = nullptr) {
    const OperatorRegistry registry(operators_);
    const CostModel model(&query, &registry, objectives);
    Arena arena;
    DPPlanGenerator generator(&model, &registry, &arena);
    DPOptions options;
    options.alpha = alpha;
    options.parallelism = parallelism;
    options.pool = pool;
    generator.Run(query, options);
    std::string bytes;
    const uint64_t all = query.AllTables().mask();
    for (uint64_t mask = 1; mask <= all; ++mask) {
      AppendFrontier(generator.SetFor(TableSet(mask)), &bytes);
    }
    EXPECT_FALSE(generator.stats().timed_out);
    PutI64(&bytes, generator.stats().considered_plans);
    PutI64(&bytes, generator.stats().inserted_plans);
    return bytes;
  }

  Catalog catalog_;
  OperatorRegistry::Options operators_;
};

// RTA over all nine objectives: tuple loss is active, so sampled scans
// split every table set's plans into several cardinality groups.
TEST_F(DpGoldenTest, RtaNineObjectivesTpcHQ2) {
  const Query query = MakeTpcHQuery(&catalog_, 2);
  ASSERT_EQ(query.num_tables(), 5);
  const std::string bytes =
      RunDp(query, ObjectiveSet::All(),
            RTAInternalPrecision(1.5, query.num_tables()));
  testing::ExpectGoldenBytes(bytes, 126220, 3545257468887581556ull);
}

TEST_F(DpGoldenTest, ExaThreeObjectivesTpcHQ3) {
  const Query query = MakeTpcHQuery(&catalog_, 3);
  const std::string bytes = RunDp(
      query, ObjectiveSet({Objective::kTotalTime, Objective::kStartupTime,
                           Objective::kBufferFootprint}),
      1.0);
  testing::ExpectGoldenBytes(bytes, 1612, 3292105584932847451ull);
}

// Same problem as RtaNineObjectivesTpcHQ2, fanned out over four slots:
// the pinned bytes are the serial run's.
TEST_F(DpGoldenTest, RtaNineObjectivesTpcHQ2Parallel) {
  const Query query = MakeTpcHQuery(&catalog_, 2);
  ThreadPool pool(3);
  const std::string bytes =
      RunDp(query, ObjectiveSet::All(),
            RTAInternalPrecision(1.5, query.num_tables()),
            /*parallelism=*/4, &pool);
  testing::ExpectGoldenBytes(bytes, 126220, 3545257468887581556ull);
}

// IRA with two finite bounds that force eleven refinement iterations: the
// final frontier, the selected plan, the iteration count and the considered
// plans summed over the five DPs the IRA runs to reach iteration eleven
// (1, 2, 4, 8, 11) are pinned.
TEST_F(DpGoldenTest, IraTwoBoundsTpcHQ10) {
  const Query query = MakeTpcHQuery(&catalog_, 10);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives =
      ObjectiveSet({Objective::kTotalTime, Objective::kBufferFootprint,
                    Objective::kTupleLoss, Objective::kEnergy});
  problem.weights = WeightVector::Uniform(problem.objectives.size());
  problem.bounds = BoundVector(problem.objectives.size());
  problem.bounds[1] = 6e4;     // Buffer footprint, bytes.
  problem.bounds[2] = 0.9996;  // Tuple loss.
  OptimizerOptions options;
  options.alpha = 1.5;
  options.operators = operators_;
  IRAOptimizer ira(options);
  const OptimizerResult result = ira.Optimize(problem);
  ASSERT_FALSE(result.metrics.timed_out);
  EXPECT_TRUE(result.respects_bounds);
  std::string bytes;
  const PlanSet& set = *result.plan_set;
  PutU32(&bytes, static_cast<uint32_t>(set.size()));
  for (int i = 0; i < set.size(); ++i) {
    PutU64(&bytes, PlanHash(set.plan(i)));
    for (int d = 0; d < set.cost(i).size(); ++d) {
      PutF64(&bytes, set.cost(i)[d]);
    }
  }
  PutU64(&bytes, PlanHash(result.plan));
  PutI32(&bytes, result.metrics.iterations);
  PutI64(&bytes, result.metrics.considered_plans);
  testing::ExpectGoldenBytes(bytes, 4424, 4750448575616388119ull);
}

}  // namespace
}  // namespace moqo
