// Copyright (c) 2026 moqo authors. MIT license.
//
// The level-synchronous parallel DP engine: frontier determinism across
// thread counts (byte-for-byte identical memo contents — parallelism is
// across table sets, never within one set's insertion sequence), the
// approximation guarantee under parallel RTA pruning, timeout quick mode,
// the service-level parallelism override, and the cooperative
// ThreadPool::ParallelFor primitive underneath it all. Runs under TSan in
// CI (see .github/workflows/ci.yml).

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_driver.h"
#include "core/exa.h"
#include "core/rta.h"
#include "frontier/frontier.h"
#include "service/optimization_service.h"
#include "testing/test_helpers.h"
#include "util/thread_pool.h"

namespace moqo {
namespace {

class ParallelDpTest : public ::testing::Test {
 protected:
  ParallelDpTest()
      : catalog_(testing::MakeTinyCatalog()),
        query_(testing::MakeStarQuery(&catalog_, 3)),
        objectives_({Objective::kTotalTime, Objective::kEnergy,
                     Objective::kBufferFootprint}),
        registry_(testing::SmallOperatorSpace()),
        model_(&query_, &registry_, objectives_) {}

  /// Runs the DP at the given parallelism and returns the frontier of
  /// every memoized table set, indexed by mask, plus the run's stats.
  std::vector<std::vector<CostVector>> RunFrontiers(int parallelism,
                                                    ThreadPool* pool,
                                                    double alpha,
                                                    DPStats* stats) {
    Arena arena;
    DPPlanGenerator generator(&model_, &registry_, &arena);
    DPOptions options;
    options.alpha = alpha;
    options.parallelism = parallelism;
    options.pool = pool;
    generator.Run(query_, options);
    std::vector<std::vector<CostVector>> frontiers;
    const uint64_t all = query_.AllTables().mask();
    for (uint64_t mask = 1; mask <= all; ++mask) {
      frontiers.push_back(generator.SetFor(TableSet(mask)).Frontier());
    }
    *stats = generator.stats();
    return frontiers;
  }

  Catalog catalog_;
  Query query_;
  ObjectiveSet objectives_;
  OperatorRegistry registry_;
  CostModel model_;
};

TEST_F(ParallelDpTest, FrontiersIdenticalAcrossThreadCounts) {
  DPStats serial_stats;
  const auto serial =
      RunFrontiers(/*parallelism=*/1, nullptr, /*alpha=*/1.0, &serial_stats);
  ThreadPool pool(3);
  for (int parallelism : {2, 4}) {
    DPStats stats;
    const auto parallel =
        RunFrontiers(parallelism, &pool, /*alpha=*/1.0, &stats);
    // Byte-for-byte: every table set's sealed frontier, in storage order.
    EXPECT_EQ(parallel, serial) << "parallelism " << parallelism;
    EXPECT_EQ(stats.considered_plans, serial_stats.considered_plans);
    EXPECT_EQ(stats.inserted_plans, serial_stats.inserted_plans);
    EXPECT_EQ(stats.complete_sets, serial_stats.complete_sets);
    EXPECT_EQ(stats.last_complete_set, serial_stats.last_complete_set);
    EXPECT_FALSE(stats.timed_out);
  }
}

TEST_F(ParallelDpTest, ApproximatePruningDeterministicAndCovering) {
  // Determinism holds for alpha > 1 too (same argument: per-set insertion
  // order is thread-count independent) ...
  const double alpha_u = 2.0;
  const double alpha_i = RTAInternalPrecision(alpha_u, query_.num_tables());
  DPStats serial_stats;
  const auto serial =
      RunFrontiers(/*parallelism=*/1, nullptr, alpha_i, &serial_stats);
  ThreadPool pool(3);
  DPStats stats;
  const auto parallel = RunFrontiers(/*parallelism=*/4, &pool, alpha_i,
                                     &stats);
  EXPECT_EQ(parallel, serial);

  // ... and on top of it the Theorem 3 guarantee: the parallel RTA
  // frontier alpha_U-covers the exact frontier of the full table set.
  DPStats exact_stats;
  const auto exact =
      RunFrontiers(/*parallelism=*/4, &pool, /*alpha=*/1.0, &exact_stats);
  EXPECT_EQ(FindUncoveredVector(parallel.back(), exact.back(), alpha_u),
            std::nullopt);
}

TEST_F(ParallelDpTest, StatsAggregationAcrossSlotsLosesNoUpdates) {
  // PR 6 audit: during a fanned-out level every slot counts into its own
  // padded DPStats block and the barrier merges them. A lost update would
  // surface as a considered/inserted/corner-skipped undercount against the
  // serial run; a sharing bug would trip the TSan job this file runs under
  // in CI.
  DPStats serial_stats;
  RunFrontiers(/*parallelism=*/1, nullptr, /*alpha=*/1.0, &serial_stats);
  EXPECT_GT(serial_stats.corner_skipped_plans, 0);
  EXPECT_EQ(serial_stats.parallel_levels, 0);
  EXPECT_EQ(serial_stats.barrier_wait_us, 0);

  ThreadPool pool(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    DPStats stats;
    RunFrontiers(/*parallelism=*/4, &pool, /*alpha=*/1.0, &stats);
    EXPECT_EQ(stats.considered_plans, serial_stats.considered_plans)
        << "repeat " << repeat;
    EXPECT_EQ(stats.inserted_plans, serial_stats.inserted_plans)
        << "repeat " << repeat;
    // Corners are derived per set build, so the skips are the serial
    // run's too, merged from every slot.
    EXPECT_EQ(stats.corner_skipped_plans, serial_stats.corner_skipped_plans)
        << "repeat " << repeat;
    // Both multi-set levels of the 4-table star fan out, and the
    // finished-but-waiting attribution never goes negative.
    EXPECT_GE(stats.parallel_levels, 2);
    EXPECT_GE(stats.barrier_wait_us, 0);
  }
}

TEST_F(ParallelDpTest, OptimizerParallelMatchesSerial) {
  MOQOProblem problem;
  problem.query = &query_;
  problem.objectives = objectives_;
  problem.weights = WeightVector::Uniform(3);

  OptimizerResult serial =
      ExactMOQO(testing::SmallOptions()).Optimize(problem);

  ThreadPool pool(3);
  OptimizerOptions parallel_options = testing::SmallOptions();
  parallel_options.parallelism = 4;
  parallel_options.dp_pool = &pool;
  OptimizerResult parallel = ExactMOQO(parallel_options).Optimize(problem);

  ASSERT_NE(parallel.plan, nullptr);
  EXPECT_EQ(parallel.frontier(), serial.frontier());
  EXPECT_EQ(parallel.cost, serial.cost);
  EXPECT_DOUBLE_EQ(parallel.weighted_cost, serial.weighted_cost);
  EXPECT_EQ(parallel.metrics.considered_plans,
            serial.metrics.considered_plans);
}

TEST_F(ParallelDpTest, ParallelTimeoutStillYieldsPlan) {
  MOQOProblem problem;
  problem.query = &query_;
  problem.objectives = objectives_;
  problem.weights = WeightVector::Uniform(3);

  ThreadPool pool(3);
  OptimizerOptions options = testing::SmallOptions();
  options.parallelism = 4;
  options.dp_pool = &pool;
  options.timeout_ms = 0;  // Already expired: Section 5.1 quick mode.
  OptimizerResult result = RTAOptimizer(options).Optimize(problem);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_TRUE(result.metrics.timed_out);
  EXPECT_EQ(result.plan->tables, query_.AllTables());
}

TEST_F(ParallelDpTest, ServiceParallelismOverrideMatchesSerial) {
  ServiceOptions options;
  options.num_workers = 2;
  options.num_dp_helpers = 2;
  options.enable_cache = false;  // Force both requests through the DP.
  options.operators = testing::SmallOperatorSpace();
  OptimizationService service(options);

  ServiceRequest request;
  request.spec.query = std::make_shared<Query>(query_);
  request.spec.objectives = objectives_;
  request.preference.weights = WeightVector::Uniform(3);

  ServiceRequest parallel_request = request;
  parallel_request.spec.parallelism = 4;

  const ServiceResponse serial = service.SubmitAndWait(request);
  const ServiceResponse parallel = service.SubmitAndWait(parallel_request);
  ASSERT_EQ(serial.status, ResponseStatus::kCompleted);
  ASSERT_EQ(parallel.status, ResponseStatus::kCompleted);
  ASSERT_NE(serial.result, nullptr);
  ASSERT_NE(parallel.result, nullptr);
  EXPECT_EQ(parallel.result->frontier(), serial.result->frontier());
  EXPECT_DOUBLE_EQ(parallel.result->weighted_cost,
                   serial.result->weighted_cost);
}

TEST(ThreadPoolParallelForTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  std::atomic<int> max_slot{0};
  pool.ParallelFor(kN, /*max_helpers=*/4, [&](int index, int slot) {
    counts[index].fetch_add(1, std::memory_order_relaxed);
    int seen = max_slot.load(std::memory_order_relaxed);
    while (slot > seen &&
           !max_slot.compare_exchange_weak(seen, slot,
                                           std::memory_order_relaxed)) {
    }
  });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
  EXPECT_LE(max_slot.load(), 4);
}

TEST(ThreadPoolParallelForTest, CompletesWithoutHelpers) {
  // A shut-down pool accepts no helper tasks; the caller must still drain
  // the whole batch itself (the no-deadlock property the DP relies on).
  ThreadPool pool(2);
  pool.Shutdown();
  std::vector<int> seen_slot(64, -1);
  pool.ParallelFor(64, /*max_helpers=*/2, [&](int index, int slot) {
    seen_slot[index] = slot;
  });
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(seen_slot[i], 0) << "index " << i;
  }
}

TEST(ThreadPoolParallelForTest, TaskExceptionRethrownOnCallerAfterBarrier) {
  // A throwing task must not escape into a worker thread (std::terminate)
  // or unwind the caller before the barrier: the batch completes, then the
  // first exception resurfaces on the calling thread — so the service's
  // optimizer fence catches parallel-DP failures like serial ones.
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.ParallelFor(32, /*max_helpers=*/2,
                       [&](int index, int) {
                         executed.fetch_add(1, std::memory_order_relaxed);
                         if (index == 7) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // Barrier held: every index ran (throwing ones still count as done).
  EXPECT_EQ(executed.load(), 32);
}

TEST(ThreadPoolParallelForTest, NestedBatchesDoNotDeadlock) {
  // Batches issued from inside pool tasks share the same pool: caller
  // participation guarantees progress even with every worker occupied.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, /*max_helpers=*/2, [&](int outer, int) {
    (void)outer;
    pool.ParallelFor(8, /*max_helpers=*/2, [&](int inner, int) {
      (void)inner;
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolLaneTest, InteractiveLaneAlwaysDequeuesFirst) {
  // Two-lane priority (PR 7): with the single worker parked on a gate
  // task, queue refinement work first, then interactive work. On release
  // every interactive task must run before any refinement task, and order
  // within each lane stays FIFO.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = false;
  bool gate_entered = false;
  ASSERT_TRUE(pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    gate_entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return gate_open; });
  }));
  {
    // Park the worker on the gate before queueing, so queue depths below
    // count exactly the tasks this test submits.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gate_entered; });
  }

  std::vector<int> order;
  std::mutex order_mu;
  auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  // Refinement tagged 100+, interactive tagged 0+ — submitted AFTER.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.Submit(record(100 + i), TaskLane::kRefinement));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.Submit(record(i), TaskLane::kInteractive));
  }
  EXPECT_EQ(pool.QueueDepth(TaskLane::kRefinement), 3u);
  EXPECT_EQ(pool.QueueDepth(TaskLane::kInteractive), 3u);
  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  pool.Shutdown();  // Drains both queues before joining.

  const std::vector<int> expected = {0, 1, 2, 100, 101, 102};
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace moqo
