// Copyright (c) 2026 moqo authors. MIT license.
//
// Cross-query subplan memo: canonical table-set signatures (permutation /
// translation invariance, collision resistance across predicates,
// objectives and alpha), memo admission/eviction/epoch semantics, and the
// tentpole guarantee — frontiers are byte-identical with the memo on or
// off, cold and warm, serial and parallel, exact and approximate. The
// concurrency tests run under TSan in CI.

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_driver.h"
#include "memo/subplan_key.h"
#include "memo/subplan_memo.h"
#include "query/query.h"
#include "query/tpch_queries.h"
#include "testing/test_helpers.h"
#include "util/thread_pool.h"

namespace moqo {
namespace {

/// Chain-friendly catalog: n tables r0..r{n-1} with distinct cardinalities
/// (so content-based fragments differ) and two indexed join columns.
Catalog MakeChainCatalog(int tables) {
  Catalog catalog;
  for (int i = 0; i < tables; ++i) {
    const long rows = 400 * (1 + (i * 5) % 7);
    Table table("r" + std::to_string(i), rows, 48);
    for (const char* name : {"k", "j"}) {
      ColumnStats column;
      column.name = name;
      column.ndv = 50;
      column.min_value = 0;
      column.max_value = 49;
      column.histogram = Histogram::Uniform(0, 49, 8, rows);
      table.AddColumn(column);
      table.AddIndex(name);
    }
    catalog.AddTable(std::move(table));
  }
  return catalog;
}

/// Chain query joining tables lo..hi (inclusive) on `column`.
Query MakeChainQuery(const Catalog* catalog, int lo, int hi,
                     const std::string& column = "k") {
  Query query(catalog, "chain" + std::to_string(lo) + "_" +
                           std::to_string(hi));
  std::vector<int> locals;
  for (int i = lo; i <= hi; ++i) {
    locals.push_back(query.AddTable("r" + std::to_string(i)));
  }
  for (size_t i = 0; i + 1 < locals.size(); ++i) {
    query.AddJoin(locals[i], column, locals[i + 1], column);
  }
  return query;
}

ObjectiveSet ThreeObjectives() {
  return ObjectiveSet({Objective::kTotalTime, Objective::kEnergy,
                       Objective::kBufferFootprint});
}

SubplanKeyContext MakeContext(const Query& query, double alpha = 1.0) {
  return SubplanKeyContext(query, ThreeObjectives(), alpha,
                           testing::SmallOperatorSpace(), /*bushy=*/true,
                           /*cartesian_heuristic=*/true,
                           /*aggressive_delete=*/false,
                           /*skip_disconnected=*/true);
}

// ---------------------------------------------------------------------------
// Canonical signatures.

TEST(SubplanKeyTest, JoinAndFilterInsertionOrderInvariance) {
  Catalog catalog = MakeChainCatalog(4);
  auto add_filters = [](Query* query, bool reversed) {
    FilterPredicate f1{0, "j", FilterOp::kLess, 25.0, 0.0};
    FilterPredicate f2{2, "j", FilterOp::kGreaterEquals, 5.0, 0.0};
    if (reversed) {
      query->AddFilter(f2);
      query->AddFilter(f1);
    } else {
      query->AddFilter(f1);
      query->AddFilter(f2);
    }
  };

  Query a(&catalog, "a");
  for (int i = 0; i < 4; ++i) a.AddTable("r" + std::to_string(i));
  a.AddJoin(0, "k", 1, "k");
  a.AddJoin(1, "k", 2, "k");
  a.AddJoin(2, "k", 3, "k");
  add_filters(&a, false);

  // Same structure: joins inserted in reverse with swapped endpoints,
  // filters reversed, different query name.
  Query b(&catalog, "b");
  for (int i = 0; i < 4; ++i) b.AddTable("r" + std::to_string(i));
  b.AddJoin(3, "k", 2, "k");
  b.AddJoin(2, "k", 1, "k");
  b.AddJoin(1, "k", 0, "k");
  add_filters(&b, true);

  const SubplanKeyContext ctx_a = MakeContext(a);
  const SubplanKeyContext ctx_b = MakeContext(b);
  for (uint64_t mask = 1; mask < 16; ++mask) {
    const TableSet tables(mask);
    EXPECT_EQ(ctx_a.SignatureFor(tables), ctx_b.SignatureFor(tables))
        << "mask " << mask;
  }
}

TEST(SubplanKeyTest, IndexTranslationInvariance) {
  // The subchain r1-r2-r3 embedded at local indices {1,2,3} of chain
  // r0..r3 and at {0,1,2} of chain r1..r4 must key identically: same
  // member contents in the same relative order, same induced edges, and
  // the same incident join columns (everything joins on "k").
  Catalog catalog = MakeChainCatalog(5);
  Query a = MakeChainQuery(&catalog, 0, 3);
  Query b = MakeChainQuery(&catalog, 1, 4);
  const SubplanKeyContext ctx_a = MakeContext(a);
  const SubplanKeyContext ctx_b = MakeContext(b);
  // {r1,r2,r3} = local {1,2,3} in a, local {0,1,2} in b.
  EXPECT_EQ(ctx_a.SignatureFor(TableSet(0b1110)),
            ctx_b.SignatureFor(TableSet(0b0111)));
  // {r1,r2} and {r2,r3} likewise.
  EXPECT_EQ(ctx_a.SignatureFor(TableSet(0b0110)),
            ctx_b.SignatureFor(TableSet(0b0011)));
  EXPECT_EQ(ctx_a.SignatureFor(TableSet(0b1100)),
            ctx_b.SignatureFor(TableSet(0b0110)));
  // {r0,r1} of a has no counterpart in b: different member content.
  EXPECT_NE(ctx_a.SignatureFor(TableSet(0b0011)),
            ctx_b.SignatureFor(TableSet(0b0011)));
}

TEST(SubplanKeyTest, CollisionResistance) {
  Catalog catalog = MakeChainCatalog(4);
  const Query base = MakeChainQuery(&catalog, 0, 2);
  const TableSet all = base.AllTables();
  const SubplanSignature reference = MakeContext(base).SignatureFor(all);

  // Different join column.
  const Query other_column = MakeChainQuery(&catalog, 0, 2, "j");
  EXPECT_NE(MakeContext(other_column).SignatureFor(all), reference);

  // Extra filter.
  Query filtered = MakeChainQuery(&catalog, 0, 2);
  filtered.AddFilter(FilterPredicate{1, "j", FilterOp::kLess, 10.0, 0.0});
  EXPECT_NE(MakeContext(filtered).SignatureFor(all), reference);

  // Different objective set (different dimensions).
  EXPECT_NE(SubplanKeyContext(base,
                              ObjectiveSet({Objective::kTotalTime,
                                            Objective::kEnergy}),
                              1.0, testing::SmallOperatorSpace(), true, true,
                              false, true)
                .SignatureFor(all),
            reference);

  // Different alpha bucket (bit-exact).
  EXPECT_NE(MakeContext(base, 1.25).SignatureFor(all), reference);

  // A join predicate *outside* the set that touches a member on a new
  // column changes the member's scan space, hence its signature.
  Query extended = MakeChainQuery(&catalog, 0, 2);
  const int extra = extended.AddTable("r3");
  extended.AddJoin(0, "j", extra, "j");
  EXPECT_NE(MakeContext(extended).SignatureFor(TableSet(0b0111)), reference);

  // ... while an outside join on an already-incident column does not (the
  // scan space is unchanged, so sharing is sound and desirable).
  Query benign = MakeChainQuery(&catalog, 0, 2);
  const int extra2 = benign.AddTable("r3");
  benign.AddJoin(0, "k", extra2, "k");
  EXPECT_EQ(MakeContext(benign).SignatureFor(TableSet(0b0111)), reference);
}

TEST(SubplanKeyTest, GoldenSignatureFor) {
  // Snapshots persist memo keys and their hashes; these pinned values
  // may change only together with a snapshot format_version bump.
  const auto first = [](int n) {
    return ObjectiveSet(std::vector<Objective>(kAllObjectives.begin(),
                                               kAllObjectives.begin() + n));
  };
  OperatorRegistry::Options operators;
  operators.sampling_rates = {0.05, 0.01};
  operators.dops = {1, 4};

  Catalog sf001 = Catalog::TpcH(0.01);
  const Query q5 = MakeTpcHQuery(&sf001, 5);
  const SubplanKeyContext q5_context(q5, first(3), 1.1, operators, true,
                                     true, false, true);
  testing::ExpectGoldenKey(q5_context.SignatureFor(TableSet::Prefix(3)),
                           4335, 0x071ec630c1f92fb4ull,
                           0x65d53f75630e3d75ull);
  testing::ExpectGoldenKey(q5_context.SignatureFor(q5.AllTables()), 6580,
                           0xdbc1dac0fffe7fffull, 0x437003fe90391d92ull);

  Catalog sf1 = Catalog::TpcH(1.0);
  const Query q8 = MakeTpcHQuery(&sf1, 8);
  const SubplanKeyContext q8_context(q8, first(6), 1.0, operators, true,
                                     true, false, true);
  testing::ExpectGoldenKey(
      q8_context.SignatureFor(TableSet().With(1).With(4).With(6)), 2873,
      0xa1372398f95c7a69ull, 0xcb3254420c5c9964ull);
}

// ---------------------------------------------------------------------------
// Memo container semantics.

class SubplanMemoDpTest : public ::testing::Test {
 protected:
  SubplanMemoDpTest()
      : catalog_(MakeChainCatalog(6)),
        objectives_(ThreeObjectives()),
        registry_(testing::SmallOperatorSpace()) {}

  /// Runs the DP over `query`, returning per-mask frontiers; `memo` may be
  /// null (memo-off reference).
  std::vector<std::vector<CostVector>> RunDp(const Query& query,
                                             SubplanMemo* memo, DPStats* stats,
                                             double alpha = 1.0,
                                             int parallelism = 1,
                                             ThreadPool* pool = nullptr) {
    CostModel model(&query, &registry_, objectives_);
    Arena arena;
    DPPlanGenerator generator(&model, &registry_, &arena);
    DPOptions options;
    options.alpha = alpha;
    options.subplan_memo = memo;
    options.parallelism = parallelism;
    options.pool = pool;
    generator.Run(query, options);
    std::vector<std::vector<CostVector>> frontiers;
    const uint64_t all = query.AllTables().mask();
    for (uint64_t mask = 1; mask <= all; ++mask) {
      frontiers.push_back(generator.SetFor(TableSet(mask)).Frontier());
    }
    if (stats != nullptr) *stats = generator.stats();
    return frontiers;
  }

  Catalog catalog_;
  ObjectiveSet objectives_;
  OperatorRegistry registry_;
};

TEST_F(SubplanMemoDpTest, ColdRunByteIdenticalWithMemoOnOrOff) {
  const Query query = MakeChainQuery(&catalog_, 0, 4);
  DPStats off_stats, on_stats;
  const auto off = RunDp(query, nullptr, &off_stats);
  SubplanMemo memo;
  const auto on = RunDp(query, &memo, &on_stats);
  EXPECT_EQ(on, off);
  EXPECT_EQ(on_stats.considered_plans, off_stats.considered_plans);
  EXPECT_EQ(on_stats.inserted_plans, off_stats.inserted_plans);
  EXPECT_EQ(on_stats.memo_hits, 0);
  EXPECT_GT(on_stats.memo_publishes, 0);
  EXPECT_EQ(memo.GetStats().insertions,
            static_cast<uint64_t>(on_stats.memo_publishes));
}

TEST_F(SubplanMemoDpTest, WarmRunByteIdenticalAndCheaper) {
  const Query query = MakeChainQuery(&catalog_, 0, 4);
  SubplanMemo memo;
  DPStats cold_stats, warm_stats;
  const auto cold = RunDp(query, &memo, &cold_stats);
  const auto warm = RunDp(query, &memo, &warm_stats);
  EXPECT_EQ(warm, cold);
  // Every probed set hits, so the DP skips their candidate enumeration.
  EXPECT_EQ(warm_stats.memo_misses, 0);
  EXPECT_EQ(warm_stats.memo_hits, cold_stats.memo_publishes);
  EXPECT_LT(warm_stats.considered_plans, cold_stats.considered_plans);
}

TEST_F(SubplanMemoDpTest, OverlappingQueriesShareAndStayIdentical) {
  // Sliding chains share every connected subset of the window overlap; the
  // shared sub-frontiers live at *different local indices* in each query,
  // exercising the dense-rank rebasing in both directions.
  SubplanMemo::Options options;
  options.min_tables = 2;
  SubplanMemo memo(options);
  const Query a = MakeChainQuery(&catalog_, 0, 3);
  const Query b = MakeChainQuery(&catalog_, 1, 4);

  DPStats a_stats;
  RunDp(a, &memo, &a_stats);
  EXPECT_EQ(a_stats.memo_hits, 0);

  DPStats warm_b_stats;
  const auto warm_b = RunDp(b, &memo, &warm_b_stats);
  // Shared connected subsets of {r1,r2,r3}: {r1,r2}, {r2,r3}, {r1,r2,r3}.
  EXPECT_EQ(warm_b_stats.memo_hits, 3);

  DPStats off_stats;
  const auto off_b = RunDp(b, nullptr, &off_stats);
  EXPECT_EQ(warm_b, off_b);
  EXPECT_LT(warm_b_stats.considered_plans, off_stats.considered_plans);
}

TEST_F(SubplanMemoDpTest, ApproximatePruningWarmRunsStayIdentical) {
  // The byte-identity claim is strongest under approximate pruning, where
  // the sealed frontier depends on insertion order: a reused entry must
  // reproduce exactly what a local build would have produced.
  const double alpha = 1.1;
  SubplanMemo::Options options;
  options.min_tables = 2;
  SubplanMemo memo(options);
  const Query a = MakeChainQuery(&catalog_, 0, 4);
  const Query b = MakeChainQuery(&catalog_, 1, 5);

  DPStats stats;
  RunDp(a, &memo, &stats, alpha);
  const auto warm_b = RunDp(b, &memo, &stats, alpha);
  const auto off_b = RunDp(b, nullptr, &stats, alpha);
  EXPECT_EQ(warm_b, off_b);
  // Different alpha must not share entries.
  DPStats other_alpha_stats;
  RunDp(b, &memo, &other_alpha_stats, 1.2);
  EXPECT_EQ(other_alpha_stats.memo_hits, 0);
}

TEST_F(SubplanMemoDpTest, ParallelWarmRunMatchesSerialMemoOff) {
  SubplanMemo memo;
  ThreadPool pool(3);
  const Query a = MakeChainQuery(&catalog_, 0, 4);
  const Query b = MakeChainQuery(&catalog_, 1, 5);
  DPStats stats;
  RunDp(a, &memo, &stats, 1.0, /*parallelism=*/4, &pool);
  DPStats warm_stats;
  const auto warm_parallel =
      RunDp(b, &memo, &warm_stats, 1.0, /*parallelism=*/4, &pool);
  EXPECT_GT(warm_stats.memo_hits, 0);
  const auto serial_off = RunDp(b, nullptr, &stats);
  EXPECT_EQ(warm_parallel, serial_off);
}

TEST_F(SubplanMemoDpTest, MinTablesGatesProbesAndPublishes) {
  SubplanMemo::Options options;
  options.min_tables = 4;
  SubplanMemo memo(options);
  const Query query = MakeChainQuery(&catalog_, 0, 4);  // 5 tables.
  DPStats stats;
  RunDp(query, &memo, &stats);
  // Chain of 5: connected sets of size 4 and 5 are 2 + 1.
  EXPECT_EQ(stats.memo_publishes, 3);
  EXPECT_EQ(memo.size(), 3u);
}

TEST_F(SubplanMemoDpTest, ByteBudgetEvictsLru) {
  SubplanMemo::Options options;
  options.capacity_bytes = 6 << 10;  // Far below one chain's footprint.
  options.shards = 1;
  options.min_tables = 2;
  SubplanMemo memo(options);
  const Query query = MakeChainQuery(&catalog_, 0, 5);
  DPStats stats;
  RunDp(query, &memo, &stats);
  // Every entry exceeds the tiny budget on its own (a PlanSet reserves at
  // least one arena block), so each insert sheds all colder entries; the
  // budget bounds the resident population, not a single oversized entry.
  const SubplanMemo::Stats memo_stats = memo.GetStats();
  EXPECT_GT(memo_stats.evictions, 0u);
  EXPECT_LT(memo_stats.entries, memo_stats.insertions);
}

TEST_F(SubplanMemoDpTest, AdmissionEpsilonRejectsDenseFrontiers) {
  // At a huge epsilon almost any multi-plan frontier has a covered member,
  // so publishes are refused; single-plan frontiers always pass.
  SubplanMemo::Options options;
  options.admission_epsilon = 1e6;
  options.min_tables = 2;
  SubplanMemo memo(options);
  const Query query = MakeChainQuery(&catalog_, 0, 3);
  DPStats stats;
  RunDp(query, &memo, &stats);
  EXPECT_GT(memo.GetStats().admission_rejects, 0u);
}

TEST_F(SubplanMemoDpTest, MaxEntryPlansCapsPublishedFrontiers) {
  SubplanMemo::Options options;
  options.max_entry_plans = 1;
  options.min_tables = 2;
  SubplanMemo memo(options);
  const Query query = MakeChainQuery(&catalog_, 0, 3);
  DPStats stats;
  RunDp(query, &memo, &stats);
  const SubplanMemo::Stats memo_stats = memo.GetStats();
  EXPECT_EQ(memo_stats.frontier_plans, memo_stats.entries);
}

TEST_F(SubplanMemoDpTest, EpochChangeFlushesOnce) {
  SubplanMemo memo;
  memo.ObserveCatalog(&catalog_, 7);
  const Query query = MakeChainQuery(&catalog_, 0, 4);
  DPStats stats;
  RunDp(query, &memo, &stats);
  ASSERT_GT(memo.size(), 0u);
  EXPECT_EQ(memo.GetStats().invalidations, 0u);  // First sighting: adopted.

  // A *different* catalog identity showing up must not flush: entries are
  // content-keyed, and a service juggling two catalogs would otherwise
  // thrash the memo on every alternation.
  Catalog other = MakeChainCatalog(3);
  memo.ObserveCatalog(&other, 99);
  EXPECT_GT(memo.size(), 0u);
  EXPECT_EQ(memo.GetStats().invalidations, 0u);

  memo.ObserveCatalog(&catalog_, 8);
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.GetStats().invalidations, 1u);
  memo.ObserveCatalog(&catalog_, 8);  // Unchanged: no further flush.
  EXPECT_EQ(memo.GetStats().invalidations, 1u);

  // After the flush the warm query misses everything again.
  DPStats refill_stats;
  RunDp(query, &memo, &refill_stats);
  EXPECT_EQ(refill_stats.memo_hits, 0);
  EXPECT_GT(refill_stats.memo_publishes, 0);
}

TEST_F(SubplanMemoDpTest, ConcurrentDpRunsShareMemoSafely) {
  // Four threads hammer one memo with overlapping sliding chains; TSan
  // (CI) verifies the sharing is race-free, and every thread's final
  // frontier must match its memo-off reference.
  SubplanMemo memo;
  std::vector<std::vector<std::vector<CostVector>>> reference(4);
  for (int t = 0; t < 4; ++t) {
    const Query query = MakeChainQuery(&catalog_, t % 2, 4 + t % 2);
    reference[t] = RunDp(query, nullptr, nullptr);
  }
  std::vector<std::thread> threads;
  std::vector<std::vector<std::vector<CostVector>>> results(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, t, &memo, &results] {
      for (int rep = 0; rep < 3; ++rep) {
        const Query query = MakeChainQuery(&catalog_, t % 2, 4 + t % 2);
        results[t] = RunDp(query, &memo, nullptr);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(results[t], reference[t]) << "thread " << t;
  }
  EXPECT_GT(memo.GetStats().hits, 0u);
}

}  // namespace
}  // namespace moqo
