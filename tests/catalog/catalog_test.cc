// Tests for histograms, tables, and the TPC-H catalog.

#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include "query/canonical.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace {

TEST(HistogramTest, UniformSelectivities) {
  const Histogram h = Histogram::Uniform(0, 100, 10, 1000);
  EXPECT_DOUBLE_EQ(h.SelectivityLessEqual(-5), 0.0);
  EXPECT_DOUBLE_EQ(h.SelectivityLessEqual(100), 1.0);
  EXPECT_NEAR(h.SelectivityLessEqual(50), 0.5, 1e-9);
  EXPECT_NEAR(h.SelectivityRange(25, 75), 0.5, 1e-9);
  EXPECT_NEAR(h.SelectivityEquals(50, 100), 0.01, 1e-9);
}

TEST(HistogramTest, RangeSelectivityClampsAndOrders) {
  const Histogram h = Histogram::Uniform(0, 10, 4, 100);
  EXPECT_DOUBLE_EQ(h.SelectivityRange(8, 2), 0.0);  // Inverted range.
  EXPECT_NEAR(h.SelectivityRange(-100, 100), 1.0, 1e-9);
}

TEST(HistogramTest, ZipfSkewsMassToFirstBuckets) {
  const Histogram z = Histogram::Zipf(0, 100, 10, 1000, 1.0);
  EXPECT_GT(z.bucket_count(0), z.bucket_count(9));
  // First bucket of a Zipf(1) histogram holds more than the uniform share.
  EXPECT_GT(z.SelectivityLessEqual(10), 0.1);
  double total = 0;
  for (int i = 0; i < z.num_buckets(); ++i) total += z.bucket_count(i);
  EXPECT_NEAR(total, 1000, 1e-6);
}

TEST(TableTest, PageCountFromRowWidth) {
  Table t("t", 8192, 8);  // 64 KiB of data -> 8 pages of 8 KiB.
  EXPECT_DOUBLE_EQ(t.page_count(), 8);
  Table tiny("tiny", 1, 8);
  EXPECT_DOUBLE_EQ(tiny.page_count(), 1);  // At least one page.
}

TEST(TableTest, ColumnLookupAndIndexes) {
  Table t("t", 100, 16);
  ColumnStats c;
  c.name = "key";
  t.AddColumn(c);
  t.AddIndex("key");
  EXPECT_NE(t.FindColumn("key"), nullptr);
  EXPECT_EQ(t.FindColumn("missing"), nullptr);
  EXPECT_TRUE(t.HasIndexOn("key"));
  EXPECT_FALSE(t.HasIndexOn("missing"));
}

TEST(TpcHCatalogTest, EightTablesWithSpecCardinalities) {
  const Catalog catalog = Catalog::TpcH(1.0);
  ASSERT_EQ(catalog.num_tables(), 8);
  EXPECT_DOUBLE_EQ(catalog.table(kRegion).row_count(), 5);
  EXPECT_DOUBLE_EQ(catalog.table(kNation).row_count(), 25);
  EXPECT_DOUBLE_EQ(catalog.table(kSupplier).row_count(), 10000);
  EXPECT_DOUBLE_EQ(catalog.table(kCustomer).row_count(), 150000);
  EXPECT_DOUBLE_EQ(catalog.table(kPart).row_count(), 200000);
  EXPECT_DOUBLE_EQ(catalog.table(kPartsupp).row_count(), 800000);
  EXPECT_DOUBLE_EQ(catalog.table(kOrders).row_count(), 1500000);
  EXPECT_DOUBLE_EQ(catalog.table(kLineitem).row_count(), 6001215);
}

TEST(TpcHCatalogTest, ScaleFactorScalesBigTables) {
  const Catalog catalog = Catalog::TpcH(0.1);
  EXPECT_NEAR(catalog.table(kLineitem).row_count(), 600122, 1);
  // Region and nation are fixed-size per the TPC-H spec.
  EXPECT_DOUBLE_EQ(catalog.table(kRegion).row_count(), 5);
  EXPECT_DOUBLE_EQ(catalog.table(kNation).row_count(), 25);
}

TEST(TpcHCatalogTest, KeysAreIndexed) {
  const Catalog catalog = Catalog::TpcH(1.0);
  EXPECT_TRUE(catalog.table(kLineitem).HasIndexOn("l_orderkey"));
  EXPECT_TRUE(catalog.table(kOrders).HasIndexOn("o_custkey"));
  EXPECT_TRUE(catalog.table(kCustomer).HasIndexOn("c_custkey"));
  EXPECT_FALSE(catalog.table(kLineitem).HasIndexOn("l_shipdate"));
}

TEST(TpcHCatalogTest, FindTableByName) {
  const Catalog catalog = Catalog::TpcH(1.0);
  EXPECT_EQ(catalog.FindTable("lineitem"), kLineitem);
  EXPECT_EQ(catalog.FindTable("region"), kRegion);
  EXPECT_EQ(catalog.FindTable("nope"), -1);
}

// Every table's frozen canonical encoding equals a fresh encoding of an
// unregistered copy; after an in-place refresh it goes stale until
// BumpEpoch re-freezes it.
void ExpectFrozenEncodingsTrackBumpEpoch(Catalog catalog) {
  for (int id = 0; id < catalog.num_tables(); ++id) {
    const Table copy = catalog.table(id);
    EXPECT_FALSE(catalog.table(id).canonical_encoding().empty());
    EXPECT_EQ(catalog.table(id).canonical_encoding(),
              EncodeCanonicalTable(copy))
        << copy.name();
  }

  std::vector<std::string> before;
  for (int id = 0; id < catalog.num_tables(); ++id) {
    before.push_back(catalog.table(id).canonical_encoding());
    Table& table = catalog.mutable_table(id);
    ColumnStats refreshed = table.columns().front();
    refreshed.name += "_refreshed";
    refreshed.ndv += 1;
    table.AddColumn(refreshed);
    table.AddIndex(refreshed.name);
    EXPECT_EQ(table.canonical_encoding(), before[id]) << table.name();
  }

  const uint64_t epoch = catalog.epoch();
  catalog.BumpEpoch();
  EXPECT_EQ(catalog.epoch(), epoch + 1);
  for (int id = 0; id < catalog.num_tables(); ++id) {
    const Table copy = catalog.table(id);
    EXPECT_NE(catalog.table(id).canonical_encoding(), before[id])
        << copy.name();
    EXPECT_EQ(catalog.table(id).canonical_encoding(),
              EncodeCanonicalTable(copy))
        << copy.name();
  }
}

TEST(CatalogTest, FrozenEncodingsMatchFreshOnesAcrossBumpEpoch) {
  ExpectFrozenEncodingsTrackBumpEpoch(Catalog::TpcH(1.0));
  ExpectFrozenEncodingsTrackBumpEpoch(Catalog::TpcH(0.01));
  ExpectFrozenEncodingsTrackBumpEpoch(testing::MakeTinyCatalog());
}

}  // namespace
}  // namespace moqo
