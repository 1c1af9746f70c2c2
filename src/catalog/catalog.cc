#include "catalog/catalog.h"

#include <cmath>

#include "query/canonical.h"

namespace moqo {

int Catalog::AddTable(Table table) {
  table.canonical_encoding_ = EncodeCanonicalTable(table);
  tables_.push_back(std::make_unique<Table>(std::move(table)));
  return static_cast<int>(tables_.size()) - 1;
}

void Catalog::BumpEpoch() {
  for (const auto& table : tables_) {
    table->canonical_encoding_ = EncodeCanonicalTable(*table);
  }
  ++epoch_;
}

int Catalog::FindTable(const std::string& name) const {
  for (int i = 0; i < num_tables(); ++i) {
    if (tables_[i]->name() == name) return i;
  }
  return -1;
}

namespace {

// Adds a numeric column with a uniform histogram spanning [lo, hi].
void AddUniformColumn(Table* table, const std::string& name, double ndv,
                      double lo, double hi, double width_bytes = 8) {
  ColumnStats stats;
  stats.name = name;
  stats.ndv = ndv;
  stats.min_value = lo;
  stats.max_value = hi;
  stats.avg_width_bytes = width_bytes;
  stats.histogram = Histogram::Uniform(lo, hi, 32, table->row_count());
  table->AddColumn(std::move(stats));
}

}  // namespace

Catalog Catalog::TpcH(double scale_factor) {
  const double sf = scale_factor;
  Catalog catalog;

  // Cardinalities per the TPC-H specification; row widths approximate the
  // average tuple sizes of a Postgres TPC-H load.
  Table region("region", 5, 120);
  AddUniformColumn(&region, "r_regionkey", 5, 0, 4);
  region.AddIndex("r_regionkey");
  catalog.AddTable(std::move(region));

  Table nation("nation", 25, 128);
  AddUniformColumn(&nation, "n_nationkey", 25, 0, 24);
  AddUniformColumn(&nation, "n_regionkey", 5, 0, 4);
  nation.AddIndex("n_nationkey");
  nation.AddIndex("n_regionkey");
  catalog.AddTable(std::move(nation));

  Table supplier("supplier", std::round(10000 * sf), 160);
  AddUniformColumn(&supplier, "s_suppkey", 10000 * sf, 1, 10000 * sf);
  AddUniformColumn(&supplier, "s_nationkey", 25, 0, 24);
  supplier.AddIndex("s_suppkey");
  supplier.AddIndex("s_nationkey");
  catalog.AddTable(std::move(supplier));

  Table customer("customer", std::round(150000 * sf), 180);
  AddUniformColumn(&customer, "c_custkey", 150000 * sf, 1, 150000 * sf);
  AddUniformColumn(&customer, "c_nationkey", 25, 0, 24);
  AddUniformColumn(&customer, "c_mktsegment", 5, 0, 4, 10);
  customer.AddIndex("c_custkey");
  customer.AddIndex("c_nationkey");
  catalog.AddTable(std::move(customer));

  Table part("part", std::round(200000 * sf), 156);
  AddUniformColumn(&part, "p_partkey", 200000 * sf, 1, 200000 * sf);
  AddUniformColumn(&part, "p_brand", 25, 0, 24, 10);
  AddUniformColumn(&part, "p_type", 150, 0, 149, 25);
  AddUniformColumn(&part, "p_size", 50, 1, 50, 4);
  part.AddIndex("p_partkey");
  catalog.AddTable(std::move(part));

  Table partsupp("partsupp", std::round(800000 * sf), 144);
  AddUniformColumn(&partsupp, "ps_partkey", 200000 * sf, 1, 200000 * sf);
  AddUniformColumn(&partsupp, "ps_suppkey", 10000 * sf, 1, 10000 * sf);
  partsupp.AddIndex("ps_partkey");
  partsupp.AddIndex("ps_suppkey");
  catalog.AddTable(std::move(partsupp));

  Table orders("orders", std::round(1500000 * sf), 110);
  AddUniformColumn(&orders, "o_orderkey", 1500000 * sf, 1, 6000000 * sf);
  AddUniformColumn(&orders, "o_custkey", 99996 * sf, 1, 150000 * sf);
  AddUniformColumn(&orders, "o_orderdate", 2406, 0, 2405, 4);
  orders.AddIndex("o_orderkey");
  orders.AddIndex("o_custkey");
  catalog.AddTable(std::move(orders));

  Table lineitem("lineitem", std::round(6001215 * sf), 112);
  AddUniformColumn(&lineitem, "l_orderkey", 1500000 * sf, 1, 6000000 * sf);
  AddUniformColumn(&lineitem, "l_partkey", 200000 * sf, 1, 200000 * sf);
  AddUniformColumn(&lineitem, "l_suppkey", 10000 * sf, 1, 10000 * sf);
  AddUniformColumn(&lineitem, "l_shipdate", 2526, 0, 2525, 4);
  AddUniformColumn(&lineitem, "l_quantity", 50, 1, 50, 4);
  lineitem.AddIndex("l_orderkey");
  lineitem.AddIndex("l_partkey");
  lineitem.AddIndex("l_suppkey");
  catalog.AddTable(std::move(lineitem));

  return catalog;
}

}  // namespace moqo
