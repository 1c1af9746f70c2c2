// Copyright (c) 2026 moqo authors. MIT license.

#include "query/canonical.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "util/byte_codec.h"

namespace moqo {

void AppendCanonicalString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

/// Catalog identity by content: the same table id over a differently
/// scaled or differently distributed catalog must not share an encoding.
/// Everything the cost model reads is covered — cardinality, widths,
/// per-column statistics (histograms drive selectivities), and index
/// availability (drives the physical plan space).
std::string EncodeCanonicalTable(const Table& table) {
  // The encoding lives as long as its table: size it exactly, once.
  size_t bytes = 8 + table.name().size() + 3 * 8;
  for (const ColumnStats& column : table.columns()) {
    bytes += 8 + column.name.size() + 9 * 8 +
             8 * static_cast<size_t>(column.histogram.num_buckets());
  }
  std::string encoding;
  encoding.reserve(bytes);
  AppendCanonicalString(&encoding, table.name());
  PutF64(&encoding, table.row_count());
  PutF64(&encoding, table.row_width_bytes());
  PutU64(&encoding, table.columns().size());
  for (const ColumnStats& column : table.columns()) {
    AppendCanonicalString(&encoding, column.name);
    PutF64(&encoding, column.ndv);
    PutF64(&encoding, column.min_value);
    PutF64(&encoding, column.max_value);
    PutF64(&encoding, column.null_fraction);
    PutF64(&encoding, column.avg_width_bytes);
    PutU64(&encoding, table.HasIndexOn(column.name) ? 1 : 0);
    const Histogram& histogram = column.histogram;
    PutF64(&encoding, histogram.lo());
    PutF64(&encoding, histogram.hi());
    PutU64(&encoding, static_cast<uint64_t>(histogram.num_buckets()));
    for (int b = 0; b < histogram.num_buckets(); ++b) {
      PutF64(&encoding, histogram.bucket_count(b));
    }
  }
  return encoding;
}

void AppendCanonicalTable(std::string* out, const Table& table) {
  out->append(table.canonical_encoding());
}

void AppendCanonicalQuery(std::string* out, const Query& query) {
  PutU64(out, static_cast<uint64_t>(query.num_tables()));
  for (int i = 0; i < query.num_tables(); ++i) {
    PutU64(out, static_cast<uint64_t>(query.table_id(i)));
    AppendCanonicalTable(out, query.table(i));
  }

  // Normalize each edge so the lexicographically smaller (table, column)
  // endpoint comes first, then sort the edge list: AddJoin(a, b) and
  // AddJoin(b, a) in any order encode identically.
  using Endpoint = std::pair<int, const std::string*>;
  std::vector<std::pair<Endpoint, Endpoint>> edges;
  edges.reserve(query.joins().size());
  for (const JoinPredicate& join : query.joins()) {
    Endpoint a{join.left_table, &join.left_column};
    Endpoint b{join.right_table, &join.right_column};
    if (std::tie(b.first, *b.second) < std::tie(a.first, *a.second)) {
      std::swap(a, b);
    }
    edges.emplace_back(a, b);
  }
  std::sort(edges.begin(), edges.end(),
            [](const auto& x, const auto& y) {
              return std::tie(x.first.first, *x.first.second, x.second.first,
                              *x.second.second) <
                     std::tie(y.first.first, *y.first.second, y.second.first,
                              *y.second.second);
            });
  PutU64(out, edges.size());
  for (const auto& [a, b] : edges) {
    PutU64(out, static_cast<uint64_t>(a.first));
    AppendCanonicalString(out, *a.second);
    PutU64(out, static_cast<uint64_t>(b.first));
    AppendCanonicalString(out, *b.second);
  }

  std::vector<const FilterPredicate*> filters;
  filters.reserve(query.filters().size());
  for (const FilterPredicate& filter : query.filters()) {
    filters.push_back(&filter);
  }
  std::sort(filters.begin(), filters.end(),
            [](const FilterPredicate* x, const FilterPredicate* y) {
              return std::tie(x->table, x->column, x->op, x->value,
                              x->value_hi) < std::tie(y->table, y->column,
                                                      y->op, y->value,
                                                      y->value_hi);
            });
  PutU64(out, filters.size());
  for (const FilterPredicate* filter : filters) {
    PutU64(out, static_cast<uint64_t>(filter->table));
    AppendCanonicalString(out, filter->column);
    PutU64(out, static_cast<uint64_t>(filter->op));
    PutF64(out, filter->value);
    PutF64(out, filter->value_hi);
  }
}

std::string CanonicalQueryEncoding(const Query& query) {
  std::string out;
  AppendCanonicalQuery(&out, query);
  return out;
}

}  // namespace moqo
