// Copyright (c) 2026 moqo authors. MIT license.

#include "query/canonical.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

namespace moqo {

void AppendCanonicalString(std::string* out, const std::string& s) {
  AppendCanonicalU64(out, s.size());
  out->append(s);
}

void AppendCanonicalU64(std::string* out, uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, sizeof(bytes));
}

void AppendCanonicalDouble(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendCanonicalU64(out, bits);
}

uint64_t Fnv1aHash(std::string_view data, uint64_t state) {
  for (unsigned char c : data) {
    state ^= c;
    state *= 1099511628211ull;
  }
  return state;
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
  AppendCanonicalDouble(&encoding, table.row_count());
  AppendCanonicalDouble(&encoding, table.row_width_bytes());
  AppendCanonicalU64(&encoding, table.columns().size());
  for (const ColumnStats& column : table.columns()) {
    AppendCanonicalString(&encoding, column.name);
    AppendCanonicalDouble(&encoding, column.ndv);
    AppendCanonicalDouble(&encoding, column.min_value);
    AppendCanonicalDouble(&encoding, column.max_value);
    AppendCanonicalDouble(&encoding, column.null_fraction);
    AppendCanonicalDouble(&encoding, column.avg_width_bytes);
    AppendCanonicalU64(&encoding, table.HasIndexOn(column.name) ? 1 : 0);
    const Histogram& histogram = column.histogram;
    AppendCanonicalDouble(&encoding, histogram.lo());
    AppendCanonicalDouble(&encoding, histogram.hi());
    AppendCanonicalU64(&encoding,
                       static_cast<uint64_t>(histogram.num_buckets()));
    for (int b = 0; b < histogram.num_buckets(); ++b) {
      AppendCanonicalDouble(&encoding, histogram.bucket_count(b));
    }
  }
  return encoding;
}

void AppendCanonicalTable(std::string* out, const Table& table) {
  out->append(table.canonical_encoding());
}

void AppendCanonicalQuery(std::string* out, const Query& query) {
  AppendCanonicalU64(out, static_cast<uint64_t>(query.num_tables()));
  for (int i = 0; i < query.num_tables(); ++i) {
    AppendCanonicalU64(out, static_cast<uint64_t>(query.table_id(i)));
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
  AppendCanonicalU64(out, edges.size());
  for (const auto& [a, b] : edges) {
    AppendCanonicalU64(out, static_cast<uint64_t>(a.first));
    AppendCanonicalString(out, *a.second);
    AppendCanonicalU64(out, static_cast<uint64_t>(b.first));
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
  AppendCanonicalU64(out, filters.size());
  for (const FilterPredicate* filter : filters) {
    AppendCanonicalU64(out, static_cast<uint64_t>(filter->table));
    AppendCanonicalString(out, filter->column);
    AppendCanonicalU64(out, static_cast<uint64_t>(filter->op));
    AppendCanonicalDouble(out, filter->value);
    AppendCanonicalDouble(out, filter->value_hi);
  }
}

std::string CanonicalQueryEncoding(const Query& query) {
  std::string out;
  AppendCanonicalQuery(&out, query);
  return out;
}

}  // namespace moqo
