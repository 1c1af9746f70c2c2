// Copyright (c) 2026 moqo authors. MIT license.
//
// Table metadata: schema, cardinality, physical layout, and index
// availability. Base-table cardinalities follow the TPC-H specification at
// a configurable scale factor.

#ifndef MOQO_CATALOG_TABLE_H_
#define MOQO_CATALOG_TABLE_H_

#include <string>
#include <vector>

#include "catalog/column_stats.h"

namespace moqo {

/// Physical metadata for one base table.
class Table {
 public:
  Table(std::string name, double row_count, double row_width_bytes)
      : name_(std::move(name)),
        row_count_(row_count),
        row_width_bytes_(row_width_bytes) {}

  const std::string& name() const { return name_; }
  double row_count() const { return row_count_; }
  double row_width_bytes() const { return row_width_bytes_; }

  /// Pages of 8 KiB, the Postgres default block size.
  double page_count() const {
    constexpr double kPageBytes = 8192.0;
    return std::max(1.0, row_count_ * row_width_bytes_ / kPageBytes);
  }

  void AddColumn(ColumnStats stats) { columns_.push_back(std::move(stats)); }
  const std::vector<ColumnStats>& columns() const { return columns_; }

  /// Looks up a column by name; returns nullptr if absent.
  const ColumnStats* FindColumn(const std::string& column_name) const;

  /// Whether a B-tree index exists that can drive an IndexScan /
  /// Index-Nested-Loop join on `column_name`. TPC-H primary and foreign
  /// keys are indexed in our synthetic physical design.
  bool HasIndexOn(const std::string& column_name) const;
  void AddIndex(const std::string& column_name) {
    indexed_columns_.push_back(column_name);
  }

  /// The table's canonical content encoding (query/canonical.h
  /// EncodeCanonicalTable), frozen when a Catalog registers the table and
  /// re-frozen by Catalog::BumpEpoch. Every cache key that covers this
  /// table appends these bytes instead of re-encoding the statistics.
  /// Empty for a table no catalog holds.
  const std::string& canonical_encoding() const { return canonical_encoding_; }

 private:
  friend class Catalog;

  std::string name_;
  double row_count_;
  double row_width_bytes_;
  std::vector<ColumnStats> columns_;
  std::vector<std::string> indexed_columns_;
  std::string canonical_encoding_;
};

}  // namespace moqo

#endif  // MOQO_CATALOG_TABLE_H_
