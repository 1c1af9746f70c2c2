// Copyright (c) 2026 moqo authors. MIT license.
//
// Canonical binary encoding of a query's optimizer-relevant structure.
//
// Two Query objects that bind the same catalog tables with the same join
// edges and filters — regardless of construction order of joins/filters or
// the query's display name — produce byte-identical encodings. The service
// layer keys its plan cache on this encoding (plus problem parameters), so
// structurally identical requests share cached Pareto sets.

#ifndef MOQO_QUERY_CANONICAL_H_
#define MOQO_QUERY_CANONICAL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "query/query.h"

namespace moqo {

/// Appends a length-prefixed string to a canonical encoding.
void AppendCanonicalString(std::string* out, const std::string& s);

/// Appends a 64-bit value little-endian.
void AppendCanonicalU64(std::string* out, uint64_t v);

/// Appends a double bit-exactly (its IEEE-754 representation).
void AppendCanonicalDouble(std::string* out, double v);

/// The FNV-1a 64-bit offset basis: the hash state of the empty string.
inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;

/// FNV-1a over a canonical encoding; the hash every canonical cache key
/// (service/signature, memo/subplan_key) derives its routing value from.
/// FNV-1a is a streaming hash: the hash of a prefix is the state after
/// it, so passing that hash as `state` continues over appended bytes, and
/// Fnv1aHash(b, Fnv1aHash(a)) == Fnv1aHash(a + b).
uint64_t Fnv1aHash(std::string_view data, uint64_t state = kFnv1aOffsetBasis);

/// The canonical *content* encoding of one table: everything the cost
/// model reads (name, cardinality, widths, per-column statistics and
/// histograms, index availability). Identity is by content, so the same
/// table id over a differently scaled or differently distributed catalog
/// encodes differently. Catalog freezes it into the table at registration
/// (Table::canonical_encoding), and keys append the frozen copy.
std::string EncodeCanonicalTable(const Table& table);

/// Appends `table`'s frozen canonical encoding. Shared by the whole-query
/// encoding below and the table-set-level subplan memo keys. `table` must
/// be registered with a Catalog.
void AppendCanonicalTable(std::string* out, const Table& table);

/// Appends the canonical encoding of `query`'s structure to `out`:
/// referenced tables in query-local order — including everything the cost
/// model reads from the catalog (cardinality, widths, per-column
/// statistics and histograms, index availability), so the same table ids
/// over differently scaled or differently distributed catalogs encode
/// differently — then join edges with endpoints ordered and the edge list
/// sorted, then filters sorted. The query name is deliberately excluded.
void AppendCanonicalQuery(std::string* out, const Query& query);

/// Convenience wrapper returning the encoding of just the query structure.
std::string CanonicalQueryEncoding(const Query& query);

}  // namespace moqo

#endif  // MOQO_QUERY_CANONICAL_H_
