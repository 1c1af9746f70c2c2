// Copyright (c) 2026 moqo authors. MIT license.
//
// Shared fixtures for the moqo test suite: a tiny synthetic catalog and
// query shapes small enough for exhaustive cross-checking against the EXA.

#ifndef MOQO_TESTS_TESTING_TEST_HELPERS_H_
#define MOQO_TESTS_TESTING_TEST_HELPERS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/optimizer.h"
#include "plan/operators.h"
#include "query/query.h"
#include "util/byte_codec.h"
#include "util/random.h"

namespace moqo {
namespace testing {

/// A small four-table star-ish catalog (fact + three dimensions) with
/// indexes on the keys; cardinalities are tiny so exact optimization over
/// all subsets stays in the milliseconds.
inline Catalog MakeTinyCatalog() {
  Catalog catalog;

  Table fact("fact", 10000, 64);
  {
    ColumnStats key;
    key.name = "f_d1";
    key.ndv = 100;
    key.min_value = 0;
    key.max_value = 99;
    key.histogram = Histogram::Uniform(0, 99, 8, 10000);
    fact.AddColumn(key);
    ColumnStats d2 = key;
    d2.name = "f_d2";
    fact.AddColumn(d2);
    ColumnStats d3 = key;
    d3.name = "f_d3";
    fact.AddColumn(d3);
    ColumnStats v;
    v.name = "f_value";
    v.ndv = 1000;
    v.min_value = 0;
    v.max_value = 999;
    v.histogram = Histogram::Uniform(0, 999, 8, 10000);
    fact.AddColumn(v);
  }
  fact.AddIndex("f_d1");
  catalog.AddTable(std::move(fact));

  for (int d = 1; d <= 3; ++d) {
    Table dim("dim" + std::to_string(d), 100, 32);
    ColumnStats key;
    key.name = "d" + std::to_string(d) + "_key";
    key.ndv = 100;
    key.min_value = 0;
    key.max_value = 99;
    key.histogram = Histogram::Uniform(0, 99, 8, 100);
    dim.AddColumn(key);
    dim.AddIndex(key.name);
    catalog.AddTable(std::move(dim));
  }
  return catalog;
}

/// Star query joining the fact table with the first `num_dims` dimensions.
inline Query MakeStarQuery(const Catalog* catalog, int num_dims) {
  Query query(catalog, "star" + std::to_string(num_dims));
  const int fact = query.AddTable("fact");
  for (int d = 1; d <= num_dims; ++d) {
    const int dim = query.AddTable("dim" + std::to_string(d));
    query.AddJoin(fact, "f_d" + std::to_string(d), dim,
                  "d" + std::to_string(d) + "_key");
  }
  return query;
}

/// A compact operator space for fast tests: 4 scan configs (2 types x
/// {full, 5% sample}) and 8 join configs (4 types x DOP {1, 2}).
inline OperatorRegistry::Options SmallOperatorSpace() {
  OperatorRegistry::Options options;
  options.sampling_rates = {0.05};
  options.dops = {1, 2};
  return options;
}

/// Optimizer options preconfigured with the small operator space.
inline OptimizerOptions SmallOptions(double alpha = 1.0) {
  OptimizerOptions options;
  options.alpha = alpha;
  options.operators = SmallOperatorSpace();
  return options;
}

/// Random valid cost vector with `dims` dimensions in [0, scale).
inline CostVector RandomCostVector(Xoshiro256* rng, int dims,
                                   double scale = 100.0) {
  CostVector cost(dims);
  for (int i = 0; i < dims; ++i) cost[i] = rng->NextDouble() * scale;
  return cost;
}

/// Checks encoded bytes (a wire frame, a persisted block, a cache key)
/// against pinned values: their size and a digest that does not use
/// FNV-1a, so a change to the shared hash cannot move the pin with it.
inline void ExpectGoldenBytes(std::string_view bytes, size_t size,
                              uint64_t digest) {
  uint64_t bytes_digest = 0;
  for (unsigned char c : bytes) bytes_digest = bytes_digest * 131 + c;
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(bytes_digest, digest);
}

/// Checks a canonical cache key (ProblemSignature, SubplanSignature)
/// against pinned values: its size and digest (so the key bytes
/// themselves are pinned, not only the hash that routes them), and its
/// hash, which must also be FNV-1a of the key.
template <typename Signature>
void ExpectGoldenKey(const Signature& signature, size_t size,
                     uint64_t digest, uint64_t hash) {
  ExpectGoldenBytes(signature.key, size, digest);
  EXPECT_EQ(signature.hash, hash);
  EXPECT_EQ(signature.hash, Fnv1a(signature.key));
}

}  // namespace testing
}  // namespace moqo

#endif  // MOQO_TESTS_TESTING_TEST_HELPERS_H_
