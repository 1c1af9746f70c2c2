// Copyright (c) 2026 moqo authors. MIT license.

#include "service/signature.h"

#include <cstring>
#include <limits>

#include "query/canonical.h"

namespace moqo {
namespace {

constexpr uint64_t kUnboundedSentinel = std::numeric_limits<uint64_t>::max();

uint64_t DoubleBits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

ProblemSignature ComputeSignature(const Query& query,
                                  const ObjectiveSet& objectives,
                                  AlgorithmKind algorithm, double alpha,
                                  const OptimizerOptions& options,
                                  const WeightVector* weights,
                                  const BoundVector* bounds) {
  // The frozen table encodings dominate the key; reserve for them and
  // the predicates up front so the key is built without regrowing.
  size_t reserve = 256 + 64 * (query.joins().size() + query.filters().size());
  for (int i = 0; i < query.num_tables(); ++i) {
    reserve += 8 + query.table(i).canonical_encoding().size();
  }
  std::string key;
  key.reserve(reserve);

  AppendCanonicalQuery(&key, query);

  // Objective selection, in order: the order fixes CostVector dimensions.
  AppendCanonicalU64(&key, static_cast<uint64_t>(objectives.size()));
  for (Objective objective : objectives) {
    AppendCanonicalU64(&key, static_cast<uint64_t>(objective));
  }

  // Resolved algorithm: an RTA result must never be served to a request
  // the policy resolved to the EXA, and vice versa. The precision alpha is
  // deliberately NOT part of the frontier-algorithm key — the cache tags
  // entries with their achieved alpha and serves any looser request from a
  // tighter entry (relaxed identity; see the header comment).
  AppendCanonicalU64(&key, static_cast<uint64_t>(algorithm));

  // Result-relevant optimizer switches (the timeout is deliberately
  // excluded: only non-timed-out results are cached, so a cached entry is
  // valid for any deadline).
  uint64_t flags = 0;
  flags |= options.bushy ? 1u : 0u;
  flags |= options.cartesian_heuristic ? 2u : 0u;
  flags |= options.aggressive_delete ? 4u : 0u;
  flags |= options.operators.enable_sampling ? 8u : 0u;
  flags |= options.operators.enable_index_scan ? 16u : 0u;
  flags |= options.operators.enable_parallelism ? 32u : 0u;
  AppendCanonicalU64(&key, flags);
  AppendCanonicalU64(&key, static_cast<uint64_t>(options.max_iterations));
  AppendCanonicalU64(&key, options.operators.sampling_rates.size());
  for (double rate : options.operators.sampling_rates) {
    AppendCanonicalDouble(&key, rate);
  }
  AppendCanonicalU64(&key, options.operators.dops.size());
  for (int dop : options.operators.dops) {
    AppendCanonicalU64(&key, static_cast<uint64_t>(dop));
  }

  // Preference-dependent algorithms only: their frontier is tailored to
  // the given precision and weights/bounds, so equal keys must mean equal
  // requests. Frontier-producing algorithms skip this block entirely —
  // that is what makes a weight-only change (and, since PR 5, an
  // alpha-only relaxation) a cache hit.
  if (IsPreferenceDependent(algorithm)) {
    AppendCanonicalDouble(&key, alpha);
    const int num_weights = weights != nullptr ? weights->size() : 0;
    AppendCanonicalU64(&key, static_cast<uint64_t>(num_weights));
    for (int i = 0; i < num_weights; ++i) {
      AppendCanonicalU64(&key, DoubleBits((*weights)[i]));
    }
    // A default-constructed (size-0) BoundVector and an explicit
    // all-unbounded one describe the same weighted-MOQO instance
    // (MOQOProblem::IsWeightedOnly); canonicalize both to the empty
    // encoding so they share cache entries.
    if (bounds == nullptr || bounds->AllUnbounded()) {
      AppendCanonicalU64(&key, 0);
    } else {
      AppendCanonicalU64(&key, static_cast<uint64_t>(bounds->size()));
      for (int i = 0; i < bounds->size(); ++i) {
        AppendCanonicalU64(&key, bounds->IsUnbounded(i)
                                     ? kUnboundedSentinel
                                     : DoubleBits((*bounds)[i]));
      }
    }
  }

  ProblemSignature signature;
  signature.hash = Fnv1aHash(key);
  signature.key = std::move(key);
  return signature;
}

ProblemSignature ExtendSignature(const ProblemSignature& base,
                                 std::span<const double> values) {
  ProblemSignature extended;
  extended.key.reserve(base.key.size() + 8 * values.size());
  extended.key.append(base.key);
  for (double value : values) AppendCanonicalDouble(&extended.key, value);
  extended.hash = Fnv1aHash(
      std::string_view(extended.key).substr(base.key.size()), base.hash);
  return extended;
}

}  // namespace moqo
