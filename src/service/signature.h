// Copyright (c) 2026 moqo authors. MIT license.
//
// ProblemSignature: the canonical cache key of the optimization service.
//
// A signature captures everything that determines the *frontier* an
// optimizer produces: the query structure (canonical join-graph encoding,
// src/query/canonical), the active objective selection, the resolved
// algorithm, and the plan-space switches. It is deliberately
// **weight-free**: for the frontier-producing algorithms (EXA, RTA,
// Selinger) the approximate Pareto set does not depend on the request's
// preference, so any weight or bound change on a cached query is answered
// by O(|frontier|) SelectPlan over the shared PlanSet instead of a new DP
// run. Since PR 5 it is also **alpha-free** for those algorithms — the
// relaxed identity the anytime sessions rely on: the precision alpha
// determines how *good* a frontier is, not which problem it answers, so
// the PlanCache tags each entry with its achieved alpha and a
// tighter-alpha entry serves any looser-alpha request (see
// service/plan_cache.h). Contexts that do need exact-run identity — the
// in-flight coalescing map, the session registry — extend the base
// signature with the precision via ExtendSignature. The two
// preference-dependent algorithms (the IRA refines toward its bounds, the
// weighted-sum baseline prunes by weighted cost) encode alpha AND the
// preference bit-exactly, so their entries are reused only for identical
// requests. The full key participates in equality, so hash collisions can
// never return a wrong plan.

#ifndef MOQO_SERVICE_SIGNATURE_H_
#define MOQO_SERVICE_SIGNATURE_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/optimizer.h"
#include "core/algorithm.h"

namespace moqo {

/// An equality-comparable canonical cache key with a precomputed hash.
struct ProblemSignature {
  std::string key;    ///< Canonical byte encoding; defines equality.
  uint64_t hash = 0;  ///< FNV-1a of `key`; shard + hash-table routing.

  bool operator==(const ProblemSignature& other) const {
    return hash == other.hash && key == other.key;
  }
};

/// True iff the algorithm's full output — not just the selected plan —
/// depends on the request's weights/bounds, making its cache entries
/// preference-specific.
inline bool IsPreferenceDependent(AlgorithmKind algorithm) {
  return algorithm == AlgorithmKind::kIra ||
         algorithm == AlgorithmKind::kWeightedSum;
}

/// Computes the signature of running `algorithm` with precision `alpha` on
/// `query` over `objectives` under `options` (only result-relevant
/// switches are encoded: plan space, operator space, pruning mode — not
/// the timeout). `alpha`, `weights` and `bounds` are encoded only when the
/// algorithm IsPreferenceDependent; pass null preferences otherwise (or
/// always — they are ignored for frontier-producing algorithms, whose
/// signatures are alpha- and preference-free by design).
ProblemSignature ComputeSignature(const Query& query,
                                  const ObjectiveSet& objectives,
                                  AlgorithmKind algorithm, double alpha,
                                  const OptimizerOptions& options,
                                  const WeightVector* weights = nullptr,
                                  const BoundVector* bounds = nullptr);

/// `base` with `values` appended bit-exactly, in order: the exact-run
/// identity used where relaxed alpha matching would be wrong — two
/// in-flight runs at different precisions must not coalesce, and two
/// sessions refining to different targets must not share a ladder. The
/// hash continues FNV-1a from `base.hash` over the appended bytes alone,
/// which gives exactly Fnv1a of the extended key as long as
/// `base.hash` is Fnv1a(base.key), as it is for every signature
/// ComputeSignature and ExtendSignature return.
ProblemSignature ExtendSignature(const ProblemSignature& base,
                                 std::span<const double> values);

/// `base` with the single value `alpha` appended.
inline ProblemSignature ExtendSignature(const ProblemSignature& base,
                                        double alpha) {
  return ExtendSignature(base, std::span<const double>(&alpha, 1));
}

}  // namespace moqo

namespace std {
template <>
struct hash<moqo::ProblemSignature> {
  size_t operator()(const moqo::ProblemSignature& sig) const noexcept {
    return static_cast<size_t>(sig.hash);
  }
};
}  // namespace std

#endif  // MOQO_SERVICE_SIGNATURE_H_
