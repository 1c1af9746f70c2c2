// Copyright (c) 2026 moqo authors. MIT license.
//
// The service's request/response vocabulary, shared by the one-shot API
// (Submit/SubmitAndWait) and the anytime session API (OpenFrontier). Split
// out of optimization_service.h so FrontierSession can speak the same
// types without a header cycle.
//
// A request is a (ProblemSpec, Preference) pair. The spec — query +
// objectives + algorithm/alpha — determines the *frontier* (the
// approximate Pareto set); the preference — weights + bounds + deadline —
// only determines which of its plans is selected. That split is what makes
// frontiers cacheable, preferences answerable in O(|frontier|), and
// refinement sessions preference-free.

#ifndef MOQO_SERVICE_REQUEST_H_
#define MOQO_SERVICE_REQUEST_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "core/algorithm.h"
#include "core/optimizer.h"
#include "core/plan_set.h"

namespace moqo {

/// WHAT to optimize: everything that determines the frontier, and nothing
/// that merely picks a plan from it. Two requests with equal specs share
/// one cached PlanSet regardless of their preferences. The service shares
/// ownership of the query for the lifetime of the request (wrap long-lived
/// queries the caller owns with UnownedQuery()).
struct ProblemSpec {
  std::shared_ptr<const Query> query;
  ObjectiveSet objectives;
  /// Overrides for the policy layer's auto-selection. Note: kIra and
  /// kWeightedSum produce preference-dependent output, so their cache
  /// entries and runs are shared only between identical preferences, and
  /// only Submit() serves them (OpenFrontier is preference-free by design).
  std::optional<AlgorithmKind> algorithm;
  std::optional<double> alpha;
  /// Override for the policy's intra-query DP parallelism (1 = force
  /// serial). Never part of the cache key: the frontier is identical for
  /// every value.
  std::optional<int> parallelism;
};

/// HOW to choose from the frontier: the request-time scalarization inputs
/// plus the latency budget. Changing only the preference on a cached spec
/// is a frontier hit — O(|frontier|) SelectPlan, no optimizer run.
struct Preference {
  /// Defaults to uniform over the spec's objectives when empty.
  WeightVector weights;
  /// Empty or all-infinite = weighted MOQO; finite bounds are honored at
  /// selection time (bounded SelectBest of Algorithm 1).
  BoundVector bounds;
  /// Total budget (queue wait + optimization) in ms; -1 = service default.
  int64_t deadline_ms = -1;
};

/// One optimization request: a spec and a preference over its frontier.
struct ServiceRequest {
  ProblemSpec spec;
  Preference preference;
};

enum class ResponseStatus : uint8_t {
  /// Full optimization (or cache/coalesced hit): the guarantee of the
  /// chosen algorithm holds.
  kCompleted,
  /// Deadline expired before or during optimization; the result carries
  /// the Section 5.1 quick-mode plan (valid, but no approximation
  /// guarantee).
  kCompletedQuick,
  /// Shed by admission control, submitted after shutdown, or failed with
  /// an internal optimizer error (e.g. out of memory); no result.
  kRejected,
};

/// How (and whether) the cache answered the request.
enum class CacheOutcome : uint8_t {
  kMiss,          ///< Ran the optimizer.
  kExactHit,      ///< Cached entry with the same preference: reused verbatim.
  kFrontierHit,   ///< Cached PlanSet, new preference: O(|frontier|) selection.
  kCoalescedHit,  ///< Waited on an identical in-flight miss, then selected.
  kTierHit,       ///< Missed RAM, served from the disk tier (and promoted).
};

struct ServiceResponse {
  ResponseStatus status = ResponseStatus::kRejected;
  CacheOutcome cache = CacheOutcome::kMiss;
  AlgorithmKind algorithm = AlgorithmKind::kRta;
  /// The approximation guarantee of the served frontier. A relaxed-alpha
  /// cache hit reports the *achieved* (tighter) alpha, which may be below
  /// the requested one.
  double alpha = 1.0;
  /// Never null unless status == kRejected. Carries the shared PlanSet
  /// (result->plan_set) and the preference's selection from it.
  std::shared_ptr<const OptimizerResult> result;
  /// Time from Submit() to worker pickup (0 for cache hits / rejects).
  double queue_ms = 0;
  /// Total time from Submit() to response.
  double service_ms = 0;

  /// True for exact, frontier, and disk-tier hits (not for coalesced
  /// waits: those did wait for an optimizer run, just not their own).
  bool cache_hit() const {
    return cache == CacheOutcome::kExactHit ||
           cache == CacheOutcome::kFrontierHit ||
           cache == CacheOutcome::kTierHit;
  }

  /// The full approximate Pareto set behind this response, shared with the
  /// cache and any sibling responses; null iff rejected.
  std::shared_ptr<const PlanSet> plan_set() const {
    return result ? result->plan_set : nullptr;
  }
};

/// Wraps a caller-owned query (which must outlive all requests using it)
/// in a non-owning shared_ptr.
inline std::shared_ptr<const Query> UnownedQuery(const Query* query) {
  return std::shared_ptr<const Query>(query, [](const Query*) {});
}

}  // namespace moqo

#endif  // MOQO_SERVICE_REQUEST_H_
