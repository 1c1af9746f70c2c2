// Copyright (c) 2026 moqo authors. MIT license.

#include "service/optimization_service.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "model/cost_model.h"
#include "persist/disk_tier.h"
#include "persist/frontier_codec.h"
#include "persist/plan_set_codec.h"
#include "persist/snapshot.h"
#include "rt/failpoint.h"
#include "util/deadline.h"

namespace moqo {

namespace {

constexpr double kInfiniteAlpha = std::numeric_limits<double>::infinity();

/// mkdir -p, best-effort: any real failure surfaces when the tier or the
/// snapshot writer tries to create files inside.
void MakePersistDir(const std::string& path) {
  for (size_t i = 1; i < path.size(); ++i) {
    if (path[i] == '/') ::mkdir(path.substr(0, i).c_str(), 0755);
  }
  ::mkdir(path.c_str(), 0755);
}

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ResolveWorkers(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// EXA and Selinger are exact regardless of the requested precision, so
/// their cache entries are tagged alpha = 1 — maximally reusable under the
/// relaxed identity.
double AchievedAlpha(AlgorithmKind algorithm, double alpha) {
  const bool exact = algorithm == AlgorithmKind::kExa ||
                     algorithm == AlgorithmKind::kSelinger;
  return exact ? 1.0 : alpha;
}

/// The session's precision schedule: geometric in log-alpha from `start`
/// down to `target` in at most `max_steps` rungs, strictly decreasing,
/// ending bit-exactly at the target. start <= target collapses to the
/// single-rung {target} ladder (Submit()'s one-step sessions).
std::vector<double> MakeAlphaLadder(double start, double target,
                                    int max_steps) {
  if (target < 1.0) target = 1.0;
  if (max_steps < 1) max_steps = 1;
  if (start <= target || max_steps == 1) return {target};
  std::vector<double> ladder;
  ladder.reserve(max_steps);
  const double log_start = std::log(start);
  const double log_target = std::log(target);
  for (int i = 0; i < max_steps; ++i) {
    const double t = static_cast<double>(i) / (max_steps - 1);
    ladder.push_back(std::exp(log_start + (log_target - log_start) * t));
  }
  ladder.back() = target;
  return ladder;
}

/// Exact identity of one refinement: the alpha-free cache key extended
/// with every rung precision and the per-rung budget. Sessions coalesce
/// only when the whole schedule matches — sharing a ladder that refines
/// differently would change what a caller observes.
ProblemSignature SessionKey(const ProblemSignature& base,
                            const std::vector<double>& ladder,
                            int64_t step_deadline_ms) {
  std::vector<double> schedule = ladder;
  schedule.push_back(static_cast<double>(step_deadline_ms));
  return ExtendSignature(base, schedule);
}

/// Builds a result over `plan_set` with `base`'s cold-run metrics and the
/// plan the preference selects from it. O(|plan_set|), no optimizer.
std::shared_ptr<const OptimizerResult> ResultOverPlanSet(
    const std::shared_ptr<const OptimizerResult>& base,
    std::shared_ptr<const PlanSet> plan_set, const WeightVector& weights,
    const BoundVector& bounds) {
  auto result = std::make_shared<OptimizerResult>();
  result->plan_set = std::move(plan_set);
  result->metrics = base->metrics;
  const PlanSelection selection =
      SelectPlan(*result->plan_set, weights, bounds);
  if (selection.plan != nullptr) {
    result->plan = selection.plan;
    result->cost = selection.cost;
    result->weighted_cost = selection.weighted_cost;
    result->respects_bounds =
        bounds.size() == 0 || bounds.Respects(selection.cost);
  }
  return result;
}

/// Scalarizes `base`'s shared PlanSet for a new preference: same frontier
/// and cold-run metrics, re-selected plan. O(|frontier|), no optimizer.
std::shared_ptr<const OptimizerResult> ReselectResult(
    const std::shared_ptr<const OptimizerResult>& base,
    const WeightVector& weights, const BoundVector& bounds) {
  return ResultOverPlanSet(base, base->plan_set, weights, bounds);
}

/// `preference` normalized against a spec of `dims` objectives: empty or
/// mis-sized weights mean uniform, mis-sized bounds mean unbounded. The
/// normalized form is what selection, caching, and hit classification all
/// see.
Preference NormalizePreference(Preference preference, int dims) {
  if (preference.weights.size() != dims) {
    preference.weights = WeightVector::Uniform(dims);
  }
  if (preference.bounds.size() != dims) preference.bounds = BoundVector();
  return preference;
}

}  // namespace

/// One Submit() call: what each of its opens needs (the first, and a
/// reopen after a shared ladder degraded), and the promise the last one
/// resolves.
struct OptimizationService::SubmitCall {
  ProblemSpec spec;
  Preference preference;  ///< Normalized against the spec at Submit().
  int64_t deadline_ms = -1;  ///< Total budget; -1 = none.
  StopWatch since_submit;
  std::promise<ServiceResponse> promise;
};

OptimizationService::OptimizationService(ServiceOptions options)
    : options_(std::move(options)),
      tracer_(options_.trace),
      slow_log_(options_.slow_query_log_size),
      cache_(options_.cache),
      pool_(ResolveWorkers(options_.num_workers), &tracer_, "pool") {
  if (options_.enable_subplan_memo) {
    SubplanMemo::Options memo_options = options_.subplan_memo;
    if (memo_options.admission_epsilon < 0) {
      // Inherit the whole-query cache's compaction resolution: frontiers
      // denser than what the PlanCache would keep are not worth pinning.
      memo_options.admission_epsilon = options_.cache_compaction_epsilon;
    }
    subplan_memo_ = std::make_unique<SubplanMemo>(memo_options);
  }
  if (!options_.persist.directory.empty()) {
    MakePersistDir(options_.persist.directory);
    if (options_.persist.tier_capacity_bytes > 0) {
      persist::DiskTier::Options tier;
      tier.directory = options_.persist.directory;
      tier.shards = options_.persist.tier_shards;
      // The budget splits evenly: both caches overflow under the same
      // memory pressure, and a fixed split keeps accounting predictable.
      tier.capacity_bytes = options_.persist.tier_capacity_bytes / 2;
      tier.name = "cache_tier";
      cache_tier_ = std::make_shared<persist::DiskTier>(tier);
      if (!cache_tier_->ok()) cache_tier_.reset();
      cache_.AttachTier(cache_tier_);
      if (subplan_memo_ != nullptr) {
        tier.name = "memo_tier";
        memo_tier_ = std::make_shared<persist::DiskTier>(tier);
        if (!memo_tier_->ok()) memo_tier_.reset();
        subplan_memo_->AttachTier(memo_tier_);
      }
    }
  }
  RegisterMetrics();
  if (!options_.persist.directory.empty() &&
      options_.persist.restore_on_start) {
    RestoreNow();
  }
  if (options_.watchdog_poll_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogMain(); });
  }
}

OptimizationService::~OptimizationService() {
  {
    MutexLock lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.NotifyAll();
  if (watchdog_.joinable()) watchdog_.join();
  pool_.Shutdown();
  // After the drain: the caches are quiescent and as warm as they will
  // ever be — the snapshot taken here is what the next process restores.
  if (!options_.persist.directory.empty() &&
      options_.persist.snapshot_on_shutdown) {
    SnapshotNow();
  }
}

void OptimizationService::WatchdogMain() {
  watchdog_mu_.Lock();
  while (!watchdog_stop_) {
    watchdog_cv_.WaitFor(watchdog_mu_,
                         std::chrono::milliseconds(options_.watchdog_poll_ms));
    if (watchdog_stop_) break;
    // Sweep under the list lock, act outside it: the force-finish path
    // (FinishSession -> MarkDone -> subscriber callbacks) must not run
    // under watchdog_mu_, which OpenSession takes to register.
    std::vector<std::shared_ptr<FrontierSession>> fired;
    size_t keep = 0;
    for (size_t i = 0; i < watched_sessions_.size(); ++i) {
      std::shared_ptr<FrontierSession> session = watched_sessions_[i].lock();
      if (session == nullptr ||
          session->finished_.load(std::memory_order_acquire)) {
        continue;  // Finished or expired entries self-prune.
      }
      const int64_t started =
          session->rung_started_us_.load(std::memory_order_acquire);
      const int64_t budget_us = static_cast<int64_t>(
          static_cast<double>(session->session_options_.step_deadline_ms) *
          options_.watchdog_factor * 1000.0);
      if (started >= 0 && SteadyNowUs() - started > budget_us &&
          !session->watchdog_fired_.exchange(true)) {
        fired.push_back(std::move(session));
        continue;  // A fired session leaves the watch list.
      }
      // Guard the compaction against i == keep: self-move-assigning a
      // weak_ptr empties it, silently dropping the session from watch.
      if (keep != i) watched_sessions_[keep] = std::move(watched_sessions_[i]);
      ++keep;
    }
    watched_sessions_.resize(keep);
    if (fired.empty()) continue;
    watchdog_mu_.Unlock();
    for (const std::shared_ptr<FrontierSession>& session : fired) {
      // Force-finish: the opener gets DONE{degraded} now, with everything
      // the session already published — never a silent hang. The wedged
      // rung is cancelled through the session's token (the DP unwinds at
      // its next deadline poll); if it is wedged beyond even that, its
      // eventual output is dropped by the done_/finished_ guards.
      stats_.RecordWatchdogFire();
      session->cancel_flag_.store(true, std::memory_order_relaxed);
      FinishSession(session, nullptr, /*degraded=*/true, /*failed=*/false);
    }
    watchdog_mu_.Lock();
  }
  watchdog_mu_.Unlock();
}

std::shared_ptr<const OptimizerResult> OptimizationService::TryQuickFallback(
    const std::shared_ptr<FrontierSession>& session) {
  try {
    // Quick mode (timeout 0), serial, no memo: the smallest possible
    // footprint, maximizing the chance it survives whatever killed the
    // rung (e.g. memory pressure).
    OptimizerOptions opts =
        MakeOptimizerOptions(session->decision_.alpha, /*timeout_ms=*/0,
                             /*parallelism=*/1, /*use_memo=*/false);
    std::unique_ptr<OptimizerBase> optimizer =
        MakeOptimizer(session->decision_.algorithm, opts);
    StopWatch quick_watch;
    auto result = std::make_shared<OptimizerResult>(
        optimizer->Optimize(session->problem_));
    if (result->plan_set == nullptr) return nullptr;
    // No guarantee, but valid plans; dropped by the monotonicity guard if
    // the session already holds any frontier.
    session->Publish(kInfiniteAlpha, result->plan_set,
                     quick_watch.ElapsedMillis(), /*from_cache=*/false);
    return result;
  } catch (...) {
    return nullptr;
  }
}

OptimizerOptions OptimizationService::MakeOptimizerOptions(
    double alpha, int64_t timeout_ms, int parallelism, bool use_memo) {
  OptimizerOptions opts;
  opts.alpha = alpha;
  opts.timeout_ms = timeout_ms;
  opts.operators = options_.operators;
  opts.bushy = options_.bushy;
  opts.cartesian_heuristic = options_.cartesian_heuristic;
  if (parallelism > 1) {
    std::call_once(dp_pool_once_, [this] {
      dp_pool_ = std::make_unique<ThreadPool>(
          ResolveWorkers(options_.num_dp_helpers), &tracer_, "dp_pool");
      dp_pool_ptr_.store(dp_pool_.get(), std::memory_order_release);
    });
    opts.parallelism = parallelism;
    opts.dp_pool = dp_pool_.get();
  }
  if (use_memo) opts.subplan_memo = subplan_memo_.get();
  return opts;
}

std::shared_ptr<const CachedFrontier> OptimizationService::MakeCacheEntry(
    const std::shared_ptr<const OptimizerResult>& result,
    const WeightVector& weights, const BoundVector& bounds,
    double achieved_alpha) {
  auto cached = std::make_shared<CachedFrontier>();
  cached->result = result;
  if (options_.max_cached_frontier > 0 && result->plan_set != nullptr &&
      result->plan_set->size() > options_.max_cached_frontier) {
    // Cache a compacted epsilon-coverage copy so many-objective specs do
    // not pin huge PlanSets; the selection stored with it must come from
    // the compacted set (exact hits serve it verbatim). The entry keeps
    // the UNcompacted run's alpha tag even though compaction degrades the
    // true guarantee to alpha*(1+epsilon) — the documented PR-3 tradeoff
    // of max_cached_frontier, unchanged by the relaxed alpha identity:
    // a same-alpha hit (which must keep working, or compacted entries
    // could never serve their own spec) overstates by exactly as much as
    // any looser-alpha hit, and requests looser than alpha*(1+epsilon)
    // are served within their actual tolerance.
    cached->result = ResultOverPlanSet(
        result,
        CompactPlanSet(result->plan_set, options_.cache_compaction_epsilon,
                       options_.max_cached_frontier),
        weights, bounds);
  }
  cached->weights = weights;
  cached->bounds = bounds;
  cached->achieved_alpha = achieved_alpha;
  return cached;
}

// ---------------------------------------------------------------------------
// Anytime frontier sessions.

std::shared_ptr<FrontierSession> OptimizationService::OpenFrontier(
    ProblemSpec spec, SessionOptions options) {
  stats_.RecordSessionOpened();
  OpenInfo info;
  return OpenSession(std::move(spec), options, /*preference=*/nullptr,
                     /*deadline_ms=*/-1, /*coalescable=*/true,
                     /*hold_slot_if_joined=*/false, &info);
}

std::shared_ptr<FrontierSession> OptimizationService::OpenSession(
    ProblemSpec spec, const SessionOptions& session_options,
    const Preference* preference, int64_t deadline_ms, bool coalescable,
    bool hold_slot_if_joined, OpenInfo* info) {
  std::shared_ptr<FrontierSession> session(new FrontierSession());
  session->session_options_ = session_options;
  session->spec_ = std::move(spec);
  session->total_deadline_ms_ = deadline_ms;
  session->stats_registry_ = &stats_;
  session->tracer_ = &tracer_;
  session->trace_id_ = tracer_.NextId();
  session->Attach();
  TraceSpan open_span(&tracer_, "service", "request.open",
                      session->trace_id_);

  // Born done with no frontier: an invalid spec, or shed by admission.
  const auto reject = [&session, info] {
    info->rejected = true;
    {
      MutexLock lock(session->mu_);
      session->rejected_ = true;
    }
    session->MarkDone(nullptr, /*degraded=*/false, /*failed=*/true);
  };

  if (session->spec_.query == nullptr) {
    stats_.RecordInternalError();
    reject();
    return session;
  }

  // The opener's preference (uniform when absent) seeds the quick-mode
  // weights, the stored cache selection, and — for the preference-
  // dependent algorithms — the frontier itself.
  const Preference resolved = NormalizePreference(
      preference != nullptr ? *preference : Preference{},
      session->spec_.objectives.size());
  session->insert_preference_ = resolved;

  session->problem_.query = session->spec_.query.get();
  session->problem_.objectives = session->spec_.objectives;
  session->problem_.weights = resolved.weights;
  session->problem_.bounds = resolved.bounds;

  PolicyDecision decision =
      ChooseAlgorithm(*session->spec_.query, session->spec_.objectives,
                      deadline_ms, options_.policy);
  if (session->spec_.algorithm) decision.algorithm = *session->spec_.algorithm;
  if (session->spec_.alpha) decision.alpha = *session->spec_.alpha;
  if (session->spec_.parallelism) {
    decision.parallelism =
        *session->spec_.parallelism < 1 ? 1 : *session->spec_.parallelism;
  }
  // Weighted-sum runs the single-plan DP, whose per-set output depends on
  // the preference — never memo-shared.
  if (decision.algorithm == AlgorithmKind::kWeightedSum) {
    decision.use_subplan_memo = false;
  }
  session->decision_ = decision;

  // The algorithms whose whole frontier depends on the preference (IRA,
  // weighted-sum) can back only a session opened with one — Submit()'s
  // one-step sessions, whose cache and session keys then carry it. The
  // public OpenFrontier is preference-free and rejects them.
  if (IsPreferenceDependent(decision.algorithm) && preference == nullptr) {
    stats_.RecordInternalError();
    reject();
    return session;
  }

  // Resolve the refinement schedule: the explicit target, else the spec's
  // alpha as the policy resolved it; exact algorithms always target 1.
  double target = session_options.alpha_target > 0
                      ? session_options.alpha_target
                      : decision.alpha;
  if (target < 1.0) target = 1.0;
  target = AchievedAlpha(decision.algorithm, target);
  session->target_alpha_ = target;
  session->ladder_ =
      decision.algorithm == AlgorithmKind::kRta
          ? MakeAlphaLadder(session_options.alpha_start, target,
                            session_options.max_steps)
          : std::vector<double>{target};
  session->cache_signature_ = ComputeSignature(
      *session->spec_.query, session->spec_.objectives, decision.algorithm,
      target,
      MakeOptimizerOptions(target, -1, /*parallelism=*/1, /*use_memo=*/false),
      &resolved.weights, &resolved.bounds);

  // Stage 1: cache probe at the target precision. A hit (any entry at
  // least as tight) makes the session born-done — the frontier is already
  // as good as this ladder could make it.
  if (options_.enable_cache) {
    TraceSpan probe_span(&tracer_, "service", "cache.probe",
                         session->trace_id_);
    bool from_tier = false;
    std::shared_ptr<const CachedFrontier> cached =
        cache_.Lookup(session->cache_signature_, target,
                      /*record_stats=*/true, &from_tier);
    probe_span.AddArg("hit", cached != nullptr ? 1 : 0);
    probe_span.End();
    if (cached != nullptr && cached->result != nullptr) {
      ServeSessionBornDone(session, cached, resolved, info, from_tier);
      return session;
    }
  }

  // A born-done session never registers, so the exact-run key is built
  // only past stage 1 — and before stage 2 trims the ladder it encodes.
  session->session_key_ =
      SessionKey(session->cache_signature_, session->ladder_,
                 session_options.step_deadline_ms);

  // Stage 2: seed from a looser cached frontier. An entry tighter than
  // nothing-at-all but looser than the target still beats the quick-mode
  // prelude (it carries a real guarantee), and the rungs it already
  // satisfies are dropped from the ladder. Runs before the session
  // becomes joinable so the schedule is immutable once shared. Uncounted:
  // together with stage 1 each open records exactly one lookup — and if a
  // tighter-than-target entry landed since stage 1, the recorded miss is
  // reclassified and the session is born done after all.
  if (options_.enable_cache) {
    bool seed_from_tier = false;
    std::shared_ptr<const CachedFrontier> seed = cache_.Lookup(
        session->cache_signature_, PlanCache::kAnyAlpha,
        /*record_stats=*/false, &seed_from_tier);
    if (seed != nullptr && seed->result != nullptr &&
        seed->result->plan_set != nullptr) {
      if (seed->achieved_alpha <= target) {
        cache_.ReclassifyMissAsHit();
        ServeSessionBornDone(session, seed, resolved, info, seed_from_tier);
        return session;
      }
      if (session->Publish(seed->achieved_alpha, seed->result->plan_set, 0,
                           /*from_cache=*/true)) {
        std::vector<double> trimmed;
        for (double alpha : session->ladder_) {
          if (alpha < seed->achieved_alpha) trimmed.push_back(alpha);
        }
        // The target rung always survives (a seed at or below the target
        // was served above), so the trimmed ladder is never empty.
        if (!trimmed.empty()) session->ladder_ = std::move(trimmed);
      }
    }
  }

  // Takes one admission slot, or marks the session shed. Shared by every
  // stage-3 path so rejection bookkeeping cannot drift between them.
  const auto try_admit = [this, &reject]() -> bool {
    const size_t prior = inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (prior < options_.max_inflight) return true;
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    stats_.RecordAdmissionRejected();
    reject();
    return false;
  };

  // Stage 3: coalesce onto a live identical refinement, or register as
  // its primary. Admission happens under the lock, before the session
  // becomes joinable, so joiners only ever park behind admitted primaries.
  TraceSpan admission_span(&tracer_, "service", "admission",
                           session->trace_id_);
  if (options_.enable_coalescing && coalescable) {
    MutexLock lock(session_mu_);
    auto it = sessions_by_key_.find(session->session_key_);
    // Never join a session whose every prior opener has already
    // cancelled: its runner is mid-abort and will not reach the target,
    // and attaching cannot un-cancel it. Register over it instead (its
    // FinishSession erases by pointer equality, so the replacement is
    // safe).
    if (it != sessions_by_key_.end() && !it->second->CancelRequested()) {
      if (hold_slot_if_joined && !try_admit()) return session;
      it->second->Attach();
      stats_.RecordSessionCoalesced();
      info->joined = true;
      info->outcome = CacheOutcome::kCoalescedHit;
      return it->second;
    }
    if (!try_admit()) return session;
    session->holds_slot_ = true;
    sessions_by_key_[session->session_key_] = session;
    session->registered_ = true;
  } else {
    if (!try_admit()) return session;
    session->holds_slot_ = true;
  }
  admission_span.AddArg("inflight",
                        static_cast<int64_t>(
                            inflight_.load(std::memory_order_relaxed)));
  admission_span.End();

  // Stage 4: race-closing re-probe. A just-finished identical session
  // inserts into the cache *before* unregistering, so a second uncounted
  // probe here closes the found-no-session window; the recorded miss is
  // reclassified so each open counts one lookup.
  if (options_.enable_cache) {
    bool reprobe_from_tier = false;
    std::shared_ptr<const CachedFrontier> cached = cache_.Lookup(
        session->cache_signature_, target, /*record_stats=*/false,
        &reprobe_from_tier);
    if (cached != nullptr && cached->result != nullptr) {
      cache_.ReclassifyMissAsHit();
      if (session->registered_) {
        MutexLock lock(session_mu_);
        auto it = sessions_by_key_.find(session->session_key_);
        if (it != sessions_by_key_.end() && it->second == session) {
          sessions_by_key_.erase(it);
        }
        session->registered_ = false;
      }
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      session->holds_slot_ = false;
      ServeSessionBornDone(session, cached, resolved, info,
                           reprobe_from_tier);
      return session;
    }
  }

  // Stage 5: quick-mode prelude — the Section 5.1 single-plan-per-set
  // finish, run synchronously so OpenFrontier returns with a selectable
  // frontier in hand. No guarantee (alpha = infinity), but valid plans.
  if (session_options.quick_first && session->BestFrontier() == nullptr) {
    try {
      TraceSpan quick_span(&tracer_, "service", "quick.prelude",
                           session->trace_id_);
      OptimizerOptions quick_opts = MakeOptimizerOptions(
          decision.alpha, /*timeout_ms=*/0, /*parallelism=*/1,
          /*use_memo=*/false);
      quick_opts.tracer = &tracer_;
      quick_opts.trace_id = session->trace_id_;
      std::unique_ptr<OptimizerBase> optimizer =
          MakeOptimizer(decision.algorithm, quick_opts);
      StopWatch quick_watch;
      OptimizerResult quick = optimizer->Optimize(session->problem_);
      session->Publish(kInfiniteAlpha, quick.plan_set,
                       quick_watch.ElapsedMillis(), /*from_cache=*/false);
    } catch (...) {
      // A failed prelude only costs the early frontier; the ladder still
      // runs.
    }
  }

  // Watchdog registration (PR 8): ladders with a per-rung budget are
  // watched for wedged rungs. Weak refs only — the list must never keep a
  // session alive or delay its teardown.
  if (watchdog_.joinable() && session_options.step_deadline_ms >= 0) {
    MutexLock lock(watchdog_mu_);
    watched_sessions_.push_back(session);
  }

  // Stage 6: hand the first rung to the worker pool (each later rung
  // reschedules itself — no worker is held across rungs).
  stats_.RecordSessionStarted();
  if (!pool_.Submit([this, session] { RunSessionRung(session, 0); })) {
    // Shutdown raced the open; the session completes with whatever the
    // prelude published.
    stats_.RecordAdmissionRejected();
    info->rejected = true;
    {
      // The session may already be registered and shared with joiners
      // when a shutdown race lands here, so the write must be locked.
      MutexLock lock(session->mu_);
      session->rejected_ = true;
    }
    FinishSession(session, nullptr, /*degraded=*/false, /*failed=*/true);
  }
  return session;
}

void OptimizationService::ServeSessionBornDone(
    const std::shared_ptr<FrontierSession>& session,
    const std::shared_ptr<const CachedFrontier>& cached,
    const Preference& preference, OpenInfo* info, bool from_tier) {
  const bool same_preference = cached->weights == preference.weights &&
                               cached->bounds == preference.bounds;
  // Provenance wins the label: a disk-tier promotion is surfaced as
  // kTierHit even when the preference matches, so tier effectiveness is
  // observable end to end.
  info->outcome = from_tier          ? CacheOutcome::kTierHit
                  : same_preference  ? CacheOutcome::kExactHit
                                     : CacheOutcome::kFrontierHit;
  {
    // Under the session lock: the post-registration re-probe path calls
    // this on a session joiners may already share.
    MutexLock lock(session->mu_);
    session->open_outcome_ = info->outcome;
    session->cached_entry_ = cached;
    session->target_reached_ = true;
  }
  session->Publish(cached->achieved_alpha, cached->result->plan_set,
                   /*step_ms=*/0, /*from_cache=*/true);
  session->MarkDone(cached->result, /*degraded=*/false, /*failed=*/false);
}

void OptimizationService::ScheduleSessionRung(
    const std::shared_ptr<FrontierSession>& session, size_t rung) {
  if (rung > 0 && options_.priority_admission) {
    // Overload sheds refinement first: a ladder keeps refining only while
    // in-flight pressure stays under the watermark, so first-frontier
    // work hits max_inflight (a hard reject) only after every background
    // rung has already been given up. The watermark never goes below 2 —
    // a lone refining session (its own slot is counted) must not shed
    // itself on an idle service.
    const size_t watermark = std::max<size_t>(
        static_cast<size_t>(options_.refinement_shed_fraction *
                            static_cast<double>(options_.max_inflight)),
        2);
    if (inflight_.load(std::memory_order_acquire) >= watermark) {
      stats_.RecordRefinementShed();
      {
        MutexLock lock(session->mu_);
        session->shed_ = true;
      }
      FinishSession(session, nullptr, /*degraded=*/false, /*failed=*/false);
      return;
    }
  }
  const TaskLane lane = (rung == 0 || !options_.priority_admission)
                            ? TaskLane::kInteractive
                            : TaskLane::kRefinement;
  if (!pool_.Submit([this, session, rung] { RunSessionRung(session, rung); },
                    lane)) {
    // Shutdown raced the reschedule; the session completes with the
    // guarantees it already published.
    FinishSession(session, nullptr, /*degraded=*/false, /*failed=*/false);
  }
}

void OptimizationService::RunSessionRung(
    const std::shared_ptr<FrontierSession>& session, size_t rung) {
  const PolicyDecision& decision = session->decision_;
  double queue_ms;
  {
    // queue_ms_ is read by FinishSession — possibly on the watchdog
    // thread, concurrently with this rung — so even the rung-0 stamp
    // happens under the session lock.
    MutexLock lock(session->mu_);
    if (rung == 0) session->queue_ms_ = session->since_open_.ElapsedMillis();
    queue_ms = session->queue_ms_;
  }
  TraceSpan request_span(&tracer_, "service",
                         rung == 0 ? "request" : "request.rung",
                         session->trace_id_);
  request_span.AddArg("queue_us", static_cast<int64_t>(queue_ms * 1000.0));
  request_span.AddArg("rungs",
                      static_cast<int64_t>(session->ladder_.size()));

  // Cancelled while queued: complete with what was already published.
  if (session->CancelRequested()) {
    FinishSession(session, nullptr, /*degraded=*/false, /*failed=*/false);
    return;
  }

  // Remaining total budget (a Submit() deadline covers queue wait and
  // optimization alike), tightened by the per-rung budget.
  int64_t timeout_ms = -1;
  if (session->total_deadline_ms_ >= 0) {
    const int64_t remaining =
        session->total_deadline_ms_ -
        static_cast<int64_t>(session->since_open_.ElapsedMillis());
    timeout_ms = remaining > 0 ? remaining : 0;
  }
  const int64_t step_ms = session->session_options_.step_deadline_ms;
  if (step_ms >= 0) {
    timeout_ms = timeout_ms < 0 ? step_ms : std::min(timeout_ms, step_ms);
  }

  std::shared_ptr<const OptimizerResult> degraded_result;
  bool degraded = false;
  bool failed = false;
  bool completed_rung = false;
  // Stamp the rung start for the watchdog; cleared after the try/catch.
  session->rung_started_us_.store(SteadyNowUs(), std::memory_order_release);
  try {
    // Injected rung faults: `throw`/`oom` exercise the quick-mode
    // fallback below, `delay_ms` simulates a wedged worker for the
    // watchdog.
    MOQO_FAILPOINT("session.rung");

    // Epoch guard before the memo is read: a catalog whose statistics
    // were bumped since the memo's entries were published flushes them.
    if (subplan_memo_ != nullptr && decision.use_subplan_memo) {
      const Catalog& catalog = session->spec_.query->catalog();
      subplan_memo_->ObserveCatalog(&catalog, catalog.epoch());
    }

    // One rung = one independent optimizer run at this rung's precision;
    // rungs share work only through the SubplanMemo (exactly the core
    // ladder's contract), so the published frontiers are byte-identical
    // to the monolithic runner's.
    OptimizerOptions opts = MakeOptimizerOptions(
        session->ladder_[rung], timeout_ms, decision.parallelism,
        decision.use_subplan_memo);
    opts.cancel = &session->cancel_flag_;
    opts.tracer = &tracer_;
    opts.trace_id = session->trace_id_;
    std::unique_ptr<OptimizerBase> optimizer =
        MakeOptimizer(decision.algorithm, opts);
    StopWatch run_watch;
    TraceSpan optimize_span(&tracer_, "service", "optimize",
                            session->trace_id_);
    optimize_span.AddArg("parallelism", decision.parallelism);
    auto result = std::make_shared<OptimizerResult>(
        optimizer->Optimize(session->problem_));
    optimize_span.End();
    if (result->metrics.timed_out) {
      // This rung's budget expired. Earlier completed rungs keep their
      // guarantees and the ladder just ends; with nothing completed the
      // session ends degraded, holding the quick-mode result for
      // Submit(). Never cached.
      stats_.RecordDeadlineTimeout();
      stats_.RecordLatency(decision.algorithm, run_watch.ElapsedMillis());
      bool any_completed;
      {
        MutexLock lock(session->mu_);
        any_completed = session->final_result_ != nullptr;
      }
      if (!any_completed) {
        degraded = true;
        degraded_result = std::move(result);
      }
    } else {
      OnSessionRung(session, static_cast<int>(rung), session->ladder_[rung],
                    *result);
      completed_rung = true;
    }
  } catch (...) {
    stats_.RecordInternalError();
    // Degrade, don't die (PR 8): whatever killed the rung (allocation
    // failure, injected fault), the session must still reach a terminal
    // state with a usable answer. An earlier completed rung already
    // covers that; otherwise fall back to the paper's Section 5.1
    // quick-mode frontier — "never return null". Only when even quick
    // mode fails does the session end failed.
    bool any_completed;
    {
      MutexLock lock(session->mu_);
      any_completed = session->final_result_ != nullptr;
    }
    if (any_completed) {
      degraded = true;
    } else {
      degraded_result = TryQuickFallback(session);
      degraded = degraded_result != nullptr;
      failed = degraded_result == nullptr;
    }
  }
  session->rung_started_us_.store(-1, std::memory_order_release);

  if (session->watchdog_fired_.load(std::memory_order_relaxed)) {
    // The watchdog already force-finished this session; the late rung
    // stands down (FinishSession below is a no-op under the once-guard).
    degraded = true;
  }

  if (completed_rung && !failed && rung + 1 < session->ladder_.size() &&
      !session->CancelRequested()) {
    // Release this worker between rungs: the next rung queues behind
    // (and, with priority admission, below) any first-frontier work.
    ScheduleSessionRung(session, rung + 1);
    return;
  }
  FinishSession(session, std::move(degraded_result), degraded, failed);
}

bool OptimizationService::OnSessionRung(
    const std::shared_ptr<FrontierSession>& session, int rung, double alpha,
    const OptimizerResult& result) {
  const double achieved =
      AchievedAlpha(session->decision_.algorithm, alpha);
  TraceSpan rung_span(&tracer_, "session", "rung.publish",
                      session->trace_id_);
  rung_span.AddArg("rung", rung);
  rung_span.AddArg("alpha_milli", static_cast<int64_t>(achieved * 1000.0));
  auto shared = std::make_shared<const OptimizerResult>(result);
  stats_.RecordLatency(session->decision_.algorithm,
                       result.metrics.optimization_ms);
  stats_.RecordRefinementStep(result.metrics.optimization_ms);
  if (options_.enable_cache && !result.metrics.timed_out) {
    // Insert before publishing (and before the registry erase in
    // FinishSession): late identical opens that miss the registry must
    // find the entry on their re-probe.
    cache_.Insert(session->cache_signature_,
                  MakeCacheEntry(shared, session->insert_preference_.weights,
                                 session->insert_preference_.bounds,
                                 achieved));
  }
  {
    MutexLock lock(session->mu_);
    session->final_result_ = shared;
  }
  session->Publish(achieved, shared->plan_set,
                   result.metrics.optimization_ms, /*from_cache=*/false);
  return !session->CancelRequested();
}

void OptimizationService::FinishSession(
    const std::shared_ptr<FrontierSession>& session,
    std::shared_ptr<const OptimizerResult> final_result, bool degraded,
    bool failed) {
  // Exactly-once: the watchdog's force-finish and the rung's own finish
  // may race; whichever loses must not double-release the slot, double-
  // erase the registry entry, or deliver DONE twice.
  if (session->finished_.exchange(true, std::memory_order_acq_rel)) return;
  // All bookkeeping happens BEFORE MarkDone wakes the waiters: a caller
  // returning from AwaitTarget must observe the registry entry gone, the
  // admission slot released, and the active-sessions gauge decremented.
  // (The cache inserts this ordering protects happened per rung, in
  // OnSessionRung — insert-before-unregister is what makes the open
  // path's race-closing re-probe sound.)
  if (session->registered_) {
    MutexLock lock(session_mu_);
    auto it = sessions_by_key_.find(session->session_key_);
    if (it != sessions_by_key_.end() && it->second == session) {
      sessions_by_key_.erase(it);
    }
  }
  if (session->holds_slot_) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  stats_.RecordSessionFinished();
  if (!failed) {
    // Slow-query log: one entry per ladder that actually ran (born-done
    // cache hits never reach FinishSession and are never slow).
    SlowQueryEntry entry;
    entry.signature = session->cache_signature_.hash;
    entry.algorithm = AlgorithmName(session->decision_.algorithm);
    entry.total_ms = session->since_open_.ElapsedMillis();
    {
      MutexLock lock(session->mu_);
      entry.queue_ms = session->queue_ms_;
      entry.alpha = session->best_alpha_;
      entry.frontier_size =
          session->best_ != nullptr ? session->best_->size() : 0;
    }
    entry.optimize_ms = entry.total_ms - entry.queue_ms;
    entry.phase = entry.queue_ms > entry.optimize_ms ? "queue" : "optimize";
    entry.sequence = slow_seq_.fetch_add(1, std::memory_order_relaxed);
    slow_log_.Offer(entry);
  }
  session->MarkDone(std::move(final_result), degraded, failed);
}

// ---------------------------------------------------------------------------
// One-shot requests: one-step sessions answered through a future.

std::future<ServiceResponse> OptimizationService::Submit(
    ServiceRequest request) {
  stats_.RecordRequest();
  auto call = std::make_shared<SubmitCall>();
  std::future<ServiceResponse> future = call->promise.get_future();
  call->deadline_ms = request.preference.deadline_ms >= 0
                          ? request.preference.deadline_ms
                          : options_.default_deadline_ms;
  call->preference = NormalizePreference(std::move(request.preference),
                                         request.spec.objectives.size());
  call->spec = std::move(request.spec);
  OpenForSubmit(call);
  return future;
}

ServiceResponse OptimizationService::SubmitAndWait(ServiceRequest request) {
  return Submit(std::move(request)).get();
}

void OptimizationService::OpenForSubmit(
    const std::shared_ptr<SubmitCall>& call) {
  // One-step session: ladder = {resolved alpha}, no quick prelude (the
  // rung itself degrades to quick mode on expiry or failure), the whole
  // deadline as the run budget.
  SessionOptions one_step;
  one_step.alpha_start = -1;
  one_step.max_steps = 1;
  one_step.quick_first = false;
  // Deadline-bounded requests never wait on shared work (a joiner cannot
  // degrade to quick mode mid-wait), so they open private sessions.
  OpenInfo info;
  std::shared_ptr<FrontierSession> session = OpenSession(
      call->spec, one_step, &call->preference, call->deadline_ms,
      /*coalescable=*/call->deadline_ms < 0, /*hold_slot_if_joined=*/true,
      &info);
  if (info.rejected || (!info.joined && info.outcome != CacheOutcome::kMiss)) {
    AnswerSubmit(call, *session, info);  // Rejected, or born done.
    return;
  }
  // A ladder runs — ours, or a shared one we joined. OnDone fires on the
  // thread that finishes it (a worker, the watchdog, or this one if it is
  // already done); the raw pointer is safe because the finisher holds the
  // session, and it keeps the session from owning itself via its callback.
  FrontierSession* raw = session.get();
  session->OnDone(
      [this, call, raw, info] { AnswerSubmit(call, *raw, info); });
}

void OptimizationService::AnswerSubmit(const std::shared_ptr<SubmitCall>& call,
                                       const FrontierSession& session,
                                       const OpenInfo& info) {
  ServiceResponse response;
  response.algorithm = session.decision_.algorithm;
  response.alpha = session.decision_.alpha;
  std::shared_ptr<const CachedFrontier> cached;
  std::shared_ptr<const OptimizerResult> final_result;
  bool failed = false, degraded = false, reached = false;
  double best_alpha = kInfiniteAlpha;
  {
    MutexLock lock(session.mu_);
    cached = session.cached_entry_;
    final_result = session.final_result_;
    failed = session.failed_;
    degraded = session.degraded_;
    reached = session.target_reached_;
    best_alpha = session.best_alpha_;
    if (!info.joined) response.queue_ms = session.queue_ms_;
  }
  const WeightVector& weights = call->preference.weights;
  const BoundVector& bounds = call->preference.bounds;

  if (info.rejected) {
    response.status = ResponseStatus::kRejected;
  } else if (info.joined) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);  // Joiner slot.
    if (!reached || failed || final_result == nullptr) {
      // The shared ladder degraded or failed, and its quick-mode plan
      // depends on its opener's weights: open again. Identical reopens
      // coalesce among themselves, so a failing signature promotes ONE new
      // primary per round instead of a thundering herd — and each failed
      // primary leaves the reopening population, so the chain terminates.
      OpenForSubmit(call);
      return;
    }
    response.status = ResponseStatus::kCompleted;
    response.cache = CacheOutcome::kCoalescedHit;
    response.alpha = best_alpha;
    response.result = ReselectResult(final_result, weights, bounds);
    stats_.RecordCoalescedHit();
    stats_.RecordCompleted();
  } else if (cached != nullptr) {
    // Born done from the cache: report the guarantee the entry carries —
    // possibly tighter than requested under the relaxed alpha identity.
    response.status = ResponseStatus::kCompleted;
    response.cache = info.outcome;
    response.alpha = cached->achieved_alpha;
    response.result = cached->weights == weights && cached->bounds == bounds
                          ? cached->result
                          : ReselectResult(cached->result, weights, bounds);
    switch (info.outcome) {
      case CacheOutcome::kExactHit:
        stats_.RecordExactHit();
        break;
      case CacheOutcome::kFrontierHit:
        stats_.RecordFrontierHit();
        break;
      default:
        stats_.RecordTierHit();
        break;
    }
    stats_.RecordCompleted();
  } else if (failed || final_result == nullptr) {
    response.status = ResponseStatus::kRejected;
  } else {
    // Our own ladder ran. A degraded run holds the quick-mode result
    // (deadline expiry, or the rung failed and fell back to Section 5.1).
    const bool complete = reached && !degraded;
    response.status = complete ? ResponseStatus::kCompleted
                               : ResponseStatus::kCompletedQuick;
    if (complete) response.alpha = best_alpha;
    response.result = std::move(final_result);
    stats_.RecordCompleted();
  }
  response.service_ms = call->since_submit.ElapsedMillis();
  call->promise.set_value(std::move(response));
}

ServiceStatsSnapshot OptimizationService::Stats() const {
  ServiceStatsSnapshot snapshot = stats_.Snapshot();
  // The cache is the single source of truth for its own counters.
  const PlanCache::Stats cache_stats = cache_.GetStats();
  snapshot.cache_hits = cache_stats.hits;
  snapshot.cache_misses = cache_stats.misses;
  snapshot.cache_evictions = cache_stats.evictions;
  snapshot.cache_entries = cache_stats.entries;
  snapshot.cache_bytes = cache_stats.bytes;
  snapshot.cached_frontier_plans = cache_stats.frontier_plans;
  if (subplan_memo_ != nullptr) {
    const SubplanMemo::Stats memo_stats = subplan_memo_->GetStats();
    snapshot.memo_hits = memo_stats.hits;
    snapshot.memo_misses = memo_stats.misses;
    snapshot.memo_insertions = memo_stats.insertions;
    snapshot.memo_evictions = memo_stats.evictions;
    snapshot.memo_admission_rejects = memo_stats.admission_rejects;
    snapshot.memo_invalidations = memo_stats.invalidations;
    snapshot.memo_entries = memo_stats.entries;
    snapshot.memo_bytes = memo_stats.bytes;
  }
  snapshot.pool_queue_depth = pool_.QueueDepth();
  snapshot.pool_queue_wait = pool_.QueueWaitSnapshot();
  if (ThreadPool* dp = dp_pool_ptr_.load(std::memory_order_acquire)) {
    snapshot.pool_queue_depth += dp->QueueDepth();
    snapshot.pool_queue_wait.Merge(dp->QueueWaitSnapshot());
  }
  snapshot.slow_queries = slow_log_.WorstFirst();
  return snapshot;
}

void OptimizationService::RegisterMetrics() {
  const auto stat = [this](uint64_t ServiceStatsSnapshot::*field) {
    return [this, field]() -> double {
      return static_cast<double>(stats_.Counter(field));
    };
  };
  metrics_.AddCounter("moqo_requests_total", "One-shot requests submitted",
                      stat(&ServiceStatsSnapshot::requests_total));
  metrics_.AddCounter("moqo_completed_total", "Requests answered with a plan",
                      stat(&ServiceStatsSnapshot::completed));
  metrics_.AddCounter("moqo_rejected_total",
                      "Requests shed by admission control",
                      stat(&ServiceStatsSnapshot::admissions_rejected));
  metrics_.AddCounter("moqo_internal_errors_total",
                      "Invalid requests and optimizer failures",
                      stat(&ServiceStatsSnapshot::internal_errors));
  metrics_.AddCounter("moqo_deadline_timeouts_total",
                      "Requests degraded to quick mode",
                      stat(&ServiceStatsSnapshot::deadline_timeouts));
  metrics_.AddCounter("moqo_sessions_opened_total",
                      "Anytime frontier sessions opened",
                      stat(&ServiceStatsSnapshot::sessions_opened));
  metrics_.AddCounter("moqo_refinement_steps_total",
                      "Completed ladder rungs across all sessions",
                      stat(&ServiceStatsSnapshot::refinement_steps));
  metrics_.AddCounter("moqo_refinement_sheds_total",
                      "Refinement ladders shed by overload priority",
                      stat(&ServiceStatsSnapshot::refinement_sheds));
  metrics_.AddCounter("moqo_watchdog_fires_total",
                      "Sessions force-finished by the rung watchdog",
                      stat(&ServiceStatsSnapshot::watchdog_fires));
  metrics_.AddGauge("moqo_sessions_active", "Refinement ladders running now",
                    stat(&ServiceStatsSnapshot::sessions_active));
  metrics_.AddGauge("moqo_inflight", "Requests queued or running", [this] {
    return static_cast<double>(InFlight());
  });

  metrics_.AddCounter("moqo_cache_lookups_total", "PlanCache lookups",
                      {{"result", "hit"}}, [this] {
                        return static_cast<double>(cache_.GetStats().hits);
                      });
  metrics_.AddCounter("moqo_cache_lookups_total", "PlanCache lookups",
                      {{"result", "miss"}}, [this] {
                        return static_cast<double>(cache_.GetStats().misses);
                      });
  metrics_.AddGauge("moqo_cache_entries", "Resident PlanCache entries",
                    [this] {
                      return static_cast<double>(cache_.GetStats().entries);
                    });
  metrics_.AddGauge("moqo_cache_bytes", "Resident PlanCache bytes", [this] {
    return static_cast<double>(cache_.GetStats().bytes);
  });

  metrics_.AddCounter("moqo_memo_lookups_total",
                      "Cross-query subplan memo probes", {{"result", "hit"}},
                      [this] {
                        return static_cast<double>(MemoStats().hits);
                      });
  metrics_.AddCounter("moqo_memo_lookups_total",
                      "Cross-query subplan memo probes", {{"result", "miss"}},
                      [this] {
                        return static_cast<double>(MemoStats().misses);
                      });
  metrics_.AddGauge("moqo_memo_entries", "Resident memo entries", [this] {
    return static_cast<double>(MemoStats().entries);
  });
  metrics_.AddGauge("moqo_memo_bytes", "Resident memo bytes", [this] {
    return static_cast<double>(MemoStats().bytes);
  });

  metrics_.AddGauge("moqo_pool_queue_depth",
                    "Tasks waiting for a worker (request + DP pools)",
                    [this] {
                      size_t depth = pool_.QueueDepth();
                      ThreadPool* dp =
                          dp_pool_ptr_.load(std::memory_order_acquire);
                      if (dp != nullptr) depth += dp->QueueDepth();
                      return static_cast<double>(depth);
                    });
  metrics_.AddHistogram("moqo_pool_queue_wait_ms",
                        "Task enqueue-to-pickup wait (request + DP pools)",
                        [this] {
                          HistogramSnapshot wait = pool_.QueueWaitSnapshot();
                          ThreadPool* dp =
                              dp_pool_ptr_.load(std::memory_order_acquire);
                          if (dp != nullptr) {
                            wait.Merge(dp->QueueWaitSnapshot());
                          }
                          return wait;
                        });
  metrics_.AddHistogram("moqo_step_latency_ms",
                        "Per-rung refinement step latency", [this] {
                          return stats_.StepLatency();
                        });
  metrics_.AddHistogram("moqo_first_frontier_ms",
                        "Session open to first published frontier", [this] {
                          return stats_.FirstFrontierLatency();
                        });
  for (int i = 0; i < kNumAlgorithmKinds; ++i) {
    metrics_.AddHistogram(
        "moqo_request_latency_ms", "Fresh optimization latency by algorithm",
        {{"algorithm", AlgorithmName(static_cast<AlgorithmKind>(i))}},
        [this, i] { return stats_.Latency(i); });
  }

  metrics_.AddGauge("moqo_slow_query_worst_ms",
                    "Slowest retained slow-log request", [this] {
                      return slow_log_.WorstMs();
                    });
  metrics_.AddGauge("moqo_trace_events_recorded",
                    "Span events recorded by the tracer", [this] {
                      return static_cast<double>(tracer_.recorded_events());
                    });
  metrics_.AddCounter("moqo_tier_hits_total",
                      "Requests served from the RAM→disk tier",
                      stat(&ServiceStatsSnapshot::tier_hits));
  RegisterPersistMetrics();
}

std::string OptimizationService::SnapshotPath() const {
  return options_.persist.directory + "/moqo.snapshot";
}

bool OptimizationService::SnapshotNow() {
  if (options_.persist.directory.empty()) return false;
  MutexLock lock(snapshot_mu_);
  constexpr auto kRelaxed = std::memory_order_relaxed;
  persist::SnapshotWriter writer(options_.persist.catalog_epoch,
                                 kCostModelVersion);
  // ForEach holds one shard lock at a time; the lambdas only encode into
  // the writer's buffer and never re-enter the container.
  cache_.ForEach([&writer](const ProblemSignature& key,
                           const std::shared_ptr<const CachedFrontier>& value,
                           size_t /*bytes*/) {
    if (value == nullptr) return;
    std::string payload;
    if (!persist::EncodeFrontierPayload(*value, &payload)) return;
    writer.AddRecord(persist::RecordKind::kPlanCacheEntry, key.key, key.hash,
                     value->achieved_alpha, payload);
  });
  if (subplan_memo_ != nullptr) {
    subplan_memo_->ForEach(
        [&writer](const SubplanSignature& key,
                  const std::shared_ptr<const PlanSet>& value,
                  size_t /*bytes*/) {
          if (value == nullptr || value->empty()) return;
          std::string payload;
          persist::PlanSetCodec::Append(*value, &payload);
          // Memo identity lives entirely in the key (alpha is encoded
          // bit-exactly inside it), so records carry alpha 0.
          writer.AddRecord(persist::RecordKind::kMemoEntry, key.key, key.hash,
                           0.0, payload);
        });
  }
  const bool ok = writer.WriteFile(SnapshotPath());
  if (ok) {
    persist_counters_->snapshots_written.fetch_add(1, kRelaxed);
    persist_counters_->snapshot_records.fetch_add(writer.record_count(),
                                                  kRelaxed);
    persist_counters_->snapshot_bytes.fetch_add(writer.encoded_bytes(),
                                                kRelaxed);
  } else {
    persist_counters_->snapshot_failures.fetch_add(1, kRelaxed);
  }
  return ok;
}

size_t OptimizationService::RestoreNow() {
  if (options_.persist.directory.empty()) return 0;
  MutexLock lock(snapshot_mu_);
  constexpr auto kRelaxed = std::memory_order_relaxed;
  persist::PersistCounters& counters = *persist_counters_;
  counters.restores_attempted.fetch_add(1, kRelaxed);
  size_t restored = 0;
  uint64_t restored_bytes = 0;
  const persist::SnapshotReadResult result = persist::ReadSnapshot(
      SnapshotPath(),
      [this, &counters, kRelaxed](const persist::SnapshotHeader& header) {
        // The two semantic gates of the validation matrix. Stale cost
        // models make every stored cost wrong; a different catalog epoch
        // makes every content-derived key unreachable — either way the
        // snapshot is dead weight and restoring it would only pollute
        // the caches.
        if (header.cost_model_version != kCostModelVersion) {
          counters.restore_skipped_version.fetch_add(header.record_count,
                                                     kRelaxed);
          return false;
        }
        if (header.catalog_epoch != options_.persist.catalog_epoch) {
          counters.restore_skipped_epoch.fetch_add(header.record_count,
                                                   kRelaxed);
          return false;
        }
        return true;
      },
      [this, &counters, &restored, &restored_bytes,
       kRelaxed](const persist::SnapshotRecordView& record) {
        switch (record.kind) {
          case persist::RecordKind::kPlanCacheEntry: {
            auto frontier = persist::DecodeFrontierPayload(
                record.payload.data(), record.payload.size(),
                record.achieved_alpha);
            if (frontier == nullptr) return;
            ProblemSignature signature;
            signature.key.assign(record.key);
            signature.hash = record.key_hash;
            cache_.Insert(signature, std::move(frontier));
            counters.restored_plan_entries.fetch_add(1, kRelaxed);
            break;
          }
          case persist::RecordKind::kMemoEntry: {
            if (subplan_memo_ == nullptr) return;
            auto frontier = persist::PlanSetCodec::Decode(
                record.payload.data(), record.payload.size(), nullptr);
            if (frontier == nullptr) return;
            SubplanSignature signature;
            signature.key.assign(record.key);
            signature.hash = record.key_hash;
            subplan_memo_->Insert(signature, std::move(frontier));
            counters.restored_memo_entries.fetch_add(1, kRelaxed);
            break;
          }
          default:
            return;  // A future kind: skip, never crash.
        }
        ++restored;
        restored_bytes += record.payload.size();
      });
  if (result.loaded) {
    counters.restores_loaded.fetch_add(1, kRelaxed);
    if (result.header.format_version != persist::kFormatVersion) {
      counters.restore_skipped_version.fetch_add(result.header.record_count,
                                                 kRelaxed);
    }
  }
  counters.restore_skipped_checksum.fetch_add(result.skipped_checksum,
                                              kRelaxed);
  counters.restore_truncated.fetch_add(result.truncated, kRelaxed);
  counters.restore_bytes.fetch_add(restored_bytes, kRelaxed);
  return restored;
}

persist::PersistStatsSnapshot OptimizationService::PersistStats() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  const persist::PersistCounters& c = *persist_counters_;
  persist::PersistStatsSnapshot s;
  s.snapshots_written = c.snapshots_written.load(kRelaxed);
  s.snapshot_failures = c.snapshot_failures.load(kRelaxed);
  s.snapshot_records = c.snapshot_records.load(kRelaxed);
  s.snapshot_bytes = c.snapshot_bytes.load(kRelaxed);
  s.restores_attempted = c.restores_attempted.load(kRelaxed);
  s.restores_loaded = c.restores_loaded.load(kRelaxed);
  s.restored_plan_entries = c.restored_plan_entries.load(kRelaxed);
  s.restored_memo_entries = c.restored_memo_entries.load(kRelaxed);
  s.restore_bytes = c.restore_bytes.load(kRelaxed);
  s.restore_skipped_epoch = c.restore_skipped_epoch.load(kRelaxed);
  s.restore_skipped_version = c.restore_skipped_version.load(kRelaxed);
  s.restore_skipped_checksum = c.restore_skipped_checksum.load(kRelaxed);
  s.restore_truncated = c.restore_truncated.load(kRelaxed);
  if (cache_tier_ != nullptr) {
    const persist::DiskTier::Stats tier = cache_tier_->GetStats();
    s.cache_tier_demotions = tier.demotions;
    s.cache_tier_promotions = tier.promotions;
    s.cache_tier_entries = tier.entries;
    s.cache_tier_bytes = tier.bytes;
  }
  if (memo_tier_ != nullptr) {
    const persist::DiskTier::Stats tier = memo_tier_->GetStats();
    s.memo_tier_demotions = tier.demotions;
    s.memo_tier_promotions = tier.promotions;
    s.memo_tier_entries = tier.entries;
    s.memo_tier_bytes = tier.bytes;
  }
  return s;
}

void OptimizationService::RegisterPersistMetrics() {
  // Samplers capture the shared counter blocks by value (shared_ptr), so
  // a scrape racing service teardown reads frozen counters, never freed
  // memory — the moqo_net_* pattern.
  const auto persist_stat =
      [counters = persist_counters_](
          std::atomic<uint64_t> persist::PersistCounters::*field) {
        return [counters, field]() -> double {
          return static_cast<double>(((*counters).*field).load(std::memory_order_relaxed));
        };
      };
  metrics_.AddCounter("moqo_persist_snapshots_total",
                      "Warm-state snapshots written",
                      persist_stat(&persist::PersistCounters::snapshots_written));
  metrics_.AddCounter(
      "moqo_persist_snapshot_failures_total",
      "Snapshot writes that failed (I/O or injected fault)",
      persist_stat(&persist::PersistCounters::snapshot_failures));
  metrics_.AddCounter("moqo_persist_snapshot_records_total",
                      "Records written across all snapshots",
                      persist_stat(&persist::PersistCounters::snapshot_records));
  metrics_.AddCounter("moqo_persist_snapshot_bytes_total",
                      "Encoded snapshot bytes written",
                      persist_stat(&persist::PersistCounters::snapshot_bytes));
  metrics_.AddCounter("moqo_persist_restores_total",
                      "Restore attempts (header validated or not)",
                      persist_stat(&persist::PersistCounters::restores_attempted));
  metrics_.AddCounter(
      "moqo_persist_restored_entries_total",
      "Entries restored from snapshots", {{"cache", "plan"}},
      persist_stat(&persist::PersistCounters::restored_plan_entries));
  metrics_.AddCounter(
      "moqo_persist_restored_entries_total",
      "Entries restored from snapshots", {{"cache", "memo"}},
      persist_stat(&persist::PersistCounters::restored_memo_entries));
  metrics_.AddCounter(
      "moqo_persist_restore_bytes_total", "Payload bytes restored",
      persist_stat(&persist::PersistCounters::restore_bytes));
  metrics_.AddCounter(
      "moqo_persist_restore_skipped_total",
      "Snapshot records skipped on restore", {{"reason", "epoch"}},
      persist_stat(&persist::PersistCounters::restore_skipped_epoch));
  metrics_.AddCounter(
      "moqo_persist_restore_skipped_total",
      "Snapshot records skipped on restore", {{"reason", "version"}},
      persist_stat(&persist::PersistCounters::restore_skipped_version));
  metrics_.AddCounter(
      "moqo_persist_restore_skipped_total",
      "Snapshot records skipped on restore", {{"reason", "checksum"}},
      persist_stat(&persist::PersistCounters::restore_skipped_checksum));
  metrics_.AddCounter(
      "moqo_persist_restore_truncated_total",
      "Snapshot records lost to a torn or short tail",
      persist_stat(&persist::PersistCounters::restore_truncated));

  const auto tier_metrics = [this](
                                const std::shared_ptr<persist::DiskTier>& tier,
                                const char* cache_label) {
    if (tier == nullptr) return;
    const auto tier_stat =
        [counters = tier->counters()](
            std::atomic<uint64_t> persist::DiskTier::Counters::*field) {
          return [counters, field]() -> double {
            return static_cast<double>(((*counters).*field).load(std::memory_order_relaxed));
          };
        };
    metrics_.AddCounter("moqo_persist_tier_demotions_total",
                        "Evicted entries demoted to the disk tier",
                        {{"cache", cache_label}},
                        tier_stat(&persist::DiskTier::Counters::demotions));
    metrics_.AddCounter("moqo_persist_tier_promotions_total",
                        "Tier hits promoted back to RAM",
                        {{"cache", cache_label}},
                        tier_stat(&persist::DiskTier::Counters::promotions));
    metrics_.AddCounter("moqo_persist_tier_dropped_total",
                        "Tier entries lost to shard resets",
                        {{"cache", cache_label}},
                        tier_stat(&persist::DiskTier::Counters::dropped));
    metrics_.AddGauge("moqo_persist_tier_entries",
                      "Live tier index entries", {{"cache", cache_label}},
                      tier_stat(&persist::DiskTier::Counters::entries));
    metrics_.AddGauge("moqo_persist_tier_bytes",
                      "Live tier on-disk record bytes",
                      {{"cache", cache_label}},
                      tier_stat(&persist::DiskTier::Counters::bytes));
  };
  tier_metrics(cache_tier_, "plan");
  tier_metrics(memo_tier_, "memo");
}

}  // namespace moqo
