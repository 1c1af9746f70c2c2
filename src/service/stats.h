// Copyright (c) 2026 moqo authors. MIT license.
//
// ServiceStatsRegistry: counters and per-algorithm latency histograms of
// the optimization service, consumed by the bench harness and exposed for
// monitoring. Counters are lock-free atomics; latencies go into
// log-bucketed concurrent histograms (obs/histogram.h), so the snapshot
// reports p50/p95/p99 — the count/total/max LatencyStats aggregate this
// registry used through PR 5 is gone (PR 6). First-frontier latency (time
// from session open to the first published frontier) is a first-class
// histogram here: it is the anytime API's headline metric and the network
// front end's acceptance gauge (ROADMAP).

#ifndef MOQO_SERVICE_STATS_H_
#define MOQO_SERVICE_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "obs/histogram.h"
#include "obs/slow_query_log.h"

namespace moqo {

/// Plain-value snapshot of the registry, safe to copy around.
struct ServiceStatsSnapshot {
  uint64_t requests_total = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Cache hits whose preference matched the cached selection verbatim.
  uint64_t exact_hits = 0;
  /// Cache hits resolved by SelectPlan over the shared PlanSet (the
  /// preference — weights/bounds — differed from the cached one).
  uint64_t frontier_hits = 0;
  /// One-shot requests that joined an identical deadline-free one-step
  /// session instead of optimizing again, then selected from its frontier.
  uint64_t coalesced_hits = 0;
  /// Cache hits served from the RAM→disk tier (the entry had been evicted
  /// from RAM, demoted to a segment file, and was promoted back by this
  /// probe). Labeled by provenance: a tier hit counts here — not in
  /// exact/frontier hits — whatever the preference match.
  uint64_t tier_hits = 0;
  uint64_t admissions_rejected = 0;
  uint64_t deadline_timeouts = 0;  ///< Requests degraded to quick mode.
  /// Invalid requests (null query) and optimizer failures (e.g. OOM) —
  /// distinct from load shedding.
  uint64_t internal_errors = 0;
  uint64_t completed = 0;
  uint64_t cache_evictions = 0;
  /// Resident cache footprint (sampled from the PlanCache at snapshot
  /// time): entry count, accounted bytes, and the summed frontier sizes of
  /// the cached PlanSets.
  size_t cache_entries = 0;
  size_t cache_bytes = 0;
  size_t cached_frontier_plans = 0;
  /// Cross-query subplan memo counters (sampled from the SubplanMemo at
  /// snapshot time; all zero when the memo is disabled). Hits/misses are
  /// per *table set*, not per request — one optimization probes once per
  /// big-enough table set of its DP.
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t memo_insertions = 0;
  uint64_t memo_evictions = 0;
  uint64_t memo_admission_rejects = 0;
  uint64_t memo_invalidations = 0;
  size_t memo_entries = 0;
  size_t memo_bytes = 0;
  /// Anytime-session counters (PR 5). `sessions_opened` counts public
  /// OpenFrontier calls (Submit()'s internal one-step sessions count as
  /// requests, not sessions); `sessions_coalesced` counts opens (Submit()
  /// calls included) that attached to an already running identical
  /// refinement instead of starting their own.
  uint64_t sessions_opened = 0;
  uint64_t sessions_coalesced = 0;
  /// Ladders currently running, one-step ones included (gauge; each holds
  /// one admission slot).
  uint64_t sessions_active = 0;
  /// Completed ladder rungs across all sessions (includes Submit()'s
  /// one-step rungs).
  uint64_t refinement_steps = 0;
  /// Ladders ended early by priority admission under overload (PR 7):
  /// the session kept everything it had published, but its remaining
  /// refinement rungs were shed so first-frontier work never queues
  /// behind background refinement. Distinct from admissions_rejected —
  /// a shed caller still got an answer.
  uint64_t refinement_sheds = 0;
  /// Sessions force-finished DONE{degraded} by the rung watchdog because
  /// a rung exceeded step_deadline_ms * watchdog_factor (PR 8).
  uint64_t watchdog_fires = 0;
  /// Optimize-pool state sampled at snapshot time: tasks waiting for a
  /// worker and the queue-wait distribution they experienced.
  size_t pool_queue_depth = 0;
  HistogramSnapshot pool_queue_wait;
  /// Per-rung latency over all refinement steps.
  HistogramSnapshot step_latency;
  /// Session-open → first published frontier (the anytime API's headline
  /// latency; ROADMAP's net-front-end acceptance metric is its p99).
  HistogramSnapshot first_frontier_latency;
  /// Indexed by static_cast<int>(AlgorithmKind).
  std::array<HistogramSnapshot, kNumAlgorithmKinds> latency_by_algorithm;
  /// Worst-N finished requests, slowest first (sampled at snapshot time).
  std::vector<SlowQueryEntry> slow_queries;

  double CacheHitRate() const {
    const uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0 : static_cast<double>(cache_hits) / lookups;
  }

  /// Fraction of cache hits that needed only O(|frontier|) re-selection.
  double FrontierHitRate() const {
    const uint64_t hits = exact_hits + frontier_hits;
    return hits == 0 ? 0 : static_cast<double>(frontier_hits) / hits;
  }

  /// Fraction of table-set probes answered by the cross-query memo.
  double MemoHitRate() const {
    const uint64_t lookups = memo_hits + memo_misses;
    return lookups == 0 ? 0 : static_cast<double>(memo_hits) / lookups;
  }

  /// Mean plans per cached entry (how big the resident frontiers are).
  double MeanCachedFrontier() const {
    return cache_entries == 0
               ? 0
               : static_cast<double>(cached_frontier_plans) / cache_entries;
  }

  /// Multi-line human-readable rendering for the bench harness.
  std::string ToString() const;
};

class ServiceStatsRegistry {
 public:
  static constexpr int kNumAlgorithms = kNumAlgorithmKinds;

  void RecordRequest() { requests_total_.fetch_add(1, kRelaxed); }
  void RecordAdmissionRejected() {
    admissions_rejected_.fetch_add(1, kRelaxed);
  }
  void RecordInternalError() { internal_errors_.fetch_add(1, kRelaxed); }
  void RecordDeadlineTimeout() { deadline_timeouts_.fetch_add(1, kRelaxed); }
  void RecordCompleted() { completed_.fetch_add(1, kRelaxed); }
  void RecordExactHit() { exact_hits_.fetch_add(1, kRelaxed); }
  void RecordFrontierHit() { frontier_hits_.fetch_add(1, kRelaxed); }
  void RecordCoalescedHit() { coalesced_hits_.fetch_add(1, kRelaxed); }
  void RecordTierHit() { tier_hits_.fetch_add(1, kRelaxed); }
  void RecordSessionOpened() { sessions_opened_.fetch_add(1, kRelaxed); }
  void RecordSessionCoalesced() {
    sessions_coalesced_.fetch_add(1, kRelaxed);
  }
  void RecordSessionStarted() { sessions_active_.fetch_add(1, kRelaxed); }
  void RecordSessionFinished() { sessions_active_.fetch_sub(1, kRelaxed); }
  void RecordRefinementShed() { refinement_sheds_.fetch_add(1, kRelaxed); }
  void RecordWatchdogFire() { watchdog_fires_.fetch_add(1, kRelaxed); }

  /// Records one completed refinement step (ladder rung) and its latency.
  void RecordRefinementStep(double ms) {
    refinement_steps_.fetch_add(1, kRelaxed);
    step_latency_.Record(ms);
  }

  /// Records one fresh (non-cached) optimization's service-side latency.
  void RecordLatency(AlgorithmKind algorithm, double ms) {
    latency_[static_cast<int>(algorithm)].Record(ms);
  }

  /// Records a session's open → first published frontier latency.
  void RecordFirstFrontier(double ms) { first_frontier_.Record(ms); }

  /// The cache_*, memo_*, pool_*, and slow_queries snapshot fields are
  /// sampled from their owning components (PlanCache, SubplanMemo,
  /// ThreadPool, SlowQueryLog) by the service at snapshot time; this
  /// registry leaves them zero/empty.
  ServiceStatsSnapshot Snapshot() const;

  /// Single-value reads for metric samplers: each loads only its own
  /// counter or histogram, where Snapshot() copies every histogram.
  /// `field` names one of the registry's counters in the snapshot (any
  /// other field reads 0).
  uint64_t Counter(uint64_t ServiceStatsSnapshot::*field) const;
  HistogramSnapshot StepLatency() const { return step_latency_.Snapshot(); }
  HistogramSnapshot FirstFrontierLatency() const {
    return first_frontier_.Snapshot();
  }
  HistogramSnapshot Latency(int algorithm) const {
    return latency_[algorithm].Snapshot();
  }

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  using Field = std::atomic<uint64_t> ServiceStatsRegistry::*;
  /// Each counter's snapshot field and backing atomic: the one mapping
  /// both Snapshot() and Counter() read.
  static const std::pair<uint64_t ServiceStatsSnapshot::*, Field>
      kCounters[];

  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> exact_hits_{0};
  std::atomic<uint64_t> frontier_hits_{0};
  std::atomic<uint64_t> coalesced_hits_{0};
  std::atomic<uint64_t> tier_hits_{0};
  std::atomic<uint64_t> admissions_rejected_{0};
  std::atomic<uint64_t> internal_errors_{0};
  std::atomic<uint64_t> deadline_timeouts_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_coalesced_{0};
  std::atomic<uint64_t> sessions_active_{0};
  std::atomic<uint64_t> refinement_steps_{0};
  std::atomic<uint64_t> refinement_sheds_{0};
  std::atomic<uint64_t> watchdog_fires_{0};

  std::array<LatencyHistogram, kNumAlgorithms> latency_;
  LatencyHistogram step_latency_;
  LatencyHistogram first_frontier_;
};

}  // namespace moqo

#endif  // MOQO_SERVICE_STATS_H_
