// Copyright (c) 2026 moqo authors. MIT license.

#include "service/stats.h"

#include <sstream>

namespace moqo {
namespace {

/// "p50=1.2 p95=3.4 p99=5.6 max=7.8" — the snapshot's uniform latency
/// rendering.
void AppendQuantiles(std::ostringstream* out, const HistogramSnapshot& h) {
  *out << "p50_ms=" << h.PercentileMs(50) << " p95_ms=" << h.PercentileMs(95)
       << " p99_ms=" << h.PercentileMs(99) << " max_ms=" << h.max_ms;
}

}  // namespace

const std::pair<uint64_t ServiceStatsSnapshot::*, ServiceStatsRegistry::Field>
    ServiceStatsRegistry::kCounters[] = {
        {&ServiceStatsSnapshot::requests_total,
         &ServiceStatsRegistry::requests_total_},
        {&ServiceStatsSnapshot::exact_hits, &ServiceStatsRegistry::exact_hits_},
        {&ServiceStatsSnapshot::frontier_hits,
         &ServiceStatsRegistry::frontier_hits_},
        {&ServiceStatsSnapshot::coalesced_hits,
         &ServiceStatsRegistry::coalesced_hits_},
        {&ServiceStatsSnapshot::tier_hits, &ServiceStatsRegistry::tier_hits_},
        {&ServiceStatsSnapshot::admissions_rejected,
         &ServiceStatsRegistry::admissions_rejected_},
        {&ServiceStatsSnapshot::internal_errors,
         &ServiceStatsRegistry::internal_errors_},
        {&ServiceStatsSnapshot::deadline_timeouts,
         &ServiceStatsRegistry::deadline_timeouts_},
        {&ServiceStatsSnapshot::completed, &ServiceStatsRegistry::completed_},
        {&ServiceStatsSnapshot::sessions_opened,
         &ServiceStatsRegistry::sessions_opened_},
        {&ServiceStatsSnapshot::sessions_coalesced,
         &ServiceStatsRegistry::sessions_coalesced_},
        {&ServiceStatsSnapshot::sessions_active,
         &ServiceStatsRegistry::sessions_active_},
        {&ServiceStatsSnapshot::refinement_steps,
         &ServiceStatsRegistry::refinement_steps_},
        {&ServiceStatsSnapshot::refinement_sheds,
         &ServiceStatsRegistry::refinement_sheds_},
        {&ServiceStatsSnapshot::watchdog_fires,
         &ServiceStatsRegistry::watchdog_fires_},
};

uint64_t ServiceStatsRegistry::Counter(
    uint64_t ServiceStatsSnapshot::*field) const {
  for (const auto& [snapshot_field, counter] : kCounters) {
    if (snapshot_field == field) return (this->*counter).load(kRelaxed);
  }
  return 0;
}

ServiceStatsSnapshot ServiceStatsRegistry::Snapshot() const {
  ServiceStatsSnapshot snapshot;
  for (const auto& [snapshot_field, counter] : kCounters) {
    snapshot.*snapshot_field = (this->*counter).load(kRelaxed);
  }
  snapshot.step_latency = step_latency_.Snapshot();
  snapshot.first_frontier_latency = first_frontier_.Snapshot();
  for (int i = 0; i < kNumAlgorithms; ++i) {
    snapshot.latency_by_algorithm[i] = latency_[i].Snapshot();
  }
  return snapshot;
}

std::string ServiceStatsSnapshot::ToString() const {
  std::ostringstream out;
  out << "requests=" << requests_total << " completed=" << completed
      << " cache_hits=" << cache_hits << " cache_misses=" << cache_misses
      << " hit_rate=" << CacheHitRate() << " exact_hits=" << exact_hits
      << " frontier_hits=" << frontier_hits
      << " coalesced=" << coalesced_hits << " tier_hits=" << tier_hits
      << " rejected=" << admissions_rejected
      << " errors=" << internal_errors << " timeouts=" << deadline_timeouts
      << " evictions=" << cache_evictions << "\n"
      << "  cache: entries=" << cache_entries << " bytes=" << cache_bytes
      << " frontier_plans=" << cached_frontier_plans
      << " mean_frontier=" << MeanCachedFrontier() << "\n"
      << "  memo: hits=" << memo_hits << " misses=" << memo_misses
      << " hit_rate=" << MemoHitRate() << " entries=" << memo_entries
      << " bytes=" << memo_bytes << " inserted=" << memo_insertions
      << " evicted=" << memo_evictions
      << " admission_rejects=" << memo_admission_rejects
      << " invalidations=" << memo_invalidations << "\n"
      << "  sessions: opened=" << sessions_opened
      << " coalesced=" << sessions_coalesced
      << " active=" << sessions_active
      << " refinement_steps=" << refinement_steps
      << " refinement_sheds=" << refinement_sheds
      << " watchdog_fires=" << watchdog_fires << "\n"
      << "  pool: queue_depth=" << pool_queue_depth << " queue_wait ";
  AppendQuantiles(&out, pool_queue_wait);
  out << "\n  step_latency: runs=" << step_latency.count << " ";
  AppendQuantiles(&out, step_latency);
  out << "\n  first_frontier: sessions=" << first_frontier_latency.count
      << " ";
  AppendQuantiles(&out, first_frontier_latency);
  out << "\n";
  for (int i = 0; i < static_cast<int>(latency_by_algorithm.size()); ++i) {
    const HistogramSnapshot& lat = latency_by_algorithm[i];
    if (lat.count == 0) continue;
    out << "  " << AlgorithmName(static_cast<AlgorithmKind>(i))
        << ": runs=" << lat.count << " mean_ms=" << lat.MeanMs() << " ";
    AppendQuantiles(&out, lat);
    out << "\n";
  }
  if (!slow_queries.empty()) {
    out << "  slow_queries (worst " << slow_queries.size() << "):\n";
    for (const SlowQueryEntry& q : slow_queries) {
      out << "    sig=" << std::hex << q.signature << std::dec
          << " algo=" << q.algorithm << " total_ms=" << q.total_ms
          << " queue_ms=" << q.queue_ms << " optimize_ms=" << q.optimize_ms
          << " alpha=" << q.alpha << " frontier=" << q.frontier_size
          << " phase=" << q.phase << "\n";
    }
  }
  return out.str();
}

}  // namespace moqo
