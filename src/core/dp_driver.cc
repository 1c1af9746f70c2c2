#include "core/dp_driver.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <limits>

#include "core/dominance_kernel.h"
#include "core/plan_set.h"
#include "memo/subplan_memo.h"
#include "obs/trace.h"
#include "plan/plan_dag.h"
#include "util/byte_codec.h"
#include "util/thread_pool.h"

namespace moqo {

namespace {

// Deadline polls are amortized over this many candidate evaluations so the
// steady-state cost of timeout support is one branch per candidate.
constexpr long kDeadlinePollInterval = 4096;

// Bitwise equality: equal bits price identically, so grouping on them is
// exact by construction.
bool SameStats(const OperandStats& a, const OperandStats& b) {
  return DoubleBits(a.rows) == DoubleBits(b.rows) &&
         DoubleBits(a.width) == DoubleBits(b.width);
}

bool StatsLess(const OperandStats& a, const OperandStats& b) {
  if (DoubleBits(a.rows) != DoubleBits(b.rows)) {
    return DoubleBits(a.rows) < DoubleBits(b.rows);
  }
  return DoubleBits(a.width) < DoubleBits(b.width);
}

// Groups `plans` by (cardinality, row width): (*group)[i] is plan i's
// index into *stats, which holds one entry per distinct pair. All plans of
// one table set share a width and only sampled scans split cardinalities,
// so groups are few. `order` is scratch.
void GroupByStats(const ParetoSet& plans, std::vector<int>* order,
                  std::vector<int>* group, std::vector<OperandStats>* stats) {
  const int n = plans.size();
  order->resize(n);
  group->resize(n);
  stats->clear();
  for (int i = 0; i < n; ++i) (*order)[i] = i;
  std::sort(order->begin(), order->end(), [&plans](int a, int b) {
    return StatsLess(CostModel::StatsOf(*plans.at(a)),
                     CostModel::StatsOf(*plans.at(b)));
  });
  for (int i : *order) {
    const OperandStats s = CostModel::StatsOf(*plans.at(i));
    if (stats->empty() || !SameStats(stats->back(), s)) stats->push_back(s);
    (*group)[i] = static_cast<int>(stats->size()) - 1;
  }
}

// Lowers `least` to the component-wise minimum of itself and `terms`.
// Inner rescans, the parallel-children flag and the startup kind depend
// only on the operator and the left operand, so every right group of one
// (left statistics, config) agrees on them; every other field enters the
// fold through sum or max, so folding the least terms bounds the fold
// under any group's terms from below.
void LowerTerms(const CostModel::JoinTerms& terms,
                CostModel::JoinTerms* least) {
  assert(terms.inner_rescans == least->inner_rescans &&
         terms.parallel_children == least->parallel_children &&
         terms.startup == least->startup);
  least->own_time = std::min(least->own_time, terms.own_time);
  least->startup_own = std::min(least->startup_own, terms.startup_own);
  least->setup = std::min(least->setup, terms.setup);
  least->io_pages = std::min(least->io_pages, terms.io_pages);
  least->cpu_load = std::min(least->cpu_load, terms.cpu_load);
  least->cores = std::min(least->cores, terms.cores);
  least->disk = std::min(least->disk, terms.disk);
  least->buffer = std::min(least->buffer, terms.buffer);
  least->energy = std::min(least->energy, terms.energy);
}

// Rejection-corner state of one (left plan, join config) row of
// candidates: no rejection seen yet, a proven corner, or a first rejection
// that yielded none (the row then prices every candidate).
enum class CornerState : uint8_t { kUnknown, kReady, kNone };

}  // namespace

const ParetoSet& DPPlanGenerator::Run(const Query& query,
                                      const DPOptions& options) {
  memo_.clear();
  slot_arenas_.clear();
  stats_ = DPStats();

  const TableSet all = query.AllTables();
  const int n = query.num_tables();
  stats_.total_sets = (1 << n) - 1;

  // With a connected join graph, the Cartesian-product heuristic implies
  // that table sets inducing a disconnected subgraph are never needed: any
  // plan for such a set must contain a Cartesian product while predicate-
  // connected alternatives exist at every DP level (Postgres behaviour).
  const bool skip_disconnected =
      options.cartesian_heuristic && query.JoinGraphConnected();
  const bool parallel = options.parallelism > 1 && options.pool != nullptr &&
                        !options.single_plan_mode;

  // Cross-query memo: single_plan_mode is excluded (its per-set output
  // depends on the request's weights, not just the sub-problem). The key
  // context encodes everything a table set's frontier depends on,
  // including skip_disconnected — it changes which splits have sub-plans.
  SubplanMemo* shared_memo =
      options.single_plan_mode ? nullptr : options.subplan_memo;
  key_context_.reset();
  if (shared_memo != nullptr) {
    key_context_ = std::make_unique<SubplanKeyContext>(
        query, model_->objectives(), options.alpha, registry_->options(),
        options.bushy, options.cartesian_heuristic, options.aggressive_delete,
        skip_disconnected);
  }

  ProcessSingletons(query, options);
  for (int k = 2; k <= n; ++k) {
    std::vector<TableSet> level;
    for (TableSet tables : SubsetsOfSize(all, k)) {
      if (skip_disconnected && !query.InducedSubgraphConnected(tables)) {
        --stats_.total_sets;
        continue;
      }
      level.push_back(tables);
    }
    if (level.empty()) continue;

    TraceSpan level_span(options.tracer, "dp", "dp.level", options.trace_id);
    level_span.AddArg("tables", k);
    const long skipped_before = stats_.corner_skipped_plans;

    // Memo probe, on the caller thread before any of this level's sets is
    // built: hits seal their entry directly from the shared snapshot;
    // misses remember their signature so publish-after-seal below needs no
    // re-encoding. Probing is skipped once the run is in quick mode —
    // quick-mode sets are weight-dependent and must not come from (or go
    // into) the memo.
    std::vector<char> from_memo(level.size(), 0);
    std::vector<SubplanSignature> signatures;
    const bool memo_level = shared_memo != nullptr &&
                            k >= shared_memo->min_tables() &&
                            !stats_.timed_out && !options.deadline.Expired();
    if (memo_level) {
      TraceSpan probe_span(options.tracer, "memo", "memo.probe",
                           options.trace_id);
      const long hits_before = stats_.memo_hits;
      probe_span.AddArg("probes", static_cast<int64_t>(level.size()));
      signatures.resize(level.size());
      for (size_t i = 0; i < level.size(); ++i) {
        // Per-set deadline poll: signature encoding and hit
        // materialization are real work, and an expired run must fall to
        // quick mode as promptly as the build loops do. Expiry is
        // monotone, so the processing loops below see it too; un-probed
        // sets simply stay misses (their `built` flag can never be set,
        // so the publish loop skips their empty signatures).
        if (options.deadline.Expired()) break;
        signatures[i] = key_context_->SignatureFor(level[i]);
        const std::shared_ptr<const PlanSet> entry =
            shared_memo->Lookup(signatures[i]);
        if (entry != nullptr && MaterializeFromMemo(level[i], *entry)) {
          from_memo[i] = 1;
          ++stats_.memo_hits;
        } else {
          ++stats_.memo_misses;
        }
      }
      probe_span.AddArg("hits", stats_.memo_hits - hits_before);
    }

    std::vector<char> built(level.size(), 0);
    if (parallel && level.size() > 1 && !stats_.timed_out &&
        !options.deadline.Expired()) {
      ProcessLevelParallel(level, options, from_memo, &built);
    } else {
      for (size_t i = 0; i < level.size(); ++i) {
        const TableSet tables = level[i];
        if (from_memo[i]) {
          // Sealed from the memo during the probe; only bookkeeping is
          // left, in level order like a local build's.
          ++stats_.complete_sets;
          stats_.last_complete_set = tables;
          stats_.last_complete_pareto_count = SetFor(tables).size();
          continue;
        }
        if (stats_.timed_out || options.deadline.Expired() ||
            options.single_plan_mode) {
          if (!options.single_plan_mode) stats_.timed_out = true;
          ProcessSetQuick(tables, options);
          continue;
        }
        ParetoSet& set = memo_[tables.mask()];
        if (ProcessSetInto(tables, options, arena_, &set, &stats_)) {
          built[i] = 1;
          ++stats_.complete_sets;
          stats_.last_complete_set = tables;
          stats_.last_complete_pareto_count = set.size();
        } else {
          // Deadline hit mid-set: discard the partial result and rebuild
          // this set (and all remaining ones) in quick mode.
          stats_.timed_out = true;
          set.clear();
          ProcessSetQuick(tables, options);
        }
      }
    }
    level_span.AddArg("corner_skipped",
                      stats_.corner_skipped_plans - skipped_before);

    // Publish-after-seal: every set built completely by THIS run (never
    // re-published hits, never quick-mode rebuilds) is offered to the
    // memo, rebased into its canonical dense-rank space. Running after the
    // level barrier on the caller thread keeps the parallel batch free of
    // shared-structure writes.
    if (memo_level) {
      TraceSpan publish_span(options.tracer, "memo", "memo.publish",
                             options.trace_id);
      const long publishes_before = stats_.memo_publishes;
      for (size_t i = 0; i < level.size(); ++i) {
        if (!built[i]) continue;
        const ParetoSet& set = SetFor(level[i]);
        if (!shared_memo->Admits(set, options.alpha)) continue;
        std::array<int, TableSet::kMaxTables> local_to_rank{};
        int rank = 0;
        for (uint64_t m = level[i].mask(); m != 0; m &= m - 1) {
          local_to_rank[std::countr_zero(m)] = rank++;
        }
        shared_memo->Insert(
            signatures[i],
            PlanSet::FromParetoSetRemapped(set, local_to_rank.data()));
        ++stats_.memo_publishes;
      }
      publish_span.AddArg("publishes",
                          stats_.memo_publishes - publishes_before);
    }
  }
  return SetFor(all);
}

bool DPPlanGenerator::MaterializeFromMemo(TableSet tables,
                                          const PlanSet& entry) {
  if (entry.empty()) return false;
  // rank -> local: the entry stores plans over dense ranks 0..k-1 in the
  // set's ascending member order.
  std::array<int, TableSet::kMaxTables> rank_to_local{};
  int k = 0;
  for (uint64_t m = tables.mask(); m != 0; m &= m - 1) {
    rank_to_local[k++] = std::countr_zero(m);
  }
  const TableSet ranks = TableSet::Prefix(k);
  const int dims = model_->objectives().size();
  // Every distinct node must fit the rank space and the run's objective
  // count before the copy indexes rank_to_local with its tables. One
  // DAG-shared pass maps each fitting node to itself and any other to
  // null, so a malformed entry is a miss that costs no arena nodes.
  PlanDagWalker<const PlanNode*> walker(entry.size());
  const auto fits = [ranks, dims](const PlanNode* node,
                                  auto&& walk) -> const PlanNode* {
    if (node->cost.size() != dims || !ranks.ContainsAll(node->tables)) {
      return nullptr;
    }
    const bool ok =
        node->IsScan()
            ? node->right == nullptr && node->table >= 0 &&
                  node->table < TableSet::kMaxTables &&
                  ranks.Contains(node->table)
            : node->right != nullptr && node->table < 0 &&
                  walk(node->left) != nullptr && walk(node->right) != nullptr;
    return ok ? node : nullptr;
  };
  for (int i = 0; i < entry.size(); ++i) {
    if (entry.plan(i)->tables != ranks ||
        walker.Walk(entry.plan(i), fits) == nullptr) {
      return false;
    }
  }
  walker.Clear();
  std::vector<const PlanNode*> plans;
  plans.reserve(entry.size());
  for (int i = 0; i < entry.size(); ++i) {
    plans.push_back(
        CopyPlanDag(entry.plan(i), arena_, &walker, rank_to_local.data()));
  }
  memo_[tables.mask()].LoadSealed(plans);
  return true;
}

uint64_t DPPlanGenerator::SplitWorkProxy(TableSet tables,
                                         const DPOptions& options) const {
  uint64_t work = 0;
  for (SubsetIterator it(tables); !it.Done(); it.Next()) {
    if (!options.bushy && it.Complement().Cardinality() != 1) continue;
    work += static_cast<uint64_t>(SetFor(it.Current()).size()) *
            static_cast<uint64_t>(SetFor(it.Complement()).size());
  }
  return work;
}

void DPPlanGenerator::ProcessLevelParallel(const std::vector<TableSet>& level,
                                           const DPOptions& options,
                                           const std::vector<char>& from_memo,
                                           std::vector<char>* built) {
  // Slots beyond the pool's helpers + the caller can never run, so cap
  // here: parallelism is request-supplied and must not size allocations.
  const int slots =
      std::min(options.parallelism, options.pool->num_threads() + 1);
  while (static_cast<int>(slot_arenas_.size()) < slots - 1) {
    slot_arenas_.push_back(std::make_unique<Arena>());
  }

  // Create this level's memo entries up front, on this thread: tasks then
  // only *read* the map (lower levels via SetFor, their own output through
  // these pointers, which unordered_map keeps stable), so the batch never
  // mutates shared structure. Memo-hit entries already exist and are
  // sealed; operator[] just returns them.
  std::vector<ParetoSet*> outputs;
  outputs.reserve(level.size());
  for (TableSet tables : level) outputs.push_back(&memo_[tables.mask()]);

  // Work list: the memo-miss sets, largest estimated work first. The level
  // ends at a barrier, so a huge set claimed last would serialize the tail
  // behind one thread; issuing big sets first lets the small ones pack the
  // stragglers. Stable sort on the precomputed proxy keeps the schedule
  // deterministic (results never depend on it — one task per set).
  std::vector<int> work;
  work.reserve(level.size());
  for (size_t i = 0; i < level.size(); ++i) {
    if (!from_memo[i]) work.push_back(static_cast<int>(i));
  }
  std::vector<uint64_t> proxy(level.size(), 0);
  for (int index : work) proxy[index] = SplitWorkProxy(level[index], options);
  std::stable_sort(work.begin(), work.end(), [&proxy](int a, int b) {
    return proxy[a] > proxy[b];
  });

  // One padded state block per slot. ParallelFor guarantees slot values
  // are distinct across concurrent participants, so per-slot counting is
  // race-free by construction (audited for PR 6; the TSan-filtered
  // ParallelDpTest covers it) — the padding only stops adjacent slots'
  // counters from false-sharing a cache line.
  struct alignas(64) SlotState {
    DPStats stats;
    /// When this slot finished its last claimed set, in level-watch us;
    /// -1 = the slot never ran a task.
    int64_t last_finish_us = -1;
  };
  std::vector<SlotState> slot_state(slots);
  std::vector<char> completed(level.size(), 0);
  std::atomic<bool> expired{false};

  StopWatch level_watch;
  const auto level_us = [&level_watch] {
    return static_cast<int64_t>(level_watch.ElapsedMillis() * 1000.0);
  };

  options.pool->ParallelFor(
      static_cast<int>(work.size()), slots - 1, [&](int wi, int slot) {
        // After the first expiry, unstarted sets are left empty and
        // rebuilt in quick mode below — the Section 5.1 behaviour.
        if (expired.load(std::memory_order_relaxed)) return;
        const int index = work[wi];
        Arena* arena =
            slot == 0 ? arena_ : slot_arenas_[slot - 1].get();
        TraceSpan set_span(options.tracer, "dp", "dp.set", options.trace_id);
        set_span.AddArg("split_work", static_cast<int64_t>(proxy[index]));
        DPStats& slot_stats = slot_state[slot].stats;
        const long skipped_before = slot_stats.corner_skipped_plans;
        if (ProcessSetInto(level[index], options, arena, outputs[index],
                           &slot_stats)) {
          completed[index] = 1;
        } else {
          expired.store(true, std::memory_order_relaxed);
        }
        set_span.AddArg("corner_skipped",
                        slot_stats.corner_skipped_plans - skipped_before);
        slot_state[slot].last_finish_us = level_us();
      });

  // Barrier-tail attribution: every slot that ran at least one task waited
  // from its last set's completion until the whole level sealed. The sum
  // is the level's load-imbalance cost (ROADMAP: work stealing).
  const int64_t barrier_us = level_us();
  ++stats_.parallel_levels;
  for (const SlotState& s : slot_state) {
    stats_.considered_plans += s.stats.considered_plans;
    stats_.inserted_plans += s.stats.inserted_plans;
    stats_.corner_skipped_plans += s.stats.corner_skipped_plans;
    if (s.last_finish_us < 0) continue;
    const int64_t wait_us = barrier_us - s.last_finish_us;
    stats_.barrier_wait_us += wait_us;
    if (options.tracer != nullptr && options.tracer->enabled()) {
      TraceEvent event;
      event.category = "dp";
      event.name = "dp.barrier_wait";
      event.id = options.trace_id;
      event.start_us = options.tracer->NowUs() - wait_us;
      event.dur_us = wait_us;
      event.arg1_name = "wait_us";
      event.arg1 = wait_us;
      options.tracer->Record(event);
    }
  }
  if (expired.load(std::memory_order_relaxed)) stats_.timed_out = true;
  // Merge step: completion bookkeeping in level order (so the "last
  // complete set" matches the serial engine), and quick rebuilds for sets
  // the expiry interrupted or pre-empted.
  for (size_t i = 0; i < level.size(); ++i) {
    if (from_memo[i]) {
      ++stats_.complete_sets;
      stats_.last_complete_set = level[i];
      stats_.last_complete_pareto_count = outputs[i]->size();
    } else if (completed[i]) {
      (*built)[i] = 1;
      ++stats_.complete_sets;
      stats_.last_complete_set = level[i];
      stats_.last_complete_pareto_count = outputs[i]->size();
    } else {
      outputs[i]->clear();
      ProcessSetQuick(level[i], options);
    }
  }
}

const ParetoSet& DPPlanGenerator::SetFor(TableSet tables) const {
  auto it = memo_.find(tables.mask());
  return it != memo_.end() ? it->second : empty_set_;
}

size_t DPPlanGenerator::MemoryBytes() const {
  size_t bytes = arena_->reserved_bytes();
  for (const std::unique_ptr<Arena>& arena : slot_arenas_) {
    bytes += arena->reserved_bytes();
  }
  for (const auto& [mask, set] : memo_) {
    bytes += set.MemoryBytes() + sizeof(mask);
  }
  return bytes;
}

WeightVector DPPlanGenerator::EffectiveWeights(
    const DPOptions& options) const {
  if (options.quick_mode_weights.size() == model_->objectives().size()) {
    return options.quick_mode_weights;
  }
  return WeightVector::Uniform(model_->objectives().size());
}

void DPPlanGenerator::ProcessSingletons(const Query& query,
                                        const DPOptions& options) {
  const ParetoSet::PruneOptions prune{options.alpha,
                                      options.aggressive_delete};
  const WeightVector weights = EffectiveWeights(options);
  for (int table = 0; table < query.num_tables(); ++table) {
    ParetoSet& set = memo_[TableSet::Singleton(table).mask()];
    if (options.single_plan_mode) {
      // Keep only the weighted-best access path.
      PlanNode best;
      double best_cost = std::numeric_limits<double>::infinity();
      for (int config : registry_->scan_configs()) {
        if (!model_->ScanApplicable(config, table)) continue;
        PlanNode candidate = model_->ScanNode(config, table);
        ++stats_.considered_plans;
        const double weighted = weights.WeightedCost(candidate.cost);
        if (weighted < best_cost) {
          best_cost = weighted;
          best = candidate;
        }
      }
      if (best_cost < std::numeric_limits<double>::infinity()) {
        set.Prune(arena_->New<PlanNode>(best), ParetoSet::PruneOptions());
        ++stats_.inserted_plans;
      }
    } else {
      for (int config : registry_->scan_configs()) {
        if (!model_->ScanApplicable(config, table)) continue;
        PlanNode candidate = model_->ScanNode(config, table);
        ++stats_.considered_plans;
        if (set.WouldInsert(candidate.cost, prune)) {
          set.Prune(arena_->New<PlanNode>(candidate), prune);
          ++stats_.inserted_plans;
        }
      }
    }
    set.Seal();
    ++stats_.complete_sets;
    stats_.last_complete_set = TableSet::Singleton(table);
    stats_.last_complete_pareto_count = set.size();
  }
}

std::vector<DPPlanGenerator::Split> DPPlanGenerator::SplitsOf(
    TableSet tables, const DPOptions& options) const {
  std::vector<Split> connected;
  std::vector<Split> all;
  for (SubsetIterator it(tables); !it.Done(); it.Next()) {
    const TableSet left = it.Current();
    const TableSet right = it.Complement();
    if (!options.bushy && right.Cardinality() != 1) continue;
    Split split{left, right, model_->AnalyzeSplit(left, right)};
    if (options.cartesian_heuristic && split.info.has_predicate) {
      connected.push_back(split);
    }
    all.push_back(split);
  }
  if (options.cartesian_heuristic && !connected.empty()) return connected;
  return all;
}

bool DPPlanGenerator::ProcessSetInto(TableSet tables,
                                     const DPOptions& options, Arena* arena,
                                     ParetoSet* set, DPStats* stats) const {
  const ParetoSet::PruneOptions prune{options.alpha,
                                      options.aggressive_delete};
  const std::vector<int>& configs = registry_->join_configs();
  const int num_configs = static_cast<int>(configs.size());
  const int dims = model_->objectives().size();
  // Scratch reused across splits: the right operand's statistics groups,
  // and for the current left statistics one join output and one row of
  // terms (num_configs wide) per group, plus per config the least terms
  // over all groups.
  std::vector<char> applicable(num_configs);
  std::vector<int> order;
  std::vector<int> right_group;
  std::vector<OperandStats> group_stats;
  std::vector<OperandStats> group_output;
  std::vector<CostModel::JoinTerms> terms;
  std::vector<CostModel::JoinTerms> least(num_configs);
  // The current left plan's rejection corner per config (num_configs x
  // dims, row c valid iff corner_state[c] is kReady).
  std::vector<double> corners(static_cast<size_t>(num_configs) * dims);
  std::vector<CornerState> corner_state(num_configs);
  // Once every applicable config of the current left plan has a corner:
  // their component-wise maximum, at or above which a right plan skips
  // every config at once.
  double max_corner[kNumObjectives] = {};
  long since_poll = 0;
  for (const Split& split : SplitsOf(tables, options)) {
    const ParetoSet& left_plans = SetFor(split.left);
    const ParetoSet& right_plans = SetFor(split.right);
    int num_applicable = 0;
    for (int c = 0; c < num_configs; ++c) {
      applicable[c] = model_->JoinApplicableFast(
          registry_->config(configs[c]), split.info);
      num_applicable += applicable[c];
    }
    GroupByStats(right_plans, &order, &right_group, &group_stats);
    const int num_groups = static_cast<int>(group_stats.size());
    group_output.resize(num_groups);
    terms.resize(static_cast<size_t>(num_groups) * num_configs);

    OperandStats left_stats;
    for (int li = 0; li < left_plans.size(); ++li) {
      const PlanNode* left = left_plans.at(li);
      if (li == 0 || !SameStats(CostModel::StatsOf(*left), left_stats)) {
        // Terms are a pure function of (operator, operand statistics), so
        // one row per left-statistics change prices every candidate of
        // this left plan exactly as JoinNode would.
        left_stats = CostModel::StatsOf(*left);
        for (int g = 0; g < num_groups; ++g) {
          group_output[g] =
              model_->JoinOutputStats(left_stats, group_stats[g], split.info);
          for (int c = 0; c < num_configs; ++c) {
            if (!applicable[c]) continue;
            const CostModel::JoinTerms& t =
                terms[static_cast<size_t>(g) * num_configs + c] =
                    model_->ComputeJoinTerms(registry_->config(configs[c]),
                                             left_stats, group_stats[g],
                                             group_output[g].rows);
            if (g == 0) {
              least[c] = t;
            } else {
              LowerTerms(t, &least[c]);
            }
          }
        }
      }
      std::fill(corner_state.begin(), corner_state.end(),
                CornerState::kUnknown);
      int cornerless = num_applicable;  // Applicable configs not kReady.
      for (int ri = 0; ri < right_plans.size(); ++ri) {
        const PlanNode* right = right_plans.at(ri);
        const double* right_row = right_plans.row(ri);
        if (cornerless == 0 && RowLeqScalar(max_corner, right_row, dims)) {
          // Every config's candidate would skip below: poll and count
          // them all at once.
          since_poll += num_configs;
          if (since_poll >= kDeadlinePollInterval) {
            since_poll = 0;
            if (options.deadline.Expired()) return false;
          }
          stats->considered_plans += num_applicable;
          stats->corner_skipped_plans += num_applicable;
          continue;
        }
        const int g = right_group[ri];
        const CostModel::JoinTerms* row =
            &terms[static_cast<size_t>(g) * num_configs];
        for (int c = 0; c < num_configs; ++c) {
          if (++since_poll >= kDeadlinePollInterval) {
            since_poll = 0;
            if (options.deadline.Expired()) return false;
          }
          if (!applicable[c]) continue;
          ++stats->considered_plans;
          double* corner = &corners[static_cast<size_t>(c) * dims];
          // At or above the corner the fold only rises, so the stored plan
          // behind the corner's rejecter rejects this candidate too.
          if (corner_state[c] == CornerState::kReady &&
              RowLeqScalar(corner, right_row, dims)) {
            ++stats->corner_skipped_plans;
            continue;
          }
          const CostVector cost =
              model_->FoldJoinCost(row[c], left->cost, right->cost);
          if (set->WouldInsert(cost, prune)) {
            set->InsertAccepted(
                arena->New<PlanNode>(CostModel::AssembleJoin(
                    configs[c], left, right, group_output[g], cost)),
                prune);
            ++stats->inserted_plans;
          } else if (corner_state[c] == CornerState::kUnknown) {
            // First rejection in this (left plan, config) row: turn its
            // rejecter into a corner over the least terms of any group.
            // There is none under the aggressive deletion rule, whose
            // rejecters do not stay valid (ParetoSet::recent_rejecter).
            const double* rejecter = set->recent_rejecter();
            if (rejecter == nullptr ||
                !model_->RejectionCorner(least[c], left->cost, rejecter,
                                         options.alpha, corner)) {
              corner_state[c] = CornerState::kNone;
              continue;
            }
            corner_state[c] = CornerState::kReady;
            if (--cornerless == 0) {
              std::fill_n(max_corner, dims, 0.0);
              for (int a = 0; a < num_configs; ++a) {
                if (!applicable[a]) continue;
                const double* other = &corners[static_cast<size_t>(a) * dims];
                for (int d = 0; d < dims; ++d) {
                  max_corner[d] = std::max(max_corner[d], other[d]);
                }
              }
            }
          }
        }
      }
    }
  }
  set->Seal();
  return true;
}

void DPPlanGenerator::ProcessSetQuick(TableSet tables,
                                      const DPOptions& options) {
  const WeightVector weights = EffectiveWeights(options);
  ParetoSet& set = memo_[tables.mask()];
  PlanNode best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const Split& split : SplitsOf(tables, options)) {
    const PlanNode* left = SetFor(split.left).SelectBestWeighted(weights);
    const PlanNode* right = SetFor(split.right).SelectBestWeighted(weights);
    if (left == nullptr || right == nullptr) continue;
    for (int config : registry_->join_configs()) {
      const OperatorConfig& op = registry_->config(config);
      if (!model_->JoinApplicableFast(op, split.info)) continue;
      PlanNode candidate = model_->JoinNode(config, left, right, split.info);
      ++stats_.considered_plans;
      const double weighted = weights.WeightedCost(candidate.cost);
      if (weighted < best_cost) {
        best_cost = weighted;
        best = candidate;
      }
    }
  }
  if (best_cost < std::numeric_limits<double>::infinity()) {
    set.Prune(arena_->New<PlanNode>(best), ParetoSet::PruneOptions());
    ++stats_.inserted_plans;
  }
}

}  // namespace moqo
