// Copyright (c) 2026 moqo authors. MIT license.

#include "workloads.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/algorithm.h"
#include "frontier/frontier.h"
#include "harness/workload.h"
#include "net/blocking_client.h"
#include "net/net_server.h"
#include "persist/plan_set_codec.h"
#include "query/tpch_queries.h"
#include "service/signature.h"
#include "util/random.h"

namespace moqo {
namespace perfbench {

double Config::Param(const std::string& name) const {
  auto it = params.find(name);
  if (it == params.end()) {
    std::fprintf(stderr, "perfbench: workload %s needs --param %s=<value>\n",
                 workload.c_str(), name.c_str());
    std::exit(2);
  }
  return it->second;
}

ServiceOptions BaseServiceOptions(const Config& config) {
  ServiceOptions options;
  options.num_workers = config.IntParam("workers");
  options.num_dp_helpers = config.IntParam("dp_helpers");
  options.policy.max_parallelism = config.IntParam("dp_helpers");
  options.policy.parallel_min_tables = config.IntParam("parallel_min_tables");
  // Sized so a traced phase that stops at the span budget never wraps a
  // ring (the budget is far below one ring, and no thread records more
  // than the whole budget).
  options.trace.ring_capacity = size_t{1} << 16;
  return options;
}

std::vector<RootSpan> Workload::TakeRoots() {
  std::lock_guard<std::mutex> lock(roots_mu_);
  return std::move(roots_);
}

void Workload::AddRoot(const RootSpan& root) {
  std::lock_guard<std::mutex> lock(roots_mu_);
  roots_.push_back(root);
}

void Workload::KeepPlanSet(std::shared_ptr<const PlanSet> plan_set) {
  constexpr size_t kKept = 256;
  if (plan_set == nullptr || plan_set->empty()) return;
  std::lock_guard<std::mutex> lock(plan_sets_mu_);
  if (plan_sets_.size() < kKept) plan_sets_.push_back(std::move(plan_set));
}

void Workload::CheckCoverage(const std::vector<CoverageSample>& samples) {
  OptimizerOptions options;
  options.operators = service()->options().operators;
  options.bushy = service()->options().bushy;
  options.cartesian_heuristic = service()->options().cartesian_heuristic;
  for (const CoverageSample& sample : samples) {
    MOQOProblem problem;
    problem.query = sample.query.get();
    problem.objectives = sample.objectives;
    problem.weights = WeightVector::Uniform(sample.objectives.size());
    problem.bounds = BoundVector(sample.objectives.size());
    const OptimizerResult exact =
        MakeOptimizer(AlgorithmKind::kExa, options)->Optimize(problem);
    const double coverage = CoverageAlpha(sample.served, exact.frontier());
    if (!(coverage <= sample.alpha * (1 + 1e-9))) {
      std::fprintf(stderr,
                   "perfbench: coverage check failed: served frontier "
                   "covers EXA at %.6f, reported alpha %.6f\n",
                   coverage, sample.alpha);
      checks_.Fail("exa_coverage");
    }
  }
}

void Workload::AddMicroTimings(const std::vector<ProblemSpec>& specs,
                               std::map<std::string, double>* layer) {
  // Each timing repeats its loop until it has run for a few milliseconds,
  // so the mean per call is well above the clock's resolution.
  constexpr double kMinMs = 20;
  OptimizerOptions options;
  options.operators = service()->options().operators;
  uint64_t calls = 0;
  uint64_t sink = 0;
  const Clock::time_point sig_start = Clock::now();
  while (MsBetween(sig_start, Clock::now()) < kMinMs && !specs.empty()) {
    for (const ProblemSpec& spec : specs) {
      sink += ComputeSignature(*spec.query, spec.objectives,
                               AlgorithmKind::kRta, 1.5, options)
                  .hash;
      ++calls;
    }
  }
  (*layer)["service.signature_us"] =
      calls == 0 ? 0 : MsBetween(sig_start, Clock::now()) * 1000 / calls;

  std::vector<std::shared_ptr<const PlanSet>> sets;
  {
    std::lock_guard<std::mutex> lock(plan_sets_mu_);
    sets = plan_sets_;
  }
  Xoshiro256 rng(config_.seed);
  calls = 0;
  const Clock::time_point select_start = Clock::now();
  while (MsBetween(select_start, Clock::now()) < kMinMs && !sets.empty()) {
    for (const auto& set : sets) {
      WeightVector weights(set->cost(0).size());
      for (int i = 0; i < weights.size(); ++i) weights[i] = rng.NextDouble();
      sink += static_cast<uint64_t>(SelectPlan(*set, weights).index);
      ++calls;
    }
  }
  (*layer)["service.select_us"] =
      calls == 0 ? 0 : MsBetween(select_start, Clock::now()) * 1000 / calls;

  std::vector<std::string> encoded;
  for (const auto& set : sets) {
    std::string bytes;
    persist::PlanSetCodec::Append(*set, &bytes);
    encoded.push_back(std::move(bytes));
  }
  calls = 0;
  const Clock::time_point decode_start = Clock::now();
  while (MsBetween(decode_start, Clock::now()) < kMinMs && !encoded.empty()) {
    for (const std::string& bytes : encoded) {
      size_t consumed = 0;
      auto decoded =
          persist::PlanSetCodec::Decode(bytes.data(), bytes.size(), &consumed);
      if (decoded == nullptr || decoded->size() == 0) {
        checks_.Fail("codec_roundtrip");
        break;
      }
      sink += consumed;
      ++calls;
    }
  }
  (*layer)["persist.plan_set_decode_us"] =
      calls == 0 ? 0 : MsBetween(decode_start, Clock::now()) * 1000 / calls;
  if (sink == 42) std::fprintf(stderr, " ");  // Keeps the loops observable.
}

void Workload::AddServiceCounters(std::map<std::string, double>* layer) {
  const ServiceStatsSnapshot stats = service()->Stats();
  const SubplanMemo::Stats memo = service()->MemoStats();
  const persist::PersistStatsSnapshot persist = service()->PersistStats();
  auto& l = *layer;
  l["memo.hits"] = memo.hits;
  l["memo.misses"] = memo.misses;
  l["memo.hit_rate"] = memo.HitRate();
  l["memo.insertions"] = memo.insertions;
  l["memo.evictions"] = memo.evictions;
  l["memo.admission_rejects"] = memo.admission_rejects;
  l["memo.bytes"] = memo.bytes;
  l["service.cache_hit_rate"] = stats.CacheHitRate();
  l["service.exact_hits"] = stats.exact_hits;
  l["service.frontier_hits"] = stats.frontier_hits;
  l["service.tier_hits"] = stats.tier_hits;
  l["service.cache_evictions"] = stats.cache_evictions;
  l["service.cache_bytes"] = stats.cache_bytes;
  l["service.rejected"] = stats.admissions_rejected;
  l["service.refinement_sheds"] = stats.refinement_sheds;
  l["service.deadline_timeouts"] = stats.deadline_timeouts;
  l["service.watchdog_fires"] = stats.watchdog_fires;
  l["persist.cache_tier_demotions"] = persist.cache_tier_demotions;
  l["persist.cache_tier_promotions"] = persist.cache_tier_promotions;
}

namespace {

/// Seeds the fixed part of the generated inputs (which objective sets a
/// workload uses), so that the run seed varies the inputs without
/// changing how much work they are.
constexpr uint64_t kUniverseSeed = 0x6d6f716f;

std::vector<Objective> PickObjectives(Xoshiro256* rng, int count) {
  std::vector<Objective> picked;
  for (int index : rng->SampleWithoutReplacement(kNumObjectives, count)) {
    picked.push_back(kAllObjectives[index]);
  }
  return picked;
}

/// TPC-H query `number` with its filter constants shifted by a seeded
/// amount: the same join graph under a new parameter binding, as a
/// prepared statement sees it. Range filters slide by up to 5% of their
/// width, inequality constants move by up to 3%, equality constants
/// (categorical) stay.
std::shared_ptr<const Query> BoundTpcHQuery(const Catalog* catalog,
                                            int number, Xoshiro256* rng) {
  const Query base = MakeTpcHQuery(catalog, number);
  auto query = std::make_shared<Query>(catalog, base.name());
  for (int i = 0; i < base.num_tables(); ++i) {
    query->AddTable(base.table_id(i));
  }
  for (const JoinPredicate& join : base.joins()) {
    query->AddJoin(join.left_table, join.left_column, join.right_table,
                   join.right_column);
  }
  for (FilterPredicate filter : base.filters()) {
    if (filter.op == FilterOp::kRange) {
      const double shift =
          (filter.value_hi - filter.value) * rng->NextDouble(-0.05, 0.05);
      filter.value += shift;
      filter.value_hi += shift;
    } else if (filter.op != FilterOp::kEquals) {
      filter.value *= rng->NextDouble(0.97, 1.03);
    }
    query->AddFilter(filter);
  }
  return query;
}

uint64_t SpecHash(const ProblemSpec& spec, const Preference* preference) {
  const AlgorithmKind algorithm = spec.algorithm.value_or(AlgorithmKind::kRta);
  return ComputeSignature(*spec.query, spec.objectives, algorithm,
                          spec.alpha.value_or(1.5), OptimizerOptions{},
                          preference ? &preference->weights : nullptr,
                          preference ? &preference->bounds : nullptr)
      .hash;
}

WeightVector RandomWeights(Xoshiro256* rng, int size) {
  WeightVector weights(size);
  for (int i = 0; i < size; ++i) weights[i] = rng->NextDouble();
  return weights;
}

/// Checks one served one-shot response; returns false (after counting
/// the failure) when it carries no valid answer.
bool CheckResponse(const ServiceResponse& response, double requested_alpha,
                   Checks* checks) {
  if (response.status == ResponseStatus::kRejected) {
    checks->Fail("rejected");
    return false;
  }
  if (response.status == ResponseStatus::kCompletedQuick) {
    checks->Fail("quick_degraded");
    return false;
  }
  if (response.result == nullptr || response.result->plan == nullptr) {
    checks->Fail("null_plan");
    return false;
  }
  if (!(response.alpha <= requested_alpha * (1 + 1e-9))) {
    checks->Fail("alpha_above_requested");
    return false;
  }
  return true;
}

/// Runs `clients` threads, each calling `one(client)` until `stop()`.
void ClosedLoop(int clients, const std::function<bool()>& stop,
                const std::function<void(int)>& one) {
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!stop()) one(c);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// ---------------------------------------------------------------------------
// cold_many_objective: distinct many-objective TPC-H specs, one client.

class ColdManyObjective : public Workload {
 public:
  using Workload::Workload;

  void GenerateInputs() override {
    catalog_ = std::make_unique<Catalog>(Catalog::TpcH(config_.Param("sf")));
    WorkloadGenerator minima(catalog_.get(), OptimizerOptions{});
    Xoshiro256 rng(config_.seed);
    const double alpha = config_.Param("alpha");
    const double exa_share = config_.Param("exa_share");
    // Strata: every round issues one request per stratum, in a seeded
    // order. A stratum fixes the query, the objective set and (for IRA)
    // the bounds, drawn once from a constant seed, so every run does the
    // same mix of work. The run seed draws what varies without changing
    // the work's size: the order of the objectives (the cost vector's
    // dimension order), the filter bindings, the weights and the request
    // order; together they make every spec distinct. Queries of six and
    // more tables are left out: their latency varies tenfold with the
    // objective set (Q8 at six objectives: 0.15 s to 4.4 s).
    struct Stratum {
      int query;
      std::vector<Objective> objectives;
      /// Bound per objective of `objectives` (infinite = none); IRA iff
      /// any is finite. Section 8's recipe: bounded-domain objectives
      /// U[0, 1], others the single-objective minimum times U[1, 2].
      std::vector<double> bounds;
    };
    std::vector<Stratum> strata;
    Xoshiro256 universe(kUniverseSeed);
    for (int q : {3, 11, 18, 10, 21, 2}) {
      for (int k = 6; k <= 9; ++k) {
        for (int i = 0; i < config_.IntParam("sets_per_stratum"); ++i) {
          strata.push_back({q, PickObjectives(&universe, k), {}});
        }
      }
    }
    for (int q : {3, 11, 18}) {
      for (int k = 6; k <= 8; ++k) {
        Stratum stratum{q, PickObjectives(&universe, k),
                        std::vector<double>(
                            k, std::numeric_limits<double>::infinity())};
        for (int dim : universe.SampleWithoutReplacement(k, 2)) {
          const Objective objective = stratum.objectives[dim];
          stratum.bounds[dim] =
              GetObjectiveInfo(objective).bounded_domain
                  ? universe.NextDouble()
                  : minima.ObjectiveMinimum(q, objective) *
                        universe.NextDouble(1.0, 2.0);
        }
        strata.push_back(std::move(stratum));
      }
    }
    std::unordered_set<uint64_t> seen;
    const int rounds = config_.IntParam("rounds");
    for (int round = 0; round < rounds; ++round) {
      std::vector<int> order =
          rng.SampleWithoutReplacement(static_cast<int>(strata.size()),
                                       static_cast<int>(strata.size()));
      for (int index : order) {
        const Stratum& stratum = strata[index];
        const int k = static_cast<int>(stratum.objectives.size());
        const bool ira = !stratum.bounds.empty();
        Request request;
        ProblemSpec& spec = request.request.spec;
        Preference& preference = request.request.preference;
        do {
          // A seeded permutation of the stratum's objectives.
          std::vector<Objective> objectives;
          std::vector<int> position = rng.SampleWithoutReplacement(k, k);
          for (int p : position) objectives.push_back(stratum.objectives[p]);
          spec.query = BoundTpcHQuery(catalog_.get(), stratum.query, &rng);
          spec.objectives = ObjectiveSet(objectives);
          spec.alpha = alpha;
          preference.weights = RandomWeights(&rng, k);
          preference.bounds = BoundVector(k);
          if (ira) {
            spec.algorithm = AlgorithmKind::kIra;
            for (int p = 0; p < k; ++p) {
              if (std::isfinite(stratum.bounds[position[p]])) {
                preference.bounds[p] = stratum.bounds[position[p]];
              }
            }
          }
          request.hash = SpecHash(spec, ira ? &preference : nullptr);
        } while (!seen.insert(request.hash).second);
        request.check_exa = !ira &&
                            TpcHQueryTableCount(stratum.query) == 3 &&
                            k <= 7 && rng.NextDouble() < exa_share;
        requests_.push_back(std::move(request));
      }
    }
  }

  std::vector<uint64_t> SpecHashes() const override {
    std::vector<uint64_t> hashes;
    for (const Request& request : requests_) hashes.push_back(request.hash);
    return hashes;
  }

  void Start() override {
    // Caches small enough to fill early in the window, so the run measures
    // a server at its memory steady state rather than one still growing.
    ServiceOptions options = BaseServiceOptions(config_);
    options.cache.capacity_bytes =
        static_cast<size_t>(config_.IntParam("cache_mib")) << 20;
    options.subplan_memo.capacity_bytes =
        static_cast<size_t>(config_.IntParam("memo_mib")) << 20;
    service_ = std::make_unique<OptimizationService>(options);
  }

  void RunPhase(const std::function<bool()>& stop, bool traced,
                Phase* phase) override {
    Tracer* tracer = service_->tracer();
    while (!stop()) {
      if (next_ >= requests_.size()) {
        std::fprintf(stderr, "perfbench: cold request stream exhausted\n");
        break;
      }
      const Request& request = requests_[next_++];
      checks_.Attempt();
      const uint64_t id = traced ? tracer->NextId() : 0;
      const Clock::time_point start = Clock::now();
      ServiceResponse response;
      {
        TraceSpan call(tracer, "bench", "bench.call", id);
        response = service_->SubmitAndWait(request.request);
      }
      const Clock::time_point end = Clock::now();
      if (traced) AddRoot({id, start, end, 1, 0});
      if (!CheckResponse(response, *request.request.spec.alpha, &checks_)) {
        continue;
      }
      if (response.cache != CacheOutcome::kMiss) {
        // Every spec is new: a cache answer means the run is not cold.
        checks_.Fail("cold_cache_hit");
        continue;
      }
      const double ms = MsBetween(start, end);
      phase->latency.Add(ms);
      const OptimizerMetrics& metrics = response.result->metrics;
      optimization_ms_.Add(metrics.optimization_ms);
      considered_plans_ += static_cast<double>(metrics.considered_plans);
      optimization_total_ms_ += metrics.optimization_ms;
      frontier_size_.Add(response.result->frontier_size());
      arena_bytes_.Add(static_cast<double>(metrics.memory_bytes));
      if (request.request.spec.algorithm == AlgorithmKind::kIra) {
        iterations_.Add(metrics.iterations);
      }
      KeepPlanSet(response.result->plan_set);
      if (request.check_exa) {
        coverage_.push_back({request.request.spec.query,
                             request.request.spec.objectives,
                             response.result->frontier(), response.alpha});
      }
    }
  }

  void Verify() override {
    if (service_->Stats().cache_hits != 0) checks_.Fail("cold_cache_hit");
    CheckCoverage(coverage_);
  }

  void AddLayerMetrics(std::map<std::string, double>* layer) override {
    AddServiceCounters(layer);
    auto& l = *layer;
    l["core.optimization_ms_p50"] = optimization_ms_.Percentile(50);
    l["core.considered_plans"] = considered_plans_;
    l["core.considered_plans_per_s"] =
        optimization_total_ms_ > 0
            ? considered_plans_ / (optimization_total_ms_ / 1000)
            : 0;
    l["core.iterations_mean"] = iterations_.Mean();
    l["core.frontier_size_mean"] = frontier_size_.Mean();
    l["core.arena_bytes_mean"] = arena_bytes_.Mean();
    std::vector<ProblemSpec> specs;
    for (size_t i = 0; i < next_ && i < 512; ++i) {
      specs.push_back(requests_[i].request.spec);
    }
    AddMicroTimings(specs, layer);
  }

  OptimizationService* service() override { return service_.get(); }

 private:
  struct Request {
    ServiceRequest request;
    uint64_t hash = 0;
    bool check_exa = false;
  };

  std::unique_ptr<Catalog> catalog_;
  std::vector<Request> requests_;
  size_t next_ = 0;
  std::vector<CoverageSample> coverage_;
  Samples optimization_ms_, frontier_size_, arena_bytes_, iterations_;
  double considered_plans_ = 0;
  double optimization_total_ms_ = 0;
  std::unique_ptr<OptimizationService> service_;
};

// ---------------------------------------------------------------------------
// warm_preference_tiered: fresh preferences over a cached working set that
// is four times the RAM cache, with the disk tier behind it.

class WarmPreferenceTiered : public Workload {
 public:
  using Workload::Workload;

  void GenerateInputs() override {
    catalog_ = std::make_unique<Catalog>(Catalog::TpcH(config_.Param("sf")));
    Xoshiro256 rng(config_.seed);
    std::vector<int> templates;
    for (int q : TpcHQueryOrder()) {
      const int tables = TpcHQueryTableCount(q);
      if (tables >= 2 && tables <= config_.IntParam("max_tables")) {
        templates.push_back(q);
      }
    }
    // Spec i has popularity rank i. Its template and objective set are
    // fixed by the rank (drawn from a constant seed), so every run has the
    // same hot set; the run seed draws the filter bindings and the order
    // of the objectives.
    const int size = config_.IntParam("working_set");
    const int min_objectives = config_.IntParam("min_objectives");
    const int objective_counts =
        config_.IntParam("max_objectives") - min_objectives + 1;
    std::unordered_set<uint64_t> seen;
    Xoshiro256 universe(kUniverseSeed);
    for (int i = 0; i < size; ++i) {
      const int q = templates[i % templates.size()];
      const int k =
          min_objectives + (i / static_cast<int>(templates.size())) %
                               objective_counts;
      const std::vector<Objective> set = PickObjectives(&universe, k);
      ProblemSpec spec;
      uint64_t hash = 0;
      do {
        std::vector<Objective> objectives;
        for (int p : rng.SampleWithoutReplacement(k, k)) {
          objectives.push_back(set[p]);
        }
        spec.query = BoundTpcHQuery(catalog_.get(), q, &rng);
        spec.objectives = ObjectiveSet(objectives);
        hash = SpecHash(spec, nullptr);
      } while (!seen.insert(hash).second);
      specs_.push_back(std::move(spec));
      hashes_.push_back(hash);
    }
    double total = 0;
    for (int r = 0; r < size; ++r) {
      total += 1.0 / std::pow(r + 1, config_.Param("zipf_s"));
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    for (int c = 0; c < config_.IntParam("clients"); ++c) {
      client_rngs_.emplace_back(config_.seed * 1000003 + c + 1);
    }
  }

  std::vector<uint64_t> SpecHashes() const override { return hashes_; }

  void Start() override {
    namespace fs = std::filesystem;
    const std::string dir = config_.work_dir + "/persist";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const int clients = config_.IntParam("clients");
    size_t entry_bytes = 0;
    {
      // Filler: optimizes the whole working set into an unbounded cache
      // and snapshots it.
      ServiceOptions options = BaseServiceOptions(config_);
      options.cache.capacity_bytes = size_t{1} << 30;
      options.persist.directory = dir;
      options.persist.restore_on_start = false;
      options.persist.snapshot_on_shutdown = false;
      OptimizationService filler(options);
      minima_.assign(specs_.size(), {});
      std::atomic<size_t> next{0};
      ClosedLoop(
          clients, [&] { return next.load() >= specs_.size(); },
          [&](int) {
            const size_t i = next.fetch_add(1);
            if (i >= specs_.size()) return;
            ServiceRequest request;
            request.spec = specs_[i];
            const ServiceResponse response = filler.SubmitAndWait(request);
            if (!CheckResponse(response, options.policy.default_alpha,
                               &checks_)) {
              return;
            }
            const PlanSet& set = *response.result->plan_set;
            std::vector<double> minima(specs_[i].objectives.size(),
                                       std::numeric_limits<double>::max());
            for (int p = 0; p < set.size(); ++p) {
              for (size_t d = 0; d < minima.size(); ++d) {
                minima[d] = std::min(minima[d], set.cost(p)[d]);
              }
            }
            minima_[i] = std::move(minima);
          });
      entry_bytes = filler.CacheStats().bytes;
      const Clock::time_point snapshot_start = Clock::now();
      if (!filler.SnapshotNow()) checks_.Fail("snapshot_write");
      snapshot_ms_ = MsBetween(snapshot_start, Clock::now());
    }
    // Serving service: a RAM cache holding a fraction of the working set,
    // warm-restored from the snapshot; evictions demote to the disk tier.
    ServiceOptions options = BaseServiceOptions(config_);
    options.cache.capacity_bytes = std::max<size_t>(
        1, static_cast<size_t>(entry_bytes * config_.Param("ram_share")));
    options.persist.directory = dir;
    options.persist.restore_on_start = false;
    options.persist.snapshot_on_shutdown = false;
    // Half of the tier budget backs the plan cache (the other half the
    // memo); segments that fill are dropped whole, so the budget is a
    // multiple of the working set.
    options.persist.tier_capacity_bytes =
        static_cast<size_t>(entry_bytes * 2 * config_.Param("tier_share"));
    service_ = std::make_unique<OptimizationService>(options);
    const Clock::time_point restore_start = Clock::now();
    service_->RestoreNow();
    restore_ms_ = MsBetween(restore_start, Clock::now());
    if (service_->PersistStats().restored_plan_entries != specs_.size()) {
      checks_.Fail("restore_incomplete");
    }
    cache_budget_bytes_ = options.cache.capacity_bytes;
    entry_bytes_ = entry_bytes;
  }

  void RunPhase(const std::function<bool()>& stop, bool traced,
                Phase* phase) override {
    const double bound_share = config_.Param("bound_share");
    const int exa_max_tables = config_.IntParam("exa_max_tables");
    const int clients = config_.IntParam("clients");
    Tracer* tracer = service_->tracer();
    std::vector<Phase> per_client(clients);
    std::mutex coverage_mu;
    ClosedLoop(clients, stop, [&](int c) {
      Xoshiro256& rng = client_rngs_[c];
      const size_t spec_index = static_cast<size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                           rng.NextDouble()) -
          zipf_cdf_.begin());
      ServiceRequest request;
      request.spec = specs_[spec_index];
      const int k = request.spec.objectives.size();
      request.preference.weights = RandomWeights(&rng, k);
      request.preference.bounds = BoundVector(k);
      if (rng.NextDouble() < bound_share && !minima_[spec_index].empty()) {
        const int dim = rng.NextInt(0, k - 1);
        request.preference.bounds[dim] =
            GetObjectiveInfo(request.spec.objectives.at(dim)).bounded_domain
                ? rng.NextDouble()
                : minima_[spec_index][dim] * rng.NextDouble(1.0, 2.0);
      }
      checks_.Attempt();
      const uint64_t id = traced ? tracer->NextId() : 0;
      const Clock::time_point start = Clock::now();
      ServiceResponse response;
      {
        TraceSpan call(tracer, "bench", "bench.call", id);
        response = service_->SubmitAndWait(request);
      }
      const Clock::time_point end = Clock::now();
      if (traced) AddRoot({id, start, end, 1, 0});
      if (!CheckResponse(response, service_->options().policy.default_alpha,
                         &checks_)) {
        return;
      }
      if (!response.cache_hit()) misses_.fetch_add(1);
      const double ms = MsBetween(start, end);
      Phase& mine = per_client[c];
      mine.latency.Add(ms);
      KeepPlanSet(response.result->plan_set);
      std::lock_guard<std::mutex> lock(coverage_mu);
      frontier_size_sum_ += response.result->frontier_size();
      ++frontier_size_count_;
      if (request.spec.query->num_tables() <= exa_max_tables &&
          coverage_.size() < static_cast<size_t>(
                                 config_.IntParam("exa_samples")) &&
          rng.NextDouble() < 0.01) {
        coverage_.push_back({request.spec.query, request.spec.objectives,
                             response.result->frontier(), response.alpha});
      }
    });
    for (const Phase& mine : per_client) phase->latency.Merge(mine.latency);
  }

  void Verify() override { CheckCoverage(coverage_); }

  void AddLayerMetrics(std::map<std::string, double>* layer) override {
    AddServiceCounters(layer);
    auto& l = *layer;
    l["core.frontier_size_mean"] =
        frontier_size_count_ == 0
            ? 0
            : frontier_size_sum_ / static_cast<double>(frontier_size_count_);
    // Timed-window requests the cache did not answer (the tier's
    // promote/demote window, or a coalesced wait on such a miss).
    l["service.warm_misses"] = static_cast<double>(misses_.load());
    l["persist.snapshot_write_ms"] = snapshot_ms_;
    l["persist.restore_ms"] = restore_ms_;
    l["bench.working_set_bytes"] = static_cast<double>(entry_bytes_);
    l["bench.cache_budget_bytes"] = static_cast<double>(cache_budget_bytes_);
    AddMicroTimings(specs_, layer);
  }

  OptimizationService* service() override { return service_.get(); }

 private:
  std::unique_ptr<Catalog> catalog_;
  std::vector<ProblemSpec> specs_;
  std::vector<uint64_t> hashes_;
  std::vector<double> zipf_cdf_;
  /// Per spec and objective, the best cost on its frontier: bounds are
  /// drawn as that minimum times U[1, 2] (Section 8's recipe).
  std::vector<std::vector<double>> minima_;
  /// Per-client request streams, seeded from the run seed.
  std::vector<Xoshiro256> client_rngs_;
  std::vector<CoverageSample> coverage_;
  /// Served frontier sizes, summed rather than kept: a sample per
  /// request would grow the RSS this workload reports.
  double frontier_size_sum_ = 0;
  uint64_t frontier_size_count_ = 0;
  std::atomic<uint64_t> misses_{0};
  double snapshot_ms_ = 0;
  double restore_ms_ = 0;
  size_t entry_bytes_ = 0;
  size_t cache_budget_bytes_ = 0;
  std::unique_ptr<OptimizationService> service_;
};

// ---------------------------------------------------------------------------
// Session workloads over the shared-subgraph chain (harness/workload.h).

/// Windows over one long chain; the seed picks where on the chain the run
/// starts, so different seeds open different queries.
class ChainInputs {
 public:
  void Generate(const Config& config) {
    Xoshiro256 rng(config.seed);
    first_ = static_cast<int>(rng.NextInt(0, 999));
    offset_ = first_ + config.IntParam("warmup_sessions");
    SharedSubgraphOptions options;
    options.tables_per_query = config.IntParam("tables_per_query");
    options.num_objectives = config.IntParam("objectives");
    options.num_queries = offset_ + config.IntParam("windows");
    options.stride = 1;
    catalog_ = std::make_unique<Catalog>(MakeSharedSubgraphCatalog(options));
    // The windows of BuildSharedSubgraphSpecs, with tables resolved by
    // id: chain table i has catalog id i, and resolving thousands of
    // windows by name (a linear Catalog::FindTable each) would dominate
    // set-up.
    const std::vector<Objective> objectives(
        kAllObjectives.begin(),
        kAllObjectives.begin() + options.num_objectives);
    specs_.resize(options.num_queries);
    for (int q = first_; q < options.num_queries; ++q) {
      auto query = std::make_shared<Query>(catalog_.get(), "window");
      for (int t = q; t < q + options.tables_per_query; ++t) {
        query->AddTable(t);
      }
      for (int i = 0; i + 1 < options.tables_per_query; ++i) {
        query->AddJoin(i, "k", i + 1, "k");
      }
      specs_[q].query = std::move(query);
      specs_[q].objectives = ObjectiveSet(objectives);
    }
  }
  /// The first timed window; the warm-up windows precede it.
  int offset() const { return offset_; }
  const std::vector<ProblemSpec>& specs() const { return specs_; }
  std::vector<uint64_t> Hashes() const {
    std::vector<uint64_t> hashes;
    for (size_t i = offset_; i < specs_.size(); ++i) {
      hashes.push_back(SpecHash(specs_[i], nullptr));
    }
    return hashes;
  }
  /// The timed windows.
  std::vector<ProblemSpec> TimedSpecs() const {
    return {specs_.begin() + offset_, specs_.end()};
  }

 private:
  std::unique_ptr<Catalog> catalog_;
  std::vector<ProblemSpec> specs_;
  int first_ = 0;
  int offset_ = 0;
};

/// The wire protocol's query id of chain window `window`.
std::string WindowId(size_t window) {
  std::string id = "w";
  id += std::to_string(window);
  return id;
}

SessionOptions LadderOptions(const Config& config) {
  SessionOptions options;
  options.alpha_start = config.Param("alpha_start");
  options.alpha_target = config.Param("alpha_target");
  options.max_steps = config.IntParam("max_steps");
  options.quick_first = true;
  return options;
}

// anytime_open_loop: sessions opened at a fixed Poisson rate.
class AnytimeOpenLoop : public Workload {
 public:
  using Workload::Workload;

  void GenerateInputs() override { chain_.Generate(config_); }
  std::vector<uint64_t> SpecHashes() const override { return chain_.Hashes(); }

  void Start() override {
    service_ = std::make_unique<OptimizationService>(
        BaseServiceOptions(config_));
    // Warm-up: the windows just before the timed ones, one at a time, so
    // the memo holds the shared subchains the first timed session needs.
    const SessionOptions ladder = LadderOptions(config_);
    for (int i = chain_.offset() - config_.IntParam("warmup_sessions");
         i < chain_.offset(); ++i) {
      service_->OpenFrontier(chain_.specs()[i], ladder)->AwaitTarget();
    }
    next_window_ = chain_.offset();
  }

  void RunPhase(const std::function<bool()>& stop, bool traced,
                Phase* phase) override {
    const double rate = config_.Param("rate");
    const double reopen_share = config_.Param("reopen_share");
    const double exa_share = config_.Param("exa_share");
    const SessionOptions ladder = LadderOptions(config_);
    const double target = ladder.alpha_target;
    Tracer* tracer = service_->tracer();
    Xoshiro256 rng(config_.seed * 7919 + phases_++);

    struct Track {
      Clock::time_point due, opened;
      std::atomic<int64_t> first_ns{-1}, target_ns{-1};
      std::atomic<bool> alpha_increased{false};
      /// Written only by the session's callbacks (serialized per session).
      double last_alpha = std::numeric_limits<double>::infinity();
      uint64_t id = 0;
      bool reopen = false;
      size_t window = 0;
    };
    std::vector<std::shared_ptr<Track>> tracks;
    std::vector<std::shared_ptr<FrontierSession>> sessions;
    const Clock::time_point epoch = phase->start;
    auto since_epoch_ns = [epoch] {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - epoch)
          .count();
    };
    Clock::time_point due = epoch;
    while (!stop()) {
      std::this_thread::sleep_until(due);
      auto track = std::make_shared<Track>();
      track->due = due;
      track->reopen = !recent_.empty() && rng.NextDouble() < reopen_share;
      if (track->reopen) {
        track->window = recent_[rng.NextInt(0, recent_.size() - 1)];
      } else {
        if (next_window_ >= chain_.specs().size()) {
          std::fprintf(stderr, "perfbench: chain windows exhausted\n");
          break;
        }
        track->window = next_window_++;
        recent_.push_back(track->window);
        if (recent_.size() > 32) recent_.erase(recent_.begin());
      }
      checks_.Attempt();
      track->id = traced ? tracer->NextId() : 0;
      track->opened = Clock::now();
      std::shared_ptr<FrontierSession> session;
      {
        TraceSpan call(tracer, "bench", "bench.call", track->id);
        session = service_->OpenFrontier(chain_.specs()[track->window], ladder);
      }
      // The callback owns its track: a session that outlives this phase
      // never writes into freed memory.
      session->OnRefined([raw = track, target, since_epoch_ns](
                             const RefinedFrontier& frontier) {
        const int64_t now = since_epoch_ns();
        int64_t unset = -1;
        // A failed exchange loads the earlier publish time into `unset`:
        // only later publishes must tighten alpha.
        raw->first_ns.compare_exchange_strong(unset, now);
        if (unset >= 0 && !(frontier.alpha < raw->last_alpha)) {
          raw->alpha_increased = true;
        }
        raw->last_alpha = frontier.alpha;
        unset = -1;
        if (frontier.alpha <= target * (1 + 1e-12)) {
          raw->target_ns.compare_exchange_strong(unset, now);
        }
      });
      tracks.push_back(std::move(track));
      sessions.push_back(std::move(session));
      due += std::chrono::nanoseconds(static_cast<int64_t>(
          -std::log(1 - rng.NextDouble()) / rate * 1e9));
    }
    phase->window_s = MsBetween(epoch, Clock::now()) / 1000;

    for (size_t i = 0; i < tracks.size(); ++i) {
      const Track* track = tracks[i].get();
      FrontierSession& session = *sessions[i];
      session.AwaitFor(60000);
      if (!session.Done()) {
        checks_.Fail("session_not_done");
        continue;
      }
      const double due_ms = MsBetween(epoch, track->due);
      const int64_t first_ns = track->first_ns.load();
      const int64_t target_ns = track->target_ns.load();
      phase->generator_lag.Add(MsBetween(track->due, track->opened));
      if (traced) {
        // Open call to target; sessions that never reach it end at done.
        RootSpan root{track->id, track->opened, Clock::now(), 1, 0};
        if (target_ns >= 0) {
          root.end = epoch + std::chrono::nanoseconds(target_ns);
        }
        AddRoot(root);
      }
      if (session.Rejected()) {
        checks_.Fail("rejected");
        continue;
      }
      const SessionSelection selection = session.Select(Preference{});
      if (selection.selection.plan == nullptr || first_ns < 0) {
        checks_.Fail("null_plan");
        continue;
      }
      if (track->alpha_increased) {
        checks_.Fail("alpha_increase");
        continue;
      }
      if (session.Degraded() && !session.TargetReached()) {
        checks_.Fail("quick_degraded");
        continue;
      }
      phase->first_frontier.Add(first_ns / 1e6 - due_ms);
      if (!session.TargetReached() || target_ns < 0) continue;  // Shed.
      if (!(session.BestAlpha() <= target * (1 + 1e-9))) {
        checks_.Fail("alpha_above_requested");
        continue;
      }
      const double ms = target_ns / 1e6 - due_ms;
      phase->latency.Add(ms);
      for (const RefinedFrontier& step : session.History()) {
        if (!step.from_cache && step.step > 0) step_ms_.Add(step.step_ms);
      }
      frontier_size_.Add(session.BestFrontier()->size());
      KeepPlanSet(session.BestFrontier());
      if (!track->reopen && rng.NextDouble() < exa_share &&
          coverage_.size() < static_cast<size_t>(
                                 config_.IntParam("exa_samples"))) {
        const ProblemSpec& spec = chain_.specs()[track->window];
        coverage_.push_back({spec.query, spec.objectives,
                             session.BestFrontier()->costs(),
                             session.BestAlpha()});
      }
    }
  }

  void Verify() override { CheckCoverage(coverage_); }

  void AddLayerMetrics(std::map<std::string, double>* layer) override {
    AddServiceCounters(layer);
    (*layer)["service.step_latency_p50_ms"] = step_ms_.Percentile(50);
    (*layer)["core.frontier_size_mean"] = frontier_size_.Mean();
    AddMicroTimings(chain_.TimedSpecs(), layer);
  }

  OptimizationService* service() override { return service_.get(); }

 private:
  ChainInputs chain_;
  size_t next_window_ = 0;
  std::vector<size_t> recent_;
  int phases_ = 0;
  std::vector<CoverageSample> coverage_;
  Samples step_ms_, frontier_size_;
  std::unique_ptr<OptimizationService> service_;
};

// wire_sessions: the same sessions over loopback, one per connection.
class WireSessions : public Workload {
 public:
  using Workload::Workload;

  void GenerateInputs() override {
    chain_.Generate(config_);
    for (size_t i = 0; i < chain_.specs().size(); ++i) {
      if (chain_.specs()[i].query != nullptr) {
        queries_[WindowId(i)] = Window{i, chain_.specs()[i].query};
      }
    }
    root_ids_.reset(new std::atomic<uint64_t>[chain_.specs().size()]());
  }
  std::vector<uint64_t> SpecHashes() const override { return chain_.Hashes(); }

  void Start() override {
    service_ = std::make_unique<OptimizationService>(
        BaseServiceOptions(config_));
    net::NetOptions options;
    options.resolve_query =
        [this](const std::string& id) -> std::shared_ptr<const Query> {
      auto it = queries_.find(id);
      if (it == queries_.end()) return nullptr;
      // A traced session's root id, in a span the server's event loop
      // records inside the net.read span of the session's connection:
      // the trace analysis links client sessions to server opens by it.
      const uint64_t root_id = root_ids_[it->second.index].load();
      if (root_id != 0) {
        TraceSpan span(service_->tracer(), "bench", "bench.resolve",
                       root_id);
      }
      return it->second.query;
    };
    server_ = std::make_unique<net::NetServer>(service_.get(), options);
    if (!server_->Start()) {
      std::fprintf(stderr, "perfbench: net server failed to start\n");
      std::exit(2);
    }
    next_window_ = chain_.offset() - config_.IntParam("warmup_sessions");
    const size_t warm_end = chain_.offset();
    ClosedLoop(
        config_.IntParam("clients"),
        [&] { return next_window_.load() >= warm_end; },
        [&](int) {
          const size_t window = next_window_.fetch_add(1);
          if (window >= warm_end) return;
          Phase ignored;
          Xoshiro256 rng(window);
          RunSession(window, false, &rng, &ignored);
        });
    next_window_ = chain_.offset();
  }

  void RunPhase(const std::function<bool()>& stop, bool traced,
                Phase* phase) override {
    const int clients = config_.IntParam("clients");
    std::vector<Phase> per_client(clients);
    std::vector<Xoshiro256> rngs;
    for (int c = 0; c < clients; ++c) {
      rngs.emplace_back(config_.seed * 1000003 + phases_ * 1024 + c);
    }
    ++phases_;
    ClosedLoop(clients, stop, [&](int c) {
      Xoshiro256& rng = rngs[c];
      const size_t window = next_window_.fetch_add(1);
      if (window >= chain_.specs().size()) {
        checks_.Fail("windows_exhausted");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return;
      }
      RunSession(window, traced, &rng, &per_client[c]);
    });
    for (const Phase& mine : per_client) {
      phase->latency.Merge(mine.latency);
      phase->first_frontier.Merge(mine.first_frontier);
    }
  }

  void Verify() override {
    if (server_->Stats().protocol_errors != 0) checks_.Fail("protocol_error");
    CheckCoverage(coverage_);
  }

  void AddLayerMetrics(std::map<std::string, double>* layer) override {
    AddServiceCounters(layer);
    const net::NetStatsSnapshot stats = server_->Stats();
    auto& l = *layer;
    l["net.pushes_sent"] = stats.pushes_sent;
    l["net.pushes_dropped"] = stats.pushes_dropped;
    l["net.protocol_errors"] = stats.protocol_errors;
    l["net.connect_ms_p50"] = connect_ms_.Percentile(50);
    l["core.frontier_size_mean"] = frontier_size_.Mean();
    // Codec timings over the frames this run actually received.
    std::vector<std::string> frames;
    {
      std::lock_guard<std::mutex> lock(captured_mu_);
      for (const net::FrontierUpdateMsg& msg : captured_) {
        frames.push_back(net::EncodeFrontierUpdate(msg));
      }
    }
    double bytes = 0;
    for (const std::string& frame : frames) bytes += frame.size();
    l["net.update_bytes_mean"] = frames.empty() ? 0 : bytes / frames.size();
    constexpr double kMinMs = 20;
    uint64_t calls = 0;
    size_t sink = 0;
    const Clock::time_point encode_start = Clock::now();
    while (MsBetween(encode_start, Clock::now()) < kMinMs && !frames.empty()) {
      std::lock_guard<std::mutex> lock(captured_mu_);
      for (const net::FrontierUpdateMsg& msg : captured_) {
        sink += net::EncodeFrontierUpdate(msg).size();
        ++calls;
      }
    }
    l["net.encode_us"] =
        calls == 0 ? 0 : MsBetween(encode_start, Clock::now()) * 1000 / calls;
    calls = 0;
    const Clock::time_point decode_start = Clock::now();
    while (MsBetween(decode_start, Clock::now()) < kMinMs && !frames.empty()) {
      for (const std::string& frame : frames) {
        net::FrameDecoder decoder;
        decoder.Feed(frame.data(), frame.size());
        net::MsgType type;
        std::vector<uint8_t> payload;
        net::FrontierUpdateMsg msg;
        if (decoder.Next(&type, &payload) !=
                net::FrameDecoder::Status::kFrame ||
            !net::DecodeFrontierUpdate(payload.data(), payload.size(),
                                       &msg)) {
          checks_.Fail("wire_decode");
          break;
        }
        sink += msg.costs.size();
        ++calls;
      }
    }
    l["net.decode_us"] =
        calls == 0 ? 0 : MsBetween(decode_start, Clock::now()) * 1000 / calls;
    if (sink == 42) std::fprintf(stderr, " ");
    AddMicroTimings(chain_.TimedSpecs(), layer);
  }

  OptimizationService* service() override { return service_.get(); }

  ~WireSessions() override {
    if (server_ != nullptr) server_->Stop();
  }

 private:
  /// One connection: connect, open, read pushes until DONE; with the
  /// seeded reopen share, one Reopen of the same spec afterwards (the
  /// retry path; it lands on the plan cache).
  void RunSession(size_t window, bool traced, Xoshiro256* rng,
                  Phase* phase) {
    const SessionOptions ladder = LadderOptions(config_);
    const ProblemSpec& spec = chain_.specs()[window];
    net::BlockingNetClient client;
    const Clock::time_point connect_start = Clock::now();
    checks_.Attempt();
    if (!client.Connect("127.0.0.1", server_->port())) {
      checks_.Fail("connect");
      return;
    }
    {
      std::lock_guard<std::mutex> lock(captured_mu_);
      connect_ms_.Add(MsBetween(connect_start, Clock::now()));
    }
    net::OpenFrontierMsg open;
    open.query_id = WindowId(window);
    for (Objective objective : spec.objectives) {
      open.objectives.push_back(static_cast<uint8_t>(objective));
    }
    open.alpha_start = ladder.alpha_start;
    open.alpha_target = ladder.alpha_target;
    open.max_steps = ladder.max_steps;
    open.quick_first = 1;
    const bool reopen = rng->NextDouble() < config_.Param("reopen_share");
    const bool check_exa =
        rng->NextDouble() < config_.Param("exa_share");
    for (int attempt = 0; attempt < (reopen ? 2 : 1); ++attempt) {
      if (attempt == 1) checks_.Attempt();
      const uint64_t id = traced ? service_->tracer()->NextId() : 0;
      root_ids_[window].store(id);
      const Clock::time_point start = Clock::now();
      const bool sent = attempt == 0 ? client.SendOpen(open) : client.Reopen();
      if (!sent) {
        checks_.Fail("send_open");
        return;
      }
      double first_ms = -1, target_ms = -1;
      double last_alpha = std::numeric_limits<double>::infinity();
      bool alpha_increased = false;
      net::FrontierUpdateMsg last;
      net::BlockingNetClient::Event event;
      const bool done = client.AwaitDone(
          &event,
          [&](const net::FrontierUpdateMsg& msg) {
            const double ms = MsBetween(start, Clock::now());
            if (first_ms >= 0 && !(msg.alpha < last_alpha)) {
              alpha_increased = true;
            }
            if (first_ms < 0) first_ms = ms;
            last_alpha = msg.alpha;
            if (target_ms < 0 &&
                msg.alpha <= ladder.alpha_target * (1 + 1e-12)) {
              target_ms = ms;
            }
            last = msg;
          },
          30000);
      const Clock::time_point end = Clock::now();
      if (!done || event.type != net::MsgType::kDone) {
        checks_.Fail("missing_done");
        return;
      }
      if (traced) {
        AddRoot({id, start,
                 target_ms >= 0 ? start + std::chrono::microseconds(
                                              static_cast<int64_t>(
                                                  target_ms * 1000))
                                : end,
                 0, static_cast<int64_t>(first_ms * 1000)});
      }
      if (event.done.rejected) {
        checks_.Fail("rejected");
        return;
      }
      if (first_ms < 0 || last.num_plans() == 0) {
        checks_.Fail("null_plan");
        return;
      }
      if (alpha_increased) {
        checks_.Fail("alpha_increase");
        return;
      }
      if (event.done.degraded && !event.done.target_reached) {
        checks_.Fail("quick_degraded");
        return;
      }
      phase->first_frontier.Add(first_ms);
      if (!event.done.target_reached || target_ms < 0) continue;  // Shed.
      if (!(event.done.best_alpha <= ladder.alpha_target * (1 + 1e-9))) {
        checks_.Fail("alpha_above_requested");
        return;
      }
      phase->latency.Add(target_ms);
      std::lock_guard<std::mutex> lock(captured_mu_);
      frontier_size_.Add(last.num_plans());
      if (captured_.size() < 256) captured_.push_back(last);
      if (check_exa && attempt == 0 &&
          coverage_.size() <
              static_cast<size_t>(config_.IntParam("exa_samples"))) {
        std::vector<CostVector> served;
        for (uint32_t p = 0; p < last.num_plans(); ++p) {
          CostVector cost(static_cast<int>(last.dims));
          for (uint32_t d = 0; d < last.dims; ++d) {
            cost[d] = last.costs[p * last.dims + d];
          }
          served.push_back(cost);
        }
        coverage_.push_back(
            {spec.query, spec.objectives, std::move(served), last.alpha});
      }
    }
  }

  ChainInputs chain_;
  struct Window {
    size_t index = 0;
    std::shared_ptr<const Query> query;
  };
  std::unordered_map<std::string, Window> queries_;
  /// Per window, the root id of its traced session in flight (0: none).
  std::unique_ptr<std::atomic<uint64_t>[]> root_ids_;
  std::atomic<size_t> next_window_{0};
  uint64_t phases_ = 0;
  /// Guards what the client threads collect: the captured frames (for
  /// the codec timings), the samples and the coverage sample.
  std::mutex captured_mu_;
  std::vector<net::FrontierUpdateMsg> captured_;
  Samples connect_ms_, frontier_size_;
  std::vector<CoverageSample> coverage_;
  std::unique_ptr<OptimizationService> service_;
  std::unique_ptr<net::NetServer> server_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Config& config) {
  if (config.workload == "cold_many_objective") {
    return std::make_unique<ColdManyObjective>(config);
  }
  if (config.workload == "warm_preference_tiered") {
    return std::make_unique<WarmPreferenceTiered>(config);
  }
  if (config.workload == "anytime_open_loop") {
    return std::make_unique<AnytimeOpenLoop>(config);
  }
  if (config.workload == "wire_sessions") {
    return std::make_unique<WireSessions>(config);
  }
  return nullptr;
}

}  // namespace perfbench
}  // namespace moqo
