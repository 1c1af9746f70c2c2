// Copyright (c) 2026 moqo authors. MIT license.
//
// The benchmark's workloads. Each one builds its inputs from the seed,
// sets up the service (and, for the wire workload, the network server),
// drives it only through the public API, and checks every answer. See
// perfbench/README.md for what each workload stresses and why.

#ifndef MOQO_PERFBENCH_WORKLOADS_H_
#define MOQO_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/plan_set.h"
#include "bench_util.h"
#include "service/optimization_service.h"

namespace moqo {
namespace perfbench {

/// Command-line configuration of one run. Workload sizes come in as
/// named parameters (perfbench/workloads.json is their one source).
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (persist files, trace).
  std::string work_dir;
  std::map<std::string, double> params;

  /// The named parameter; exits with an error when it was not given.
  double Param(const std::string& name) const;
  int IntParam(const std::string& name) const {
    return static_cast<int>(Param(name));
  }
};

/// Raw samples of one timed phase.
struct Phase {
  Clock::time_point start;
  /// Length of the window rates are taken over. Open loops set their
  /// issuing window; closed loops leave 0 and the caller measures issuing
  /// plus the drain of the last requests.
  double window_s = 0;
  /// Call (closed loop) or due time (open loop) to the complete answer:
  /// the response, or the session's target alpha.
  Samples latency;
  /// Due time or call to the first usable frontier, for sessions only:
  /// a one-shot request's first plan is its response (`latency`).
  Samples first_frontier;
  /// Open loop only: how late the generator issued each session.
  Samples generator_lag;
};

/// One benchmark request as the trace analysis sees it: the bench-side
/// root interval and the id that links it to the program's spans.
struct RootSpan {
  uint64_t id = 0;
  Clock::time_point start;
  Clock::time_point end;
  /// 1 when a "bench.call" span with the same id wraps the public call
  /// on the issuing thread; 0 for wire sessions (linked by the
  /// "bench.resolve" span with the same id).
  int has_call = 1;
  /// Client-observed first frontier, microseconds after `start`.
  int64_t first_us = 0;
};

class Workload {
 public:
  explicit Workload(const Config& config) : config_(config) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds every input from the seed: catalog, queries, specs.
  virtual void GenerateInputs() = 0;
  /// Canonical-signature hashes of the generated specs, in issue order
  /// (the seed self-check compares them across seeds).
  virtual std::vector<uint64_t> SpecHashes() const = 0;
  /// The rest of set-up: service (and server) construction, cache fill.
  virtual void Start() = 0;
  /// Issues requests until `stop()` turns true, then waits for every
  /// issued request to finish. `traced` phases also record root spans.
  virtual void RunPhase(const std::function<bool()>& stop, bool traced,
                        Phase* phase) = 0;
  /// After timing: end-of-run counter checks and the sampled EXA
  /// coverage check.
  virtual void Verify() = 0;
  /// Per-layer metrics the workload measures from outside the program.
  virtual void AddLayerMetrics(std::map<std::string, double>* layer) = 0;
  virtual OptimizationService* service() = 0;

  Checks& checks() { return checks_; }
  std::vector<RootSpan> TakeRoots();

 protected:
  /// Keeps a served frontier for the post-run EXA coverage check.
  struct CoverageSample {
    std::shared_ptr<const Query> query;
    ObjectiveSet objectives;
    std::vector<CostVector> served;
    double alpha = 1.0;  ///< The alpha the program reported.
  };

  /// Records one traced request's root interval.
  void AddRoot(const RootSpan& root);
  /// Keeps up to a fixed number of served PlanSets for the select and
  /// codec micro-timings.
  void KeepPlanSet(std::shared_ptr<const PlanSet> plan_set);
  /// Runs EXA on each kept sample and fails every one whose served
  /// frontier does not cover the exact one at the reported alpha.
  void CheckCoverage(const std::vector<CoverageSample>& samples);
  /// ComputeSignature, SelectPlan and PlanSetCodec timings over this
  /// workload's specs and kept PlanSets.
  void AddMicroTimings(const std::vector<ProblemSpec>& specs,
                       std::map<std::string, double>* layer);
  /// Service, memo and persist counters every workload reports.
  void AddServiceCounters(std::map<std::string, double>* layer);

  Config config_;
  Checks checks_;
  std::mutex roots_mu_;
  std::vector<RootSpan> roots_;
  std::mutex plan_sets_mu_;
  std::vector<std::shared_ptr<const PlanSet>> plan_sets_;
};

/// Service options shared by every workload: explicit worker and DP
/// helper counts, everything else at the library defaults.
ServiceOptions BaseServiceOptions(const Config& config);

/// The named workload, or null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const Config& config);

}  // namespace perfbench
}  // namespace moqo

#endif  // MOQO_PERFBENCH_WORKLOADS_H_
