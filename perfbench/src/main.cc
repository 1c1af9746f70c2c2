// Copyright (c) 2026 moqo authors. MIT license.
//
// moqo_perfbench: runs one benchmark workload against libmoqo's public API
// and prints one JSON object as its last stdout line. perfbench/run.py
// builds it, passes the workload parameters from perfbench/workloads.json,
// adds the peak RSS it reads from outside, and analyses the trace.
//
//   moqo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--param key=value ...] [--print-specs]
//
// Untraced runs (--trace 0) time the whole window and report the
// end-to-end metrics. Traced runs (--trace 1) run the first half untraced
// and the second half with the service tracer on, until the window ends
// or the span budget is spent, then write DIR/trace.json (spans plus one
// "bench.request" root per traced request) and report the counters and
// micro-timings of each layer.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace moqo {
namespace perfbench {
namespace {

/// Spans a traced phase may record before it stops issuing requests; the
/// per-thread ring (BaseServiceOptions) holds more than this, so nothing
/// wraps.
constexpr uint64_t kSpanBudget = 48000;

/// User plus system CPU seconds this process has used so far.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "moqo_perfbench: %s\nusage: moqo_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--param key=value ...] [--print-specs]\n",
               message);
  std::exit(2);
}

struct Options {
  Config config;
  bool print_specs = false;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  Config& config = options.config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--param") {
      const std::string kv = value();
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) Usage("--param needs key=value");
      config.params[kv.substr(0, eq)] = std::atof(kv.c_str() + eq + 1);
    } else if (arg == "--print-specs") {
      options.print_specs = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.workload.empty() || config.work_dir.empty()) {
    Usage("--workload and --work-dir are required");
  }
  if (!(config.seconds > 0)) Usage("--seconds must be positive");
  return options;
}

/// Samples a tail percentile needs beyond it to be reported.
constexpr size_t kMinBeyond = 10;

/// The p-th percentile of `samples`, or NaN (printed as null,
/// "insufficient samples") when fewer than kMinBeyond samples lie beyond it.
double Tail(const Samples& samples, double p) {
  return samples.Beyond(p) >= kMinBeyond
             ? samples.Percentile(p)
             : std::numeric_limits<double>::quiet_NaN();
}

/// Adds the end-to-end metrics of one untraced phase: rates are counts
/// over the whole window, timings percentiles of the window's raw samples.
/// `cpu_s` is the process CPU time the phase used. run.py passes on the
/// metrics BENCHMARK.json bounds and prints the rest.
void AddEndToEnd(const Config& config, const Phase& phase, double setup_s,
                 double cpu_s, JsonObject* metrics, JsonObject* counts) {
  const double limit_ms = config.Param("latency_limit_ms");
  const Samples& latency = phase.latency;
  const Samples& first =
      phase.first_frontier.size() > 0 ? phase.first_frontier : latency;
  metrics->Num("setup_s", setup_s)
      .Num("throughput_rps", latency.size() / phase.window_s)
      .Num("goodput_rps", latency.AtMost(limit_ms) / phase.window_s)
      .Num("latency_p50_ms", latency.Percentile(50))
      .Num("first_frontier_p50_ms", first.Percentile(50))
      .Num("cpu_ms_per_request",
           latency.size() == 0 ? 0 : cpu_s * 1000 / latency.size())
      .Num("latency_p90_ms", Tail(latency, 90))
      .Num("latency_p99_ms", Tail(latency, 99))
      .Num("first_frontier_p99_ms", Tail(first, 99));
  // Sample counts, and how many samples lie beyond each tail percentile.
  counts->Int("latency_samples", latency.size())
      .Int("latency_beyond_p90", latency.Beyond(90))
      .Int("latency_beyond_p99", latency.Beyond(99))
      .Int("first_frontier_samples", first.size())
      .Int("first_frontier_beyond_p99", first.Beyond(99));
}

int Run(const Options& options) {
  const Config& config = options.config;
  std::filesystem::create_directories(config.work_dir);

  if (options.print_specs) {
    std::unique_ptr<Workload> workload = MakeWorkload(config);
    if (workload == nullptr) Usage("unknown workload");
    workload->GenerateInputs();
    const std::vector<uint64_t> hashes = workload->SpecHashes();
    std::printf("{\"count\": %zu, \"specs\": [", hashes.size());
    for (size_t i = 0; i < hashes.size(); ++i) {
      std::printf("%s\"%016llx\"", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(hashes[i]));
    }
    std::printf("]}\n");
    return 0;
  }

  // Set-up runs several times; the last instance serves the timed window.
  // The reported set-up time is the median of the process CPU seconds one
  // set-up takes: wall time moves with the CPU time other tenants take
  // from a shared host, CPU time moves with the work (the wall-clock
  // median is printed beside it).
  std::unique_ptr<Workload> workload;
  Samples setup_cpu_s, setup_wall_s;
  const int reps = config.IntParam("setup_reps");
  for (int rep = 0; rep < reps; ++rep) {
    workload.reset();
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    workload = MakeWorkload(config);
    if (workload == nullptr) Usage("unknown workload");
    workload->GenerateInputs();
    workload->Start();
    setup_wall_s.Add(MsBetween(start, Clock::now()) / 1000);
    setup_cpu_s.Add(ProcessCpuSeconds() - cpu_start);
  }

  JsonObject metrics, counts, layer_json;
  std::map<std::string, double> layer;
  Phase untraced;
  auto until = [](Clock::time_point end) {
    return [end] { return Clock::now() >= end; };
  };
  auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  if (!config.trace) {
    const double cpu_start = ProcessCpuSeconds();
    untraced.start = Clock::now();
    workload->RunPhase(until(untraced.start + seconds(config.seconds)), false,
                       &untraced);
    // Closed loops: issuing window plus the drain of the last requests.
    if (untraced.window_s == 0) {
      untraced.window_s = MsBetween(untraced.start, Clock::now()) / 1000;
    }
    AddEndToEnd(config, untraced, setup_cpu_s.Percentile(50),
                ProcessCpuSeconds() - cpu_start, &metrics, &counts);
    metrics.Num("setup_wall_s", setup_wall_s.Percentile(50));
    counts.Int("setup_reps", reps);
  } else {
    const Clock::duration half = seconds(config.seconds / 2);
    untraced.start = Clock::now();
    workload->RunPhase(until(untraced.start + half), false, &untraced);
    Tracer* tracer = workload->service()->tracer();
    Phase traced;
    traced.start = Clock::now();
    const Clock::time_point trace_end = traced.start + half;
    tracer->SetEnabled(true);
    workload->RunPhase(
        [&] {
          return Clock::now() >= trace_end ||
                 tracer->recorded_events() >= kSpanBudget;
        },
        true, &traced);
    tracer->SetEnabled(false);
    // Roots go in after the phase, on this thread, with their real times.
    const Clock::time_point now = Clock::now();
    const int64_t now_us = tracer->NowUs();
    auto to_us = [&](Clock::time_point t) {
      return now_us - static_cast<int64_t>(MsBetween(t, now) * 1000);
    };
    const std::vector<RootSpan> roots = workload->TakeRoots();
    for (const RootSpan& root : roots) {
      TraceEvent event;
      event.category = "bench";
      event.name = "bench.request";
      event.id = root.id;
      event.start_us = to_us(root.start);
      event.dur_us = to_us(root.end) - event.start_us;
      event.arg1_name = "has_call";
      event.arg1 = root.has_call;
      event.arg2_name = "first_us";
      event.arg2 = root.first_us;
      tracer->Record(event);
    }
    const std::string trace_path = config.work_dir + "/trace.json";
    if (!tracer->WriteChromeTrace(trace_path)) {
      workload->checks().Fail("trace_write");
    }
    layer["bench.spans_dropped"] =
        static_cast<double>(tracer->dropped_events());
    const double untraced_p50 = untraced.latency.Percentile(50);
    layer["bench.trace_overhead"] =
        untraced_p50 > 0
            ? traced.latency.Percentile(50) / untraced_p50 - 1
            : 0;
    untraced.generator_lag.Merge(traced.generator_lag);
    counts.Int("traced_latency_samples", traced.latency.size());
  }
  layer["bench.generator_lag_p99_ms"] = untraced.generator_lag.Percentile(99);

  workload->Verify();
  if (config.trace) {
    workload->AddLayerMetrics(&layer);
    for (const auto& [name, value] : layer) layer_json.Num(name, value);
  }

  const Checks& checks = workload->checks();
  JsonObject failures;
  for (const auto& [reason, count] : checks.reasons()) {
    failures.Int(reason, count);
  }
  JsonObject result;
  result.Int("attempted", checks.attempted())
      .Int("failed", checks.failed())
      .Obj("failures", failures)
      .Obj("metrics", metrics)
      .Obj("layer", layer_json)
      .Obj("counts", counts);
  std::printf("%s\n", result.Render().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace moqo

int main(int argc, char** argv) {
  return moqo::perfbench::Run(moqo::perfbench::ParseArgs(argc, argv));
}
