#!/usr/bin/env python3
# Copyright (c) 2026 moqo authors. MIT license.
"""The moqo benchmark: builds libmoqo and the benchmark binary from this
checkout's sources, runs one workload, and prints one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

With --trace 0 the result carries every end-to-end metric of
BENCHMARK.json; with --trace 1 every per-layer metric, and a per-span layer
table goes to stderr. Workload parameters live in perfbench/workloads.json.
The build goes to $CARGO_TARGET_DIR when set, else .bench_build.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170

# Spans recorded at a point in time rather than around a call: they
# measure an interval (first frontier, barrier tail) but do not nest in the
# thread's call stack, so they take no part in self time or coverage.
SYNTHETIC_SPANS = {"session.first_frontier", "dp.barrier_wait"}

# Per-layer self-time metrics and the span each one reads.
SELF_TIME_METRICS = {
    "core.dp_level_self_ms": "dp.level",
    "core.dp_set_self_ms": "dp.set",
    "memo.probe_self_ms": "memo.probe",
    "memo.publish_self_ms": "memo.publish",
    "service.request_open_self_ms": "request.open",
    "service.cache_probe_self_ms": "cache.probe",
    "service.admission_self_ms": "admission",
    "service.quick_prelude_self_ms": "quick.prelude",
    "service.request_self_ms": "request",
    "service.request_rung_self_ms": "request.rung",
    "service.optimize_self_ms": "optimize",
    "service.rung_publish_self_ms": "rung.publish",
    "service.coalesce_wait_self_ms": "coalesce.wait",
    "service.pool_task_self_ms": "pool.task",
    "net.accept_self_ms": "net.accept",
    "net.read_self_ms": "net.read",
    "net.push_self_ms": "net.push",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no library sources at src/ next to "
                         "perfbench/; run from the root of a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "moqo_perfbench")


def workload_params(config, name, toy=False):
    workload = config["workloads"][name]
    params = dict(config["common"])
    params.update(workload["params"])
    if toy:
        params.update(workload.get("toy", {}))
    return params


def run_binary(binary, args, timeout_s=RUN_TIMEOUT_S):
    """Runs the binary; returns (parsed last stdout line, peak RSS in MiB).

    The peak RSS comes from wait4() on this one child, so nothing the
    script itself or the build did counts.
    """
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: benchmark binary exited with "
                         f"{proc.returncode}")
    lines = [l for l in output.splitlines() if l.strip()]
    if not lines:
        raise SystemExit("perfbench: benchmark binary printed no result")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Trace analysis.

def _nest(spans):
    """Assigns each span its parent on one thread (spans nest strictly)."""
    spans.sort(key=lambda s: (s["ts"], -s["dur"]))
    stack = []
    for span in spans:
        end = span["ts"] + span["dur"]
        while stack and stack[-1]["ts"] + stack[-1]["dur"] < end:
            stack.pop()
        span["parent"] = stack[-1] if stack else None
        span["children"] = []
        if stack:
            stack[-1]["children"].append(span)
        stack.append(span)


def _union_length(intervals, lo, hi):
    """Length of the union of [a, b) intervals clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _descendants(span):
    out = []
    todo = list(span["children"])
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(s["children"])
    return out


def analyse_trace(events):
    """Per-span self time and counts, request attribution, and the
    trace-derived per-layer metrics, from Chrome trace events."""
    spans = []
    for e in events:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        spans.append({"name": e["name"], "cat": e.get("cat", ""),
                      "tid": e["tid"], "ts": e["ts"], "dur": e["dur"],
                      "id": args.get("id", 0), "args": args})
    roots = [s for s in spans if s["name"] == "bench.request"]
    nested = [s for s in spans
              if s["name"] not in SYNTHETIC_SPANS and s["name"] != "bench.request"]
    by_thread = {}
    for s in nested:
        by_thread.setdefault(s["tid"], []).append(s)
    for thread_spans in by_thread.values():
        _nest(thread_spans)

    program = [s for s in nested if s["cat"] != "bench"]
    table = {}
    for s in program:
        # Bench spans inside program spans (the wire resolver) count as
        # the program span's own time.
        child = sum(c["dur"] for c in s["children"] if c["cat"] != "bench")
        row = table.setdefault(s["name"], {"count": 0, "self_us": 0.0,
                                           "total_us": 0.0})
        row["count"] += 1
        row["self_us"] += max(0, s["dur"] - child)
        row["total_us"] += s["dur"]
    # Queue wait recorded by each pool task (its queue_us argument) is the
    # pool queue layer: an interval ending where the task span starts.
    queue_us = [s["args"].get("queue_us", 0) for s in program
                if s["name"] == "pool.task"]
    if queue_us:
        table["pool.queue"] = {"count": len(queue_us),
                               "self_us": float(sum(queue_us)),
                               "total_us": float(sum(queue_us))}

    by_id = {}
    for s in program:
        if s["id"]:
            by_id.setdefault(s["id"], []).append(s)
    calls = {s["id"]: s for s in nested if s["name"] == "bench.call"}

    wire_roots = [r for r in roots if not r["args"].get("has_call")]
    wire_ids, unlinked_opens = _link_wire_sessions(wire_roots, nested)
    if wire_roots:
        log(f"wire sessions: {len(wire_roots)} traced, "
            f"{len(wire_roots) - len(wire_ids)} not linked to a server "
            f"open, {unlinked_opens} server opens without a traced session")

    covered_total = 0.0
    root_total = 0.0
    for root in roots:
        if root["args"].get("has_call"):
            call = calls.get(root["id"])
            ids = ({s["id"] for s in _descendants(call) if s["id"]}
                   if call else set())
        else:
            ids = set(wire_ids.get(root["id"], ()))
        intervals = []
        for request_id in ids:
            for s in by_id.get(request_id, []):
                intervals.append((s["ts"], s["ts"] + s["dur"]))
                parent = s["parent"]
                while parent is not None and parent["cat"] != "bench":
                    if parent["id"] == 0:
                        intervals.append((parent["ts"],
                                          parent["ts"] + parent["dur"]))
                        if parent["name"] == "pool.task":
                            queued = parent["args"].get("queue_us", 0)
                            intervals.append((parent["ts"] - queued,
                                              parent["ts"]))
                    parent = parent["parent"]
        lo, hi = root["ts"], root["ts"] + root["dur"]
        root_total += hi - lo
        covered_total += _union_length(intervals, lo, hi)

    n = max(1, len(roots))
    layer = {metric: table.get(span, {}).get("self_us", 0.0) / 1000.0 / n
             for metric, span in SELF_TIME_METRICS.items()}
    barrier = [s["dur"] for s in spans if s["name"] == "dp.barrier_wait"]
    layer["core.barrier_wait_ms"] = sum(barrier) / 1000.0 / n
    queue_ms = sorted(q / 1000.0 for q in queue_us)
    layer["service.queue_ms_p50"] = _percentile(queue_ms, 50)
    layer["service.queue_ms_p99"] = _percentile(queue_ms, 99)
    layer["bench.unattributed_share"] = (
        1 - covered_total / root_total if root_total > 0 else 0.0)
    # Per linked wire session: the client's first frontier (from its
    # OPEN) minus the service's (from its open).
    server_first = {s["id"]: s["dur"] for s in spans
                    if s["name"] == "session.first_frontier"}
    overhead_ms = sorted(
        (r["args"]["first_us"] - server_first[wire_ids[r["id"]][0]]) / 1000.0
        for r in wire_roots
        if r["id"] in wire_ids and r["args"].get("first_us", -1) >= 0
        and wire_ids[r["id"]][0] in server_first)
    layer["net.first_frontier_overhead_ms_p50"] = _percentile(overhead_ms, 50)
    return layer, table, len(roots)


def _link_wire_sessions(wire_roots, nested):
    """Links each traced wire session to the server's handling of it.

    A wire session has no bench.call. The benchmark's query resolver,
    which the server calls while it reads a session's OPEN, records a
    bench.resolve span carrying the session's root id; it lies inside the
    net.read span of the session's connection, next to the request.open
    span the OPEN led to. Returns {root id: (session id, connection id)}
    and the number of server opens no traced session links to.
    """
    links = {}
    for s in nested:
        if s["name"] != "bench.resolve":
            continue
        read = s["parent"]
        while read is not None and read["name"] != "net.read":
            read = read["parent"]
        if read is None:
            continue
        opens = [c for c in read["children"]
                 if c["name"] == "request.open" and c["ts"] >= s["ts"]]
        if opens:
            links[s["id"]] = (min(opens, key=lambda c: c["ts"])["id"],
                              read["id"])
    wire_ids = {r["id"]: links[r["id"]] for r in wire_roots
                if r["id"] in links}
    opens = sum(1 for s in nested if s["name"] == "request.open"
                and s["parent"] is not None
                and s["parent"]["name"] == "net.read")
    return wire_ids, opens - len(wire_ids)


def _percentile(sorted_values, p):
    """Linear interpolation between order statistics (raw samples)."""
    if not sorted_values:
        return 0.0
    rank = p / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def print_layer_table(workload, table, roots):
    log(f"layer table: {workload} ({roots} traced requests; self time is "
        f"the span minus its child spans on the same thread)")
    log(f"  {'span':<24}{'count':>9}{'self ms':>12}{'self ms/req':>13}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_us"]):
        log(f"  {name:<24}{row['count']:>9}{row['self_us'] / 1000:>12.2f}"
            f"{row['self_us'] / 1000 / max(1, roots):>13.4f}")


# ---------------------------------------------------------------------------
# One run.

def run_workload(binary, bench, config, workload, seed, seconds, trace,
                 toy=False):
    params = workload_params(config, workload, toy)
    work_dir = os.path.join(build_dir(), f"run-{workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--work-dir", work_dir]
    for key, value in params.items():
        args += ["--param", f"{key}={value}"]
    reported = {}
    try:
        raw, peak_rss_mb = run_binary(binary, args)
        attempted = int(raw["attempted"])
        failed = int(raw["failed"])
        if trace:
            trace_layer, table, roots = analyse_trace(
                load_json(os.path.join(work_dir, "trace.json"))["traceEvents"])
            print_layer_table(workload, table, roots)
            values = dict(raw["layer"])
            values.update(trace_layer)
            values["bench.failed_share"] = failed / max(1, attempted)
            wanted = bench["per_layer"]
            # A layer this workload does not exercise reads 0 (no pushes
            # on a workload without the network front end, ...).
            idle = [m["name"] for m in wanted if m["name"] not in values]
            for name in idle:
                values[name] = 0.0
            if idle:
                log(f"layers not exercised by {workload} (reported as 0): "
                    f"{', '.join(idle)}")
        else:
            values = dict(raw["metrics"])
            values["peak_rss_mb"] = peak_rss_mb
            wanted = bench["end_to_end"]
            names = {m["name"] for m in wanted}
            reported = {n: v for n, v in values.items() if n not in names}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {}
    missing = []
    for metric in wanted:
        name = metric["name"]
        if name not in values or values[name] is None:
            missing.append(name)
            continue
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
    bad = [] if trace else [n for n, m in metrics.items()
                            if not (m["value"] > 0 and math.isfinite(m["value"]))]
    correct = failed == 0 and not missing and not bad and attempted > 0
    if raw.get("failures"):
        log(f"failed checks: {raw['failures']}")
    if missing:
        log(f"metrics missing from the run: {missing}")
    if bad:
        log(f"end-to-end metrics not positive and finite: {bad}")
    counts = raw.get("counts", {})
    log(f"{workload} seed={seed} trace={int(trace)} attempted={attempted} "
        f"failed={failed} samples={counts}")
    for name, m in metrics.items():
        log(f"  {name:<36}{m['value']:>16.6g} {m['unit']}")
    for name, value in reported.items():
        if value is None:
            log(f"  {name:<36}{'-':>16} (insufficient samples: fewer than "
                f"10 beyond it)")
            continue
        unit = ("1/s" if name.endswith("_rps")
                else "s" if name.endswith("_s") else "ms")
        log(f"  {name:<36}{value:>16.6g} {unit} (reported, not bounded)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Self-check.

def _synthetic_trace_check():
    """The attribution arithmetic on a hand-built trace."""
    ev = lambda name, tid, ts, dur, id_=0, cat="service", **args: {
        "ph": "X", "name": name, "cat": cat, "tid": tid, "ts": ts,
        "dur": dur, "args": dict(args, **({"id": id_} if id_ else {}))}
    events = [
        ev("bench.call", 1, 0, 100, 7, cat="bench"),
        ev("request.open", 1, 10, 20, 3),
        ev("cache.probe", 1, 12, 5, 3),
        ev("pool.task", 2, 40, 50, queue_us=10),
        ev("request", 2, 40, 45, 3),
        ev("dp.level", 2, 45, 30, 3),
        ev("dp.barrier_wait", 2, 50, 4, 3),
        ev("bench.request", 9, 0, 100, 7, cat="bench", has_call=1),
    ]
    layer, table, roots = analyse_trace(events)
    assert roots == 1
    assert table["request.open"]["self_us"] == 15
    assert table["request"]["self_us"] == 15
    assert table["pool.task"]["self_us"] == 5
    # Covered: [10, 30) open, [30, 40) queue, [40, 90) task = 80 of 100.
    assert abs(layer["bench.unattributed_share"] - 0.2) < 1e-9, layer
    assert abs(layer["core.barrier_wait_ms"] - 0.004) < 1e-12

    # Two wire sessions whose OPENs the server read in the other order
    # than they were sent, and the open of a failed session.
    events = [
        ev("net.read", 1, 95, 2, 103, cat="net"),
        ev("request.open", 1, 95, 1, 13),
        ev("net.read", 1, 105, 4, 102, cat="net"),
        ev("bench.resolve", 1, 106, 0, 8, cat="bench"),
        ev("request.open", 1, 106, 2, 12),
        ev("net.read", 1, 110, 10, 101, cat="net"),
        ev("bench.resolve", 1, 111, 0, 7, cat="bench"),
        ev("request.open", 1, 112, 5, 11),
        ev("net.push", 2, 150, 3, 101, cat="net"),
        ev("net.push", 2, 300, 3, 102, cat="net"),
        ev("session.first_frontier", 3, 112, 40, 11),
        ev("session.first_frontier", 3, 106, 190, 12),
        ev("bench.request", 9, 100, 100, 7, cat="bench", has_call=0,
           first_us=60),
        ev("bench.request", 9, 103, 300, 8, cat="bench", has_call=0,
           first_us=210),
    ]
    layer, _, roots = analyse_trace(events)
    assert roots == 2
    # Linked 7 -> connection 101 (13 us covered of 100) and 8 -> 102 (7 us
    # of 300); matching by arrival order would swap them (17 us covered).
    assert abs(layer["bench.unattributed_share"] - (1 - 20 / 400)) < 1e-9, layer
    assert abs(layer["net.first_frontier_overhead_ms_p50"] - 0.02) < 1e-9
    return True


def self_check():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(BENCH_DIR, "workloads.json"))
    ok = True
    try:
        _synthetic_trace_check()
        log("self-check: trace attribution arithmetic ok")
    except AssertionError as e:
        log(f"self-check: trace attribution arithmetic FAILED {e}")
        ok = False
    binary = build()
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(config["workloads"]):
        log("self-check: BENCHMARK.json and workloads.json list different "
            "workloads")
        ok = False
    for name in names:
        specs = []
        for seed in (1, 2, 1):
            params = workload_params(config, name, toy=True)
            args = ["--workload", name, "--seed", str(seed), "--seconds", "1",
                    "--trace", "0", "--work-dir",
                    os.path.join(build_dir(), "self-check"), "--print-specs"]
            for key, value in params.items():
                args += ["--param", f"{key}={value}"]
            out = subprocess.run([binary] + args, check=True,
                                 capture_output=True, text=True).stdout
            specs.append(json.loads(out.strip().splitlines()[-1])["specs"])
        if specs[0] == specs[1] or specs[0] != specs[2] or not specs[0]:
            log(f"self-check: {name}: seeds do not determine the specs")
            ok = False
        for trace in (False, True):
            result = run_workload(binary, bench, config, name, 1, 2, trace,
                                  toy=True)
            wanted = {m["name"] for m in
                      bench["per_layer" if trace else "end_to_end"]}
            if not result["correct"] or set(result["metrics"]) != wanted:
                log(f"self-check: {name} trace={int(trace)} FAILED")
                ok = False
    log("self-check: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if not args.workload:
        parser.error("--workload is required")
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(BENCH_DIR, "workloads.json"))
    if args.workload not in config["workloads"]:
        parser.error(f"unknown workload {args.workload}")
    binary = build()
    result = run_workload(binary, bench, config, args.workload, args.seed,
                          args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
