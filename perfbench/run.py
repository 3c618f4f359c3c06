#!/usr/bin/env python3
"""Repo benchmark: build the binary, run one workload, report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfbench/ (the remapd
libraries from src/ plus perfbench.cpp) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
binary for one workload, reduces its raw samples to the metrics named in
BENCHMARK.json and checks the program's outputs.

--trace 0 reports every end-to-end metric (medians over the run); --trace 1
is the separate traced run that reports every per-layer metric, writes a
Chrome trace next to the build and prints a per-layer self-time table.

The last line of stdout is one JSON object with exactly the keys correct,
attempted, failed and metrics. Exit status: 0 when every check passed, 1
when a check failed (the result line is still printed), 2 when the
benchmark could not be built or run (no result line).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-workload settings the binary does not choose itself: the thread count
# (passed as REMAPD_THREADS) and the floor on the run's median
# trainer.acc_last3, the mean test accuracy of a trial's last three epochs
# (chance is 0.1). A single seed may legitimately diverge under faults, so
# the floor applies to the median over the run's trials; it sits well below
# every run median seen while the benchmark was built (0.84 and 0.48). The
# fleet's one-batch jobs are not trained to a useful accuracy, so it has
# none. Every workload times one thread: on a shared host the
# parallel capacity swings between 1x and 4x from run to run, which makes
# multi-thread wall time unreproducible. The binary measures the same
# workload at 2 threads once per run (parallel.epoch_speedup_x).
WORKLOADS = {
    "train-resnet12-fp32": {"threads": 1, "acc_floor": 0.6},
    "train-squeezenet-q4": {"threads": 1, "acc_floor": 0.3},
    "fleet-migrate": {"threads": 1, "acc_floor": None},
}

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 160


class BenchError(Exception):
    """The benchmark could not be built or run (no result is printed)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------- statistics

def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = median(values)
    return (q3 - q1) / m if m else math.inf


def tail_percentile(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it.

    Returns (p, value) or None when there are too few samples for any.
    """
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def self_times(events):
    """Per-layer self time (s) and span count from Chrome-trace events.

    A span's self time is its duration minus the part its child spans on
    the same thread cover. Only complete ('X') events carry time.
    """
    spans = [e for e in events if e.get("ph") == "X"]
    child = [0.0] * len(spans)
    by_tid = {}
    for i, e in enumerate(spans):
        by_tid.setdefault(e.get("tid"), []).append(i)
    for idx in by_tid.values():
        idx.sort(key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
        stack = []
        for i in idx:
            ts, end = spans[i]["ts"], spans[i]["ts"] + spans[i]["dur"]
            while stack:
                p = spans[stack[-1]]
                if ts >= p["ts"] and end <= p["ts"] + p["dur"] + 1e-3:
                    break
                stack.pop()
            if stack:
                child[stack[-1]] += spans[i]["dur"]
            stack.append(i)
    table = {}
    for i, e in enumerate(spans):
        layer = e.get("args", {}).get("layer", e.get("cat", "?"))
        row = table.setdefault(layer, [0.0, 0])
        row[0] += max(e["dur"] - child[i], 0.0) * 1e-6
        row[1] += 1
    return table


# ------------------------------------------------------------- the result

def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def reduce(spec, raw, workload, trace):
    """Metrics and check verdicts from the binary's raw output.

    Returns (metrics, checks): metrics maps every metric of the run's kind
    (end_to_end untraced, per_layer traced) to {"value", "unit"}; checks is
    a list of (name, ok, detail).
    """
    checks = [(c["name"], c["ok"], c["detail"]) for c in raw["checks"]]
    want = WORKLOADS[workload]
    threads = raw["manifest"]["threads"]
    checks.append(("threads", threads == want["threads"],
                   f"{threads} worker threads, workload wants "
                   f"{want['threads']}"))
    checks.append(("failed-ops", raw["failed"] == 0,
                   f"{raw['failed']} of {raw['attempted']} ops failed"))
    if want["acc_floor"] is not None:
        accs = raw["acc_last3"]
        mid = median(accs) if accs else None
        checks.append(("acc-floor",
                       bool(accs) and mid >= want["acc_floor"],
                       f"trainer.acc_last3 median {mid} (min "
                       f"{min(accs) if accs else None}) over {len(accs)} "
                       f"trials, floor {want['acc_floor']}"))
    metrics = {}
    if trace:
        for m in spec["per_layer"]:
            v = raw["per_layer"].get(m["name"])
            ok = isinstance(v, (int, float)) and math.isfinite(v)
            if not ok:
                checks.append(("per-layer-" + m["name"], False,
                               "missing or non-finite"))
                continue
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            vals = raw["samples"].get(m["name"]) or []
            ok = bool(vals) and all(
                isinstance(v, (int, float)) and math.isfinite(v) and v > 0
                for v in vals)
            if not ok:
                checks.append(("metric-" + m["name"], False,
                               "missing, zero or non-finite samples"))
                continue
            metrics[m["name"]] = {"value": median(vals), "unit": m["unit"]}
    return metrics, checks


def result_line(metrics, checks, raw):
    return json.dumps({
        "correct": all(ok for _, ok, _ in checks),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    })


def report(spec, raw, metrics, checks, trace, trace_path):
    """Human-readable report: manifest, metrics, checks, self times."""
    out = []
    man = raw["manifest"]
    out.append(f"== perfbench {raw['workload']} seed {raw['seed']} "
               f"({'traced' if trace else 'untraced'}) ==")
    out.append(f"nproc {man['nproc']}, hardware_concurrency "
               f"{man['hardware_concurrency']}, parallel capacity "
               f"{man['capacity_x']:.2f}x on {man['capacity_threads']} "
               f"threads")
    out.append(f"gemm kernel {man['gemm_kernel']}, int8 kernel "
               f"{man['int8_kernel']}, build {man['build_type']}, "
               f"{man['threads']} worker threads")
    env = " ".join(f"{k}={v}" for k, v in sorted(man["env"].items()))
    out.append(f"REMAPD_* in force: {env or '(none)'}")
    out.append("workload threads: " + ", ".join(
        f"{w}={c['threads']}" for w, c in WORKLOADS.items()))
    out.append(f"trials {raw['trials']}, ops attempted {raw['attempted']}, "
               f"failed {raw['failed']} "
               f"(failed_op_frac "
               f"{raw['failed'] / max(raw['attempted'], 1):.4g})")
    kind = "per_layer" if trace else "end_to_end"
    for m in spec[kind]:
        row = metrics.get(m["name"])
        if row is None:
            out.append(f"  {m['name']:<28} MISSING")
            continue
        line = f"  {m['name']:<28} {row['value']:>14.6g} {m['unit']:<8}"
        vals = raw["samples"].get(m["name"], []) if not trace else []
        if len(vals) > 1:
            line += f" n={len(vals)} iqr/med={quartile_spread(vals):.3f}"
            tail = tail_percentile(vals)
            if tail:
                line += f" p{tail[0]}={tail[1]:.6g}"
        out.append(line)
    for name, ok, detail in checks:
        out.append(f"  check {name:<24} {'ok' if ok else 'FAIL'}  {detail}")
    if trace_path:
        with open(trace_path) as f:
            table = self_times(json.load(f))
        total = sum(s for s, _ in table.values()) or 1.0
        out.append("self time by layer (trace: "
                   f"{os.path.relpath(trace_path, ROOT)})")
        for layer, (s, n) in sorted(table.items(), key=lambda kv: -kv[1][0]):
            out.append(f"  {layer:<10} {s:10.4f} s {100 * s / total:6.2f} %"
                       f"  {n} spans")
    return "\n".join(out)


# ------------------------------------------------------------ build & run

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    # The compiler's temporary files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)

    def step(cmd, timeout):
        log("+", " ".join(cmd))
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(cmd)}")
        if r.returncode != 0:
            raise BenchError(f"failed ({r.returncode}): {' '.join(cmd)}")

    t0 = time.monotonic()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
             + gen, BUILD_TIMEOUT_S)
    step(["cmake", "--build", bdir, "-j", "4"],
         BUILD_TIMEOUT_S - (time.monotonic() - t0))
    return os.path.join(bdir, "perfbench")


def run_binary(exe, args, threads, trace_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REMAPD_")}
    env["REMAPD_THREADS"] = str(threads)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench timed out after {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        raise BenchError(f"perfbench exited with {r.returncode}")
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError("perfbench printed no JSON document")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in WORKLOADS or args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"one of {', '.join(names)}")
        bdir = build_dir()
        exe = build(bdir)
        trace_path = None
        if args.trace:
            os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
            trace_path = os.path.join(
                bdir, "traces", f"{args.workload}-seed{args.seed}.json")
        raw = run_binary(exe, args, WORKLOADS[args.workload]["threads"],
                         trace_path)
        metrics, checks = reduce(spec, raw, args.workload, args.trace)
        print(report(spec, raw, metrics, checks, args.trace, trace_path))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    line = result_line(metrics, checks, raw)
    print(line, flush=True)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
