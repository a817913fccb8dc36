#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lw_scale --seed 1 --seconds 10 --trace 0

It builds perfbench/ (which compiles ../src) into .bench_build/, then runs
each benchmark operation in its own p2pbench process, so every timed run
starts cold. Each process gets a wall-clock timeout and a resident-set
ceiling; a breach kills it and counts as a failed operation. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
end_to_end); with --trace 1 the per-layer ones, from a traced composition
of the same work whose output bytes must equal the untraced run's.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests, then small versions of every
workload in both modes, and checks every metric name and unit against
BENCHMARK.json. perfbench/BENCHMARK.md documents the workloads and metrics.
"""

import argparse
import filecmp
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "p2pbench")
TESTS = os.path.join(BUILD_DIR, "p2pbench_tests")
DIGESTS = os.path.join(ROOT, ".bench_build", "digests.json")

# Whole-run budget: every operation's timeout is clipped to what is left.
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0
POLL_S = 0.05
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Per workload: set-up repetitions (each its own cold process), per-process
# limits, and the timed operation's expected cost (to avoid starting one
# that cannot finish before the deadline).
WORKLOADS = {
    "lw_scale": dict(setup_reps=5, timeout_s=120.0, rss_mib=1536, op_s=15.0),
    "sweep_bands": dict(setup_reps=5, timeout_s=60.0, rss_mib=1024, op_s=5.0),
    "capture_replay": dict(setup_reps=3, timeout_s=60.0, rss_mib=1024, op_s=3.0),
}

# lw_scale's traced run and its untraced reference run at 2 shards, so
# barrier work (sim.cross_shard_messages, parked workers in sim.cpu_util)
# shows per layer. Its timed runs stay at p2pbench's default of 1 shard,
# where wall time is steady enough to gate; per-layer metrics are not gated.
LW_TRACED_SHARDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_h_per_s": "sim-h/s",
    "records_per_s": "records/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Run:
    """Operation accounting and the run-wide deadline."""

    def __init__(self, deadline_s):
        self.start = time.monotonic()
        self.deadline_s = deadline_s
        self.attempted = 0
        self.failed = 0

    def left(self):
        return self.deadline_s - (time.monotonic() - self.start)

    def fail(self, count, reason):
        self.failed += count
        log("FAILED: " + reason)

    def op(self, argv, limits, what):
        """Run one p2pbench process; returns its JSON line or None."""
        timeout = min(limits["timeout_s"], self.left())
        result, reason = run_process(argv, timeout, limits["rss_mib"])
        ops = 1
        if result is not None:
            ops = max(1, int(result.get("operations", 1)))
        self.attempted += ops
        if result is None:
            self.fail(ops, f"{what}: {reason}")
            return None
        bad = int(result.get("operations_failed", 0))
        if not result.get("ok", False):
            self.fail(max(1, bad), f"{what}: {result.get('error', 'not ok')}")
            return None
        return result


def run_process(argv, timeout_s, rss_ceiling_mib):
    """Run argv with a wall-clock timeout and a resident-set ceiling.

    Returns (parsed last stdout line, None) or (None, reason). The process
    is always reaped before returning.
    """
    if timeout_s <= 0:
        return None, "no time left in the run"
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=WORK_DIR, stdout=subprocess.PIPE, text=True)
    reason = None
    try:
        while proc.poll() is None:
            if time.monotonic() - start > timeout_s:
                reason = f"timed out after {timeout_s:.0f} s"
                break
            rss = rss_mib(proc.pid)
            if rss > rss_ceiling_mib:
                reason = f"resident set {rss:.0f} MiB over the {rss_ceiling_mib} MiB ceiling"
                break
            time.sleep(POLL_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        out, _ = proc.communicate()
    if reason is not None:
        return None, reason
    if proc.returncode != 0:
        return None, f"exit status {proc.returncode}"
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, "no result line"


def rss_mib(pid):
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def build(targets):
    """Configure (once) and build perfbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: run from the root of a source checkout (no src/ here)")
        sys.exit(2)
    os.makedirs(WORK_DIR, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        checked(cmd, deadline)
    jobs = str(min(4, os.cpu_count() or 1))
    checked(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets, deadline)


def checked(cmd, deadline):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: build timed out")
        sys.exit(1)
    if done.returncode != 0:
        log(f"perfbench: build step failed: {' '.join(cmd)}")
        sys.exit(1)


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def describe_build(run):
    info = run.op([BINARY, "info"], dict(timeout_s=30.0, rss_mib=256), "build info")
    run.attempted -= 1  # not a benchmark operation
    if info is None:
        return
    print(f"host: {cores()} cores; build: {info['build_type']}; "
          f"compiler: {info['compiler']}")
    if not info.get("optimized", False) or info.get("asserts", True):
        banner = ("WARNING: p2pbench is an UNOPTIMIZED or assert-enabled build; "
                  "its timings do not describe the optimized program")
        print(banner)
        log(banner)


def binary_key(small):
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16] + ("-small" if small else "")


def check_digest(run, workload, seed, small, digest):
    """The same binary, workload and seed must always produce the same bytes."""
    try:
        with open(DIGESTS) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    key = f"{binary_key(small)}/{workload}/{seed}"
    if key in known and known[key] != digest:
        run.fail(1, f"{workload} seed {seed}: output digest {digest} differs from "
                    f"an earlier run's {known[key]}")
        return
    known[key] = digest
    with open(DIGESTS, "w") as f:
        json.dump(known, f, indent=0, sort_keys=True)


def same_bytes(run, a, b, what):
    if not (os.path.isfile(a) and os.path.isfile(b) and filecmp.cmp(a, b, shallow=False)):
        run.fail(1, f"{what}: {os.path.basename(a)} and {os.path.basename(b)} differ")
        return False
    return True


def capture_dir(args):
    return os.path.join(WORK_DIR, f"capture-{args.seed}.p2ps")


def measure(args, run):
    """The untraced run: set-up repetitions, then timed operations."""
    w = args.workload
    limits = WORKLOADS[w]
    base = [BINARY]
    common = ["--workload", w, "--seed", str(args.seed)] + (["--small"] if args.small else [])
    if w == "capture_replay":
        common += ["--dir", capture_dir(args)]

    setup = []
    for _ in range(limits["setup_reps"]):
        r = run.op(base + ["setup"] + common, limits, f"{w} set-up")
        if r is not None:
            setup.append(r["setup_s"])

    ops = []
    first_out = None
    t0 = time.monotonic()
    while True:
        out = os.path.join(WORK_DIR, f"out-{w}-{len(ops)}.txt")
        r = run.op(base + ["run"] + common + ["--out", out], limits, f"{w} operation")
        if r is not None:
            ops.append(r)
            if first_out is None:
                first_out = out
                check_digest(run, w, args.seed, args.small, r["digest"])
            else:
                same_bytes(run, first_out, out, f"{w} repeated operation")
        elapsed = time.monotonic() - t0
        if elapsed >= args.seconds or r is None:
            break
        if run.left() < limits["op_s"] * 2 + 10:
            log(f"perfbench: stopping {w} early to stay inside the run deadline")
            break

    if w == "capture_replay" and first_out is not None:
        serial = os.path.join(WORK_DIR, f"out-{w}-jobs1.txt")
        r = run.op(base + ["run"] + common + ["--jobs", "1", "--out", serial], limits,
                   f"{w} jobs=1 replay")
        if r is not None:
            same_bytes(run, first_out, serial, f"{w} replay at jobs 1 vs 2")

    def med(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup_s": med(setup),
        "sim_h_per_s": med([r["sim_hours"] / r["wall_s"] for r in ops]),
        "records_per_s": med([r["records"] / r["wall_s"] for r in ops]),
        "cpu_s": med([r["cpu_s"] for r in ops]),
        "peak_rss_mib": med([r["peak_rss_mib"] for r in ops]),
    }
    print(f"{w} seed {args.seed}: {len(ops)} timed operation(s), "
          f"{len(setup)} set-up(s); medians:")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:>14.6g} {END_TO_END_UNITS[name]}")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def traced(args, run):
    """The traced run: the traced composition, then the real entry points on
    the same inputs; their output bytes must agree."""
    w = args.workload
    limits = WORKLOADS[w]
    common = ["--workload", w, "--seed", str(args.seed)] + (["--small"] if args.small else [])
    if w == "capture_replay":
        common += ["--dir", capture_dir(args)]
    if w == "lw_scale":
        common += ["--shards", str(LW_TRACED_SHARDS)]
    files = {tag: os.path.join(WORK_DIR, f"{tag}-{w}.txt")
             for tag in ("traced", "untraced", "traced-docs", "untraced-docs")}
    spans = os.path.join(WORK_DIR, f"spans-{w}.json")
    a = run.op([BINARY, "trace"] + common + ["--out", files["traced"], "--documents",
                                             files["traced-docs"], "--spans", spans],
               limits, f"{w} traced operation")
    b = run.op([BINARY, "run"] + common + ["--out", files["untraced"], "--documents",
                                           files["untraced-docs"]],
               limits, f"{w} untraced reference")
    if a is None or b is None:
        return {}
    same_bytes(run, files["traced"], files["untraced"], f"{w} traced vs untraced output")
    if w == "sweep_bands":
        same_bytes(run, files["traced-docs"], files["untraced-docs"],
                   f"{w} traced vs untraced study documents")
    layers = dict(a["layers"])
    overhead = a["wall_s"] / b["wall_s"] - 1.0 if b["wall_s"] > 0 else 0.0
    layers["obs.trace_overhead"] = {"value": overhead, "unit": "ratio"}
    print(f"{w} seed {args.seed}: traced {a['wall_s']:.4f} s vs untraced "
          f"{b['wall_s']:.4f} s; obs.trace_overhead {overhead:+.4f}; "
          f"spans in {os.path.relpath(spans, ROOT)}")
    return layers


def benchmark(args):
    build(["p2pbench"])
    run = Run(RUN_DEADLINE_S)
    describe_build(run)
    metrics = traced(args, run) if args.trace else measure(args, run)
    shutil.rmtree(capture_dir(args), ignore_errors=True)  # ~300 MB per seed
    attempted = max(1, run.attempted)
    print(f"  {'ops_failed':<16} {run.failed / attempted:>14.6g} share "
          f"({run.failed} of {attempted} operations)")
    result = {"correct": run.failed == 0, "attempted": attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if run.failed == 0 else 1


def self_test():
    """The benchmark's own tests, then every workload at test size."""
    build(["p2pbench", "p2pbench_tests"])
    test = subprocess.run([TESTS], cwd=WORK_DIR)
    ok = test.returncode == 0
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec_workloads(spec):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed",
                   "3", "--seconds", "1", "--trace", str(mode), "--small"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            problems = metric_problems(done, want)
            ok = ok and not problems
            log(f"self-test {w} --trace {mode}: " + ("ok" if not problems else
                                                     "; ".join(problems)))
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def spec_workloads(spec):
    return [w["name"] for w in spec["workloads"]]


def metric_problems(done, want):
    problems = []
    if done.returncode != 0:
        problems.append(f"exit status {done.returncode}")
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return problems + ["no result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("run not correct")
    got = result.get("metrics", {})
    for name, metric in got.items():
        if not METRIC_NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        if not metric.get("unit"):
            problems.append(f"{name} has no unit")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name} value is not a number")
        if name in want and metric.get("unit") != want[name]:
            problems.append(f"{name} unit {metric.get('unit')!r} != {want[name]!r}")
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        problems.append(f"missing {missing}")
    if extra:
        problems.append(f"not in BENCHMARK.json {extra}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="test-size workloads (seconds long)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
