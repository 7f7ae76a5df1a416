#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark and prints its metrics.

    python3 perfbench/run.py --workload device_stream --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. It builds `perfbench/` (a Cargo package of
its own, with path dependencies on the workspace crates) from source into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload in a child
process and reads the child's peak resident memory from outside.

Standard output is a host and knob fingerprint, one line per metric with
its unit and sample count, and, as the last line, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.
The exit code is 1 when the build fails or any correctness check fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD_TIMEOUT_S = 170


def quartiles(values):
    """First and third quartile, as `statistics.quantiles(values, n=4)`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def tail_percentile(n, cap=90):
    """The highest whole percentile, at most `cap`, whose nearest-rank
    sample has at least ten samples beyond it; None below 11 samples."""
    for p in range(cap, 0, -1):
        if n - nearest_rank(n, p) >= 10:
            return p
    return None


def nearest_rank(n, p):
    """1-based rank of the p-th percentile of n samples (nearest rank)."""
    return max(1, -(-p * n // 100))


def percentile(values, p):
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


def end_to_end(raw, peak_rss_kib):
    """The end-to-end metrics of one run: name -> (value, unit, samples)."""
    seg = raw["segment_ms"]
    tail = tail_percentile(len(seg))
    if tail is None:
        raise ValueError(f"{len(seg)} segment samples are too few for a tail")
    attempted = raw["attempted"]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s", len(raw["setup_s"])),
        "items_per_s": (raw["items"] / raw["steady_s"], "items/s", len(seg)),
        "segment_ms_p50": (statistics.median(seg), "ms", len(seg)),
        "segment_ms_p90": (percentile(seg, tail), "ms", len(seg)),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MiB", 1),
        "state_kb": (
            statistics.fmean(raw["state_bytes"]) / 1024.0,
            "KiB",
            len(raw["state_bytes"]),
        ),
        "accuracy": (statistics.fmean(raw["accuracy"]), "fraction", len(raw["accuracy"])),
        "completed_frac": ((attempted - raw["failed"]) / attempted, "fraction", attempted),
    }


def per_layer(raw):
    """The per-layer metrics of one traced run: name -> (value, unit, samples)."""
    segments = raw["traced_segments"]
    return {name: (m["value"], m["unit"], segments) for name, m in raw["layers"].items()}


def declared(spec, trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    return {(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]}


def name_mismatch(metrics, spec, trace):
    """Printed metrics missing from BENCHMARK.json, and declared ones not
    printed, each as sorted (name, unit) pairs."""
    printed = {(name, unit) for name, (_, unit, _) in metrics.items()}
    want = declared(spec, trace)
    return sorted(printed - want), sorted(want - printed)


def build(target_dir):
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    return os.path.join(target_dir, "release", "deco-perfbench")


def run_child(cmd):
    """Runs `cmd`, returns (exit code, stdout, peak RSS in KiB of the child)."""
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        out = child.stdout.read()
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out.decode(), usage.ru_maxrss


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    scratch = os.path.join(target_dir, f"perfbench-scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        code, out, rss_kib = run_child([
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--scratch", scratch,
        ])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print(f"perfbench: workload exited with code {code}", file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])

    metrics = per_layer(raw) if args.trace else end_to_end(raw, rss_kib)
    extra, missing = name_mismatch(metrics, spec, args.trace)
    checks = dict(raw["checks"])
    checks["metrics_match_benchmark_json"] = not extra and not missing
    checks["no_failed_segments"] = raw["failed"] == 0
    checks["finite_metrics"] = all(math.isfinite(v) for v, _, _ in metrics.values())
    correct = bool(raw["checks"]) and all(checks.values())

    print("fingerprint " + json.dumps(raw["fingerprint"], sort_keys=True))
    if not args.trace:
        tail = tail_percentile(len(raw["segment_ms"]))
        print(f"segment_ms_p90 is the p{tail} of {len(raw['segment_ms'])} samples")
        print(
            "interquartile spread / median within the run: "
            f"setup_s {relative_spread(raw['setup_s']):.3f}, "
            f"segment_ms {relative_spread(raw['segment_ms']):.3f}"
        )
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit:<9} n={n}")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if extra or missing:
        print(f"metrics not in BENCHMARK.json: {extra}; not printed: {missing}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
