#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload pipeline_512 --seed 1 --trace 0

Run from the root of a checkout.  The first run configures and builds the
library sources and the perfbench binary into the build directory
($CARGO_TARGET_DIR, default .bench_build); later runs only re-check the build.

--trace 0 runs the workload untraced and prints its end-to-end metrics.
--trace 1 runs it twice for half the time each, untraced and then traced,
and prints the per-layer metrics of the traced run plus
bench.trace_overhead_pct, the traced run's headline metric against the
untraced one.  A per-layer metric of a layer the workload bypasses reads 0.
The last stdout line is one JSON object: correct, attempted, failed, metrics.

--repeat K runs the workload K times (seeds seed .. seed+K-1), untraced and,
with --trace 1, traced as well, and prints each metric's median and IQR; use
it to check the bounds in BENCHMARK.json.

Exits non-zero, without a result line, when the build fails, and with
correct=false when an output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Headline metric per workload, and whether higher is better; the traced
# run's headline against the untraced one is the tracing overhead.
HEADLINE = {
    "pipeline_512": ("throughput_fps", True),
    "room_256": ("frame_latency_p50_ms", False),
    "fleet_4x256": ("throughput_fps", True),
}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then (re)build the perfbench target; binary path."""
    out = build_dir()
    cmake_dir = os.path.join(out, "perfbench-cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", cmake_dir, "-j4", "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(cmake_dir, "perfbench")


def run_child(binary, workload, seed, seconds, traced, deadline):
    """Run one perfbench process; (result dict, human-readable lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--trace-out",
                os.path.join(build_dir(), f"trace_{workload}_seed{seed}.jsonl")]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {timeout:.0f} s")
        return None, []
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"perfbench: {workload} exited {proc.returncode} without a result")
        return None, lines
    return result, lines[:-1]


def pick(result, specs, fill_missing):
    """The metrics named in `specs`, with their units checked."""
    metrics = {}
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            if not fill_missing:
                raise KeyError(f"metric {spec['name']} missing")
            got = {"value": 0.0, "unit": spec["unit"]}
        if got["unit"] != spec["unit"]:
            raise ValueError(f"metric {spec['name']} unit {got['unit']}, "
                             f"BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return metrics


def overhead_pct(workload, untraced, traced):
    name, higher_better = HEADLINE[workload]
    base = untraced["metrics"][name]["value"]
    with_trace = traced["metrics"][name]["value"]
    if base == 0:
        return 0.0
    change = (base - with_trace) if higher_better else (with_trace - base)
    return 100.0 * change / base


def measure(binary, spec, workload, seed, seconds, traced, deadline, out):
    """One benchmark result (the object printed as the last line), or None.
    The runs' human-readable lines go to `out`."""
    untraced_s = seconds / 2 if traced else seconds
    base, lines = run_child(binary, workload, seed, untraced_s, False, deadline)
    out.extend(lines)
    if base is None:
        return None
    if not traced:
        return {"correct": base["correct"], "attempted": base["attempted"],
                "failed": base["failed"],
                "metrics": pick(base, spec["end_to_end"], False)}
    tr, lines = run_child(binary, workload, seed, seconds / 2, True, deadline)
    out.append("--- traced run")
    out.extend(lines)
    if tr is None:
        return None
    tr["metrics"]["bench.trace_overhead_pct"] = {
        "value": overhead_pct(workload, base, tr), "unit": "%"}
    return {"correct": base["correct"] and tr["correct"],
            "attempted": base["attempted"] + tr["attempted"],
            "failed": base["failed"] + tr["failed"],
            "metrics": pick(tr, spec["per_layer"], True)}


def iqr_line(name, values, unit):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    share = (q3 - q1) / med if med else float("nan")
    return (f"{name:36s} median {med:12.4f} {unit:9s} IQR {q3 - q1:10.4f} "
            f"({100 * share:6.2f}% of median)")


def repeat(binary, spec, workload, seed, seconds, k, with_trace):
    """Steadiness mode: K untraced (+ K traced) runs, medians and IQRs."""
    e2e = {m["name"]: [] for m in spec["end_to_end"]}
    layer = {m["name"]: [] for m in spec["per_layer"]}
    ok = True
    for i in range(k):
        for traced, store in ((False, e2e), (True, layer))[:1 + with_trace]:
            deadline = time.monotonic() + RUN_TIMEOUT_S
            lines = []
            res = measure(binary, spec, workload, seed + i, seconds, traced,
                          deadline, lines)
            if res is None or not res["correct"]:
                ok = False
                log(f"seed {seed + i} traced={int(traced)}: run failed")
                for line in lines:
                    if line.startswith("!"):
                        log(line)
                continue
            for name, m in res["metrics"].items():
                store[name].append(m["value"])
            if not traced:
                log(f"seed {seed + i}: " + ", ".join(
                    f"{name} {m['value']:.4g}"
                    for name, m in res["metrics"].items()))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {workload}: {k} seeds from {seed}, {seconds} s per run")
    for store in (e2e, layer):
        for name, values in store.items():
            if values:
                print(iqr_line(name, values, units[name]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(HEADLINE))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness mode: K seeds, medians and IQRs")
    args = ap.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.repeat > 0:
        return repeat(binary, spec, args.workload, args.seed, seconds,
                      args.repeat, bool(args.trace))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    lines = []
    result = measure(binary, spec, args.workload, args.seed, seconds,
                     bool(args.trace), deadline, lines)
    for line in lines:
        print(line)
    if result is None:
        return 1
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
