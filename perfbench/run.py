#!/usr/bin/env python3
"""End-to-end benchmark of mtsched: builds the program, runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

The benchmark program and the library sources it links are built with CMake into
$CARGO_TARGET_DIR (default .bench_build) on every call; an up-to-date build
costs about a second. The program prints its checks and notes, and as the
last line one JSON object: with --trace 0 every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer one. The per-layer metrics
a workload does not measure (see measured_layers) are reported as 0.
Exits non-zero when the build fails, a correctness check fails, or the
program's output does not match BENCHMARK.json and measured_layers.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign", "large_dag")

# Per-layer metrics only large_dag measures: self times per DAG size and
# the growth exponents between the sizes.
SIZED_LAYERS = ("sched.allocate_s", "sched.map_s", "sim.simulate_s",
                "tgrid.execute_s", "dag.parse_s")
LARGE_DAG_ONLY = {"%s.%s" % (layer, size)
                  for layer in SIZED_LAYERS for size in ("4k", "8k", "16k")}
LARGE_DAG_ONLY |= {"sched.allocate.exp", "sim.simulate.exp", "tgrid.execute.exp"}
# Per-layer metrics both workloads measure.
SHARED = {"exp.run_hit_us", "exp.run_miss_us", "trace.overhead_frac"}


def measured_layers(workload, per_layer):
    """The per-layer metrics `workload` measures; it must print each of them.

    campaign measures every per-layer metric of BENCHMARK.json but the
    per-size ones, large_dag only those and SHARED.
    """
    if workload == "large_dag":
        return LARGE_DAG_ONLY | SHARED
    return set(per_layer) - LARGE_DAG_ONLY


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("the mtsched sources (src/) are not next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (see selftest.py)")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    expected = expected_metrics(args.trace)

    spans = os.path.join(build_dir, "spans", "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", spans]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("the benchmark program did not finish within 170 s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        print(lines[-1])
        fail("the benchmark program exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    required = measured_layers(args.workload, expected) if args.trace else set(expected)
    missing = sorted(required - set(metrics))
    if missing:
        fail("%s did not report %s, which it measures" % (args.workload, ", ".join(missing)))
    unlisted = sorted(set(metrics) - required)
    if unlisted:
        fail("%s reported %s, which BENCHMARK.json or measured_layers does not list"
             % (args.workload, ", ".join(unlisted)))
    for name, unit in expected.items():
        if name not in metrics:
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], unit))
    result["metrics"] = {name: metrics[name] for name in expected}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
