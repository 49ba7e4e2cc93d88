#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, in both modes.

Run from the repository root:  python3 perfbench/selftest.py

For each workload and each of --trace 0 and --trace 1 it checks that run.py
exits 0, that the result line names every metric of BENCHMARK.json with its
unit, and that the workload's correctness checks ran and passed. It checks
that the program itself, before run.py fills in zeros, prints every
per-layer metric on at least one workload. It also
checks that run.py fails, printing no result, in a copy of the benchmark
without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

# Correctness checks each run must print, by workload and trace mode.
CHECKS = {
    ("campaign", 0): 4,
    ("campaign", 1): 7,
    ("large_dag", 0): 3,
    ("large_dag", 1): 3,
}


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    measured = set()  # per-layer metrics the program printed on some workload
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny"], ROOT)
            lines = proc.stdout.strip().split("\n")
            if proc.returncode != 0:
                failures.append("%s: exit %d\n%s" % (label, proc.returncode, proc.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            metrics = spec["per_layer" if trace else "end_to_end"]
            for m in metrics:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    failures.append("%s: metric %s missing or not in %s" % (label, m["name"], m["unit"]))
            checks = [l for l in lines if l.startswith("check ")]
            if len(checks) != CHECKS[(workload, trace)] or not result["correct"]:
                failures.append("%s: %d checks ran (expected %d), correct=%s"
                                % (label, len(checks), CHECKS[(workload, trace)], result["correct"]))
            if result["attempted"] < 1 or result["failed"] != 0:
                failures.append("%s: attempted %d, failed %d" % (label, result["attempted"], result["failed"]))
            print("ok: %s (%d metrics, %d checks)" % (label, len(metrics), len(checks)))

        # run.py fills in 0 for the per-layer metrics a workload does not
        # measure, so read what the program itself printed.
        raw = subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", "1", "--tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        if raw.returncode != 0:
            failures.append("%s: the program exited with %d" % (workload, raw.returncode))
            continue
        measured |= set(json.loads(raw.stdout.strip().split("\n")[-1])["metrics"])

    unmeasured = sorted({m["name"] for m in spec["per_layer"]} - measured)
    if unmeasured:
        failures.append("no workload measures " + ", ".join(unmeasured))
    else:
        print("ok: every per-layer metric is measured by some workload")

    # Without the program's sources the benchmark must fail, printing no result.
    bare = os.path.join(BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "campaign", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("a copy without src/ did not fail")
    else:
        print("ok: a copy without src/ fails with exit %d" % proc.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL: " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
