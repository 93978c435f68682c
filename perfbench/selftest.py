#!/usr/bin/env python3
"""Short self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py with --trace 0 and --trace 1 (one-second budget, so one
pass each) and asserts that the run exits 0, passes all its output checks,
completes every command kOk and emits exactly the metric names
BENCHMARK.json lists for that mode, each with its unit. It also asserts that
two runs with the same seed give identical simulated metrics, and that the
command exits non-zero without a result line in a directory holding only
BENCHMARK.json and perfbench/. Exits 1 on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_METRICS = ("sim_cmds_per_s", "sim_p50_ms", "sim_p99_ms")


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=600)


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def result_of(proc, what):
    check(proc.returncode == 0,
          "%s exited %d:\n%s" % (what, proc.returncode, proc.stdout))
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "%s: result keys %s" % (what, sorted(result)))
    check(result["correct"] is True, what + ": an output check failed")
    check(result["attempted"] >= 1, what + ": nothing attempted")
    check(result["failed"] == 0, what + ": %d failed" % result["failed"])
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = "%s --trace %d" % (workload, trace)
            metrics = result_of(run(workload, 1, trace), what)["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            check(sorted(metrics) == sorted(expected),
                  "%s: metrics %s, expected %s"
                  % (what, sorted(metrics), sorted(expected)))
            for name, unit in expected.items():
                check(metrics[name]["unit"] == unit,
                      "%s: %s has unit %s" % (what, name, metrics[name]["unit"]))
                check(isinstance(metrics[name]["value"], (int, float)),
                      "%s: %s is not a number" % (what, name))
            print("ok  %s" % what)

    first = result_of(run("kv-order", 7, 0), "kv-order seed 7")["metrics"]
    again = result_of(run("kv-order", 7, 0), "kv-order seed 7 again")["metrics"]
    for name in SIM_METRICS:
        check(first[name] == again[name],
              "same seed, different %s: %r vs %r"
              % (name, first[name]["value"], again[name]["value"]))
    print("ok  same seed, same simulated metrics")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("kv-order", 1, 0, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "a bare directory exited 0")
    check('"metrics"' not in proc.stdout, "a bare directory printed a result")
    print("ok  a directory without the sources fails without a result")


if __name__ == "__main__":
    main()
