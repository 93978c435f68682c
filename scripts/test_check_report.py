#!/usr/bin/env python3
"""Self-test for scripts/check_report.py: a gate that cannot fail is a bug.

For every checked-in baseline under bench/baselines/ it checks that
  * the baseline passes against itself;
  * each declared min/max gate passes at its bound and fails once its metric
    is nudged just past it (checked without a baseline, so only the gate
    can fail);
  * each budget gate fails at 1.2x its budget worse than the baseline and
    passes at 0.8x (30% and 20% for the 25% kernel events/s budget);
  * a deterministic metric changed by one unit, or by one ulp, fails;
  * a dropped metric or a dropped gate fails;
and that a RunReport whose phase means do not sum to the e2e mean fails.

Usage: python3 scripts/test_check_report.py   (exit 0 when all pass)
"""

import copy
import json
import math
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import check_report  # noqa: E402

BASELINES = sorted((pathlib.Path(__file__).resolve().parent.parent /
                    "bench" / "baselines").glob("BENCH_*.baseline.json"))


def with_value(doc, name, value):
    doc = copy.deepcopy(doc)
    doc["metrics"][name]["value"] = value
    return doc


class BenchGates(unittest.TestCase):
    def test_baselines_exist(self):
        self.assertEqual(len(BASELINES), 5, BASELINES)

    def for_each_baseline(self, body):
        for path in BASELINES:
            with self.subTest(baseline=path.name):
                body(json.loads(path.read_text(encoding="utf-8")))

    def test_baseline_passes_against_itself(self):
        self.for_each_baseline(
            lambda base: self.assertEqual(
                check_report.check_bench(base, base), []))

    def test_each_gate_fails_just_past_its_bound(self):
        def body(base):
            self.assertTrue(base["gates"])
            for gate in base["gates"]:
                name = gate["metric"]
                for key, away in (("min", -math.inf), ("max", math.inf)):
                    if key not in gate:
                        continue
                    bound = gate[key]
                    at = with_value(base, name, bound)
                    past = with_value(base, name, math.nextafter(bound, away))
                    self.assertEqual(check_report.check_bench(at), [],
                                     f"{name} at its {key} {bound}")
                    self.assertNotEqual(check_report.check_bench(past), [],
                                        f"{name} just past its {key} {bound}")
        self.for_each_baseline(body)

    def test_budget_gates_fail_beyond_their_budget(self):
        budgets = 0

        def body(base):
            nonlocal budgets
            for gate in base["gates"]:
                if "budget" not in gate:
                    continue
                budgets += 1
                name, budget = gate["metric"], gate["budget"]
                metric = base["metrics"][name]
                sign = 1 if metric["better"] == "higher" else -1
                for factor, fails in ((1.2, True), (0.8, False)):
                    value = metric["value"] * (1 - sign * factor * budget)
                    errors = check_report.check_bench(
                        with_value(base, name, value), base)
                    self.assertEqual(bool(errors), fails,
                                     f"{name} {factor * budget:.0%} worse")
        self.for_each_baseline(body)
        self.assertGreaterEqual(budgets, 1)

    def test_deterministic_metrics_compare_exactly(self):
        def body(base):
            for name, metric in base["metrics"].items():
                if metric["kind"] != "deterministic":
                    continue
                value = metric["value"]
                for moved in (value + 1, math.nextafter(value, math.inf)):
                    self.assertNotEqual(
                        check_report.check_bench(
                            with_value(base, name, moved), base), [],
                        f"{name} moved {value!r} -> {moved!r}")
        self.for_each_baseline(body)

    def test_wall_metric_without_budget_is_not_compared(self):
        def body(base):
            budgeted = {g["metric"] for g in base["gates"] if "budget" in g}
            gated = {g["metric"] for g in base["gates"]}
            for name, metric in base["metrics"].items():
                if metric["kind"] == "wall" and name not in gated | budgeted:
                    halved = with_value(base, name, metric["value"] / 2)
                    self.assertEqual(check_report.check_bench(halved, base),
                                     [], name)
        self.for_each_baseline(body)

    def test_dropped_metric_or_gate_fails(self):
        def body(base):
            for name in base["metrics"]:
                doc = copy.deepcopy(base)
                del doc["metrics"][name]
                self.assertNotEqual(check_report.check_bench(doc, base), [],
                                    f"dropped {name}")
            for i, gate in enumerate(base["gates"]):
                doc = copy.deepcopy(base)
                del doc["gates"][i]
                self.assertNotEqual(check_report.check_bench(doc, base), [],
                                    f"dropped gate {gate}")
        self.for_each_baseline(body)

    def test_non_finite_metric_fails(self):
        def body(base):
            name = next(iter(base["metrics"]))
            for bad in (None, math.nan, math.inf, "1"):
                self.assertNotEqual(
                    check_report.check_bench(with_value(base, name, bad)), [],
                    f"{name} = {bad!r}")
        self.for_each_baseline(body)


def run_report(phase_means):
    """A minimal traced RunReport with the given six phase means."""
    return {
        "meta": {key: 1 for key in check_report.META_KEYS},
        "phases": [{"name": name, "mean_ms": mean, "total_ms": mean * 200,
                    "count": 200}
                   for name, mean in zip(check_report.EXPECTED_PHASES,
                                         phase_means)],
        "e2e": {"source": "trace", "commands": 200, "mean_ms": 1.0},
        "series": {"completed": {"total": 200}, "executed": {"total": 200},
                   "server.executed{partition=0,replica=0}": {"total": 200}},
        "histograms": {},
        "counters": {name: 0 for name in (
            "server.shed", "oracle.shed", "client.retries_exhausted",
            "transfer.chunks_sent", "transfer.chunks_retransmitted")},
        "repartitions": [],
        "chaos": [],
    }


class RunReports(unittest.TestCase):
    def test_phase_sum_must_match_e2e_mean(self):
        self.assertEqual(
            check_report.check(run_report([0, 0.1, 0.5, 0.1, 0.2, 0.1]), 100),
            [])
        self.assertNotEqual(
            check_report.check(run_report([0, 0.1, 0.5, 0.1, 0.2, 0.3]), 100),
            [])


if __name__ == "__main__":
    unittest.main()
