#!/usr/bin/env python3
"""Validate a simctl --report=FILE RunReport, or gate a bench document.

RunReport mode checks the structural contract documented in
docs/OBSERVABILITY.md:
  * all top-level sections are present with the right JSON types;
  * the six lifecycle phases appear in order with sane values;
  * when the e2e latency came from the trace, the per-phase means sum to
    the end-to-end mean within 5% (they telescope, so in practice the
    difference is double rounding only);
  * the headline series exist and command counts are consistent.

--bench mode gates one dynastar-bench-v1 document (docs/OBSERVABILITY.md),
as every gated bench writes it through bench/bench_common.h:
  * every metric value is a finite number with a known kind and direction;
  * every gate the bench declared holds (a gate on a missing metric fails);
and with --baseline:
  * the document comes from the same bench and declares every baseline gate;
  * every baseline metric is present;
  * a deterministic metric equals its baseline value exactly;
  * a wall metric with a declared budget is no worse than its baseline
    value by more than that fraction.

Usage: check_report.py REPORT.json [--min-commands N] [--wan]
       check_report.py --bench BENCH_x.json [--baseline BENCH_x.baseline.json]
Exit code 0 on success, 1 with a message per violation otherwise.
"""

import argparse
import json
import math
import sys

EXPECTED_SECTIONS = {
    "meta": dict,
    "phases": list,
    "e2e": dict,
    "series": dict,
    "histograms": dict,
    "counters": dict,
    "repartitions": list,
    "chaos": list,
}

EXPECTED_PHASES = ["retry", "resolve", "order", "coordinate", "execute", "reply"]

META_KEYS = ["workload", "mode", "seed", "duration_s", "partitions",
             "clients", "trace_enabled", "trace_events"]


def check(report, min_commands, wan=False):
    errors = []

    def err(msg):
        errors.append(msg)

    for key, kind in EXPECTED_SECTIONS.items():
        if key not in report:
            err(f"missing top-level section {key!r}")
        elif not isinstance(report[key], kind):
            err(f"section {key!r} is {type(report[key]).__name__}, "
                f"expected {kind.__name__}")
    if errors:
        return errors  # structure too broken to continue

    meta = report["meta"]
    for key in META_KEYS:
        if key not in meta:
            err(f"meta is missing {key!r}")

    phases = report["phases"]
    names = [p.get("name") for p in phases]
    if names != EXPECTED_PHASES:
        err(f"phase names/order {names} != {EXPECTED_PHASES}")
    for p in phases:
        for field in ("mean_ms", "total_ms", "count"):
            if not isinstance(p.get(field), (int, float)):
                err(f"phase {p.get('name')!r} missing numeric {field!r}")
            elif p[field] < 0:
                err(f"phase {p.get('name')!r} has negative {field!r}")

    e2e = report["e2e"]
    for field in ("source", "commands", "mean_ms"):
        if field not in e2e:
            err(f"e2e is missing {field!r}")
    if errors:
        return errors

    commands = e2e["commands"]
    if commands < min_commands:
        err(f"only {commands} completed commands (need >= {min_commands})")

    if e2e["source"] == "trace":
        phase_sum = sum(p["mean_ms"] for p in phases)
        mean = e2e["mean_ms"]
        if mean <= 0:
            err(f"e2e mean_ms is {mean}, expected > 0")
        elif abs(phase_sum - mean) > 0.05 * mean:
            err(f"phase means sum to {phase_sum:.6f} ms but e2e mean is "
                f"{mean:.6f} ms (off by more than 5%)")
        for p in phases:
            if p["count"] != commands:
                err(f"phase {p['name']!r} counted {p['count']} commands, "
                    f"e2e counted {commands}")
    elif meta.get("trace_enabled"):
        err("trace was enabled but e2e.source is not 'trace'")

    for name in ("completed", "executed"):
        if name not in report["series"]:
            err(f"series {name!r} missing from report")
        elif report["series"][name].get("total", 0) <= 0:
            err(f"series {name!r} has non-positive total")
    if not any(name.startswith("server.executed{") for name in report["series"]):
        err("no labeled server.executed{...} series in report")

    # Overload-protection and state-transfer counters are pre-registered by
    # core::System, so every report must carry them (zero when idle).
    for name in ("server.shed", "oracle.shed", "client.retries_exhausted",
                 "transfer.chunks_sent", "transfer.chunks_retransmitted"):
        value = report["counters"].get(name)
        if not isinstance(value, (int, float)):
            err(f"counter {name!r} missing or non-numeric")
        elif value < 0:
            err(f"counter {name!r} is {value}, expected >= 0")

    if wan:
        # A WAN run must have exercised the link-capacity model (per-link
        # byte accounting only exists on profiled links) and — when the
        # scenario forces a lagging replica — the chunked transfer path.
        if not any(name.startswith("network.bytes_sent{")
                   for name in report["series"]):
            err("WAN run produced no labeled network.bytes_sent{link=...} "
                "series — the link-capacity model never engaged")
        installs = report["counters"].get("server.snapshot_installs", 0)
        if not installs or installs < 1:
            err("WAN run recorded no server.snapshot_installs — the forced "
                "state transfer never completed")
        if report["counters"].get("transfer.chunks_sent", 0) < 1:
            err("WAN run sent no state-transfer chunks — the chunk protocol "
                "never engaged")

    return errors


BENCH_SCHEMA = "dynastar-bench-v1"
KINDS = ("deterministic", "wall")


def value_of(metric):
    """The metric's value if it is a finite number, else None."""
    value = metric.get("value") if isinstance(metric, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value if math.isfinite(value) else None


def check_bench(doc, baseline=None):
    errors = []
    err = errors.append

    if doc.get("schema") != BENCH_SCHEMA:
        return [f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}"]
    metrics, gates = doc.get("metrics"), doc.get("gates")
    if not isinstance(metrics, dict) or not isinstance(gates, list):
        return ["document needs a 'metrics' object and a 'gates' list"]

    for name, metric in metrics.items():
        if value_of(metric) is None:
            err(f"{name}: {metric!r} has no finite value")
        elif metric.get("kind") not in KINDS:
            err(f"{name}: kind {metric.get('kind')!r} not in {KINDS}")
        elif metric.get("better") not in ("higher", "lower"):
            err(f"{name}: better {metric.get('better')!r} is not "
                f"'higher' or 'lower'")
    if errors:
        return errors

    for gate in gates:
        name = gate.get("metric")
        if name not in metrics:
            err(f"gate on {name!r}: metric missing")
            continue
        value = metrics[name]["value"]
        if not {"min", "max", "budget"} & gate.keys():
            err(f"gate on {name!r} declares no bound")
        if "min" in gate and not value >= gate["min"]:
            err(f"{name} = {value:.6g}, below its floor {gate['min']:.6g}")
        if "max" in gate and not value <= gate["max"]:
            err(f"{name} = {value:.6g}, above its ceiling {gate['max']:.6g}")

    if baseline is None:
        return errors

    if baseline.get("bench") != doc.get("bench"):
        err(f"bench {doc.get('bench')!r} compared with a baseline of "
            f"{baseline.get('bench')!r}")
    for gate in baseline.get("gates", []):
        if gate not in gates:
            err(f"baseline gate {gate} is no longer declared")
    budgets = {g["metric"]: g["budget"] for g in gates if "budget" in g}
    for name, base in baseline.get("metrics", {}).items():
        metric = metrics.get(name)
        if metric is None:
            err(f"{name}: in the baseline but missing from the document")
            continue
        value, base_value = metric["value"], base["value"]
        if base.get("kind") == "deterministic":
            if value != base_value:
                err(f"{name} = {value!r}, deterministic baseline "
                    f"{base_value!r}: regenerate the baseline and record "
                    f"the change")
        elif name in budgets:
            budget = budgets[name]
            sign = 1 if base["better"] == "higher" else -1
            bound = base_value * (1 - sign * budget)
            if sign * (value - bound) < 0:
                err(f"{name} = {value:.6g}, worse than {bound:.6g} "
                    f"({base_value:.6g} baseline, {budget:.0%} budget)")
    return errors


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("report", nargs="?", help="path to a RunReport JSON")
    parser.add_argument("--min-commands", type=int, default=100,
                        help="minimum completed commands expected (default 100)")
    parser.add_argument("--wan", action="store_true",
                        help="RunReport mode: additionally require the WAN "
                             "evidence — labeled network.bytes_sent{link=...} "
                             "series, >= 1 snapshot install and >= 1 "
                             "state-transfer chunk sent")
    parser.add_argument("--bench", metavar="DOC",
                        help="gate a dynastar-bench-v1 document instead")
    parser.add_argument("--baseline", metavar="BASE",
                        help="checked-in bench document to compare against")
    args = parser.parse_args()
    if (args.report is None) == (args.bench is None):
        parser.error("give either a RunReport or --bench DOC")

    try:
        if args.bench:
            doc = load(args.bench)
            baseline = load(args.baseline) if args.baseline else None
        else:
            report = load(args.report)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_report: cannot read input: {exc}", file=sys.stderr)
        return 1

    if args.bench:
        errors = check_bench(doc, baseline)
        summary = (f"{doc.get('bench')}: {len(doc.get('metrics', {}))} "
                   f"metrics, {len(doc.get('gates', []))} gates")
    else:
        errors = check(report, args.min_commands, wan=args.wan)
        summary = ""
        if not errors:
            phases = " ".join(f"{p['name']}={p['mean_ms']:.3f}"
                              for p in report["phases"])
            summary = (f"{int(report['e2e']['commands'])} commands, e2e "
                       f"{report['e2e']['mean_ms']:.3f} ms ({phases})")
    for msg in errors:
        print(f"check_report: {msg}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_report: OK — {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
