#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, parent against change.

  python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--claim p50_ms@pull_cold]

Each directory holds the per-run JSON records run.py writes (untraced runs
only are read). Runs pair up in start order, so run the two sides
alternately. One row per workload x end-to-end metric gives each side's
median and quartiles and a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread (interquartile range over median) is
              wider than the bound, and not every change run beats every
              parent run
  improved    >= 10 pairs, the change wins >= 9/10 of them (ties count for
              neither), and the medians differ by more than the parent's
              interquartile range
  unchanged   anything else

A rise in failed/attempted operations on any workload is also a failure.
Exits 1 when any row is worse, the error rate rose, a --claim is not
improved, or the runs do not all share one window length (`seconds`).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_runs(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if record.get("trace") or record.get("smoke") or \
                "end_to_end" not in record:
            continue
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r.get("started_unix", 0))
    return runs


def metric_values(records, name):
    """The metric's measured values; a run that wrote null counts as none."""
    measured = (r.get("end_to_end", {}).get(name, {}) for r in records)
    return [m["value"] for m in measured if m.get("value") is not None]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """Returns (verdict, wins, pairs) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    # A tie is not a win, so it counts against the 9/10 share.
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    worse_by = sign * (pm - cm) / pm if pm else 0.0
    spread = (p3 - p1) / pm if pm else 0.0
    if worse_by > bound:
        return "worse", wins, len(pairs)
    if spread > bound and not dominates:
        return "unresolved", wins, len(pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(pairs) and
            sign * (cm - pm) > 0 and abs(cm - pm) > (p3 - p1)):
        return "improved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def error_rate(records):
    attempted = sum(int(r.get("attempted", 0)) for r in records)
    failed = sum(int(r.get("failed", 0)) for r in records)
    return failed / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--claim", action="append", default=[],
                        help="metric@workload the change claims to improve")
    args = parser.parse_args()

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_runs = load_runs(args.parent_dir)
    change_runs = load_runs(args.change_dir)
    # Run length is part of the benchmark: windows of different length do
    # not compare.
    windows = {r.get("seconds") for runs in (parent_runs, change_runs)
               for records in runs.values() for r in records}
    if len(windows) > 1:
        print("compare.py: the runs measured windows of different length "
              f"(seconds = {sorted(windows, key=str)}); rerun with one length",
              file=sys.stderr)
        return 1
    claims = set(args.claim)
    failed = False
    verdicts = {}
    print(f"{'workload':10s} {'metric':13s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>6s} verdict")
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            print(f"{workload:10s} missing runs on one side")
            failed = True
            continue
        for metric in metrics:
            name = metric["name"]
            p, c = metric_values(parent, name), metric_values(change, name)
            if not p or not c:
                print(f"{workload:10s} {name:13s} not reported")
                failed = True
                continue
            result, wins, pairs = verdict(p, c, metric["better"],
                                          metric["bound"])
            verdicts[f"{name}@{workload}"] = result
            failed = failed or result == "worse"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            delta = (cm - pm) / pm if pm else 0.0
            print(f"{workload:10s} {name:13s} "
                  f"{pm:12.5g} [{p1:9.4g}, {p3:9.4g}] "
                  f"{cm:12.5g} [{c1:9.4g}, {c3:9.4g}] "
                  f"{delta:+8.2%} {wins:2d}/{pairs:<3d} {result}")
        parent_errors, change_errors = error_rate(parent), error_rate(change)
        rose = change_errors > parent_errors
        failed = failed or rose
        print(f"{workload:10s} {'error_rate':13s} {parent_errors:12.5g} "
              f"{'':22s} {change_errors:12.5g} {'':22s} {'':8s} {'':6s} "
              f"{'worse' if rose else 'unchanged'}")
    for claim in sorted(claims):
        result = verdicts.get(claim, "not measured")
        print(f"claim {claim}: {result}")
        failed = failed or result != "improved"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
