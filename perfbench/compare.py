#!/usr/bin/env python3
"""Spread-aware comparison of benchmark run sets, and snapshots of them.

A run set is any number of ``bench.py --out`` files (one per seed) or a
committed ``BENCH_<rev>.json`` snapshot, whose sets are pooled.

::

    # Gate a candidate against a baseline; exit 1 on a regression.
    python3 perfbench/compare.py gate BASE.json... --candidate NEW.json...

    # Record run sets (each --set is one set of runs) as a snapshot.
    python3 perfbench/compare.py snapshot --set A1.json A2.json... \\
        --set B1.json... -o perfbench/BENCH_<rev>.json

The gate compares medians of every end-to-end metric in
``BENCHMARK.json``.  A metric regresses when the candidate's median is
worse than the baseline's by more than the larger of the metric's bound
and the baseline's spread (quartile distance over median).  When that
spread exceeds the bound the verdict is ``unresolved`` rather than
``ok``, unless every candidate run beats every baseline run.  The gate
also fails when the candidate lacks a workload or metric the baseline
has, or fails a larger share of its ops.  Where a scaled metric passes
but its unscaled ``raw.*`` value regresses, the line says so: either the
host ran slower, which ``host.slowdown`` shows, or the change burns CPU
in a way the host clock also felt.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def summarize(values) -> dict:
    """Median, quartile distance and count of one metric's runs."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "iqr": q3 - q1, "n": len(values)}


def kept_detail(detail: dict) -> dict:
    """The detail fields a snapshot keeps: unscaled values, host speed."""
    return {key: value for key, value in detail.items()
            if key.startswith("raw.") or key == "host.slowdown"}


def load_values(paths):
    """``{workload: {name: [value per run]}}`` pooled over ``paths``: each
    metric, the :func:`kept_detail` fields, ``attempted`` and ``failed``."""
    values = defaultdict(lambda: defaultdict(list))
    for path in paths:
        data = json.loads(Path(path).read_text())
        for run_set in data.get("sets", [{"runs": [data]}]):
            for run in run_set["runs"]:
                for workload, result in run["workloads"].items():
                    series = values[workload]
                    for metric, m in result["metrics"].items():
                        series[metric].append(m["value"])
                    for key, value in kept_detail(result.get("detail", {})).items():
                        series[key].append(value)
                    for key in ("attempted", "failed"):
                        series[key].append(result[key])
    return values


def verdict(base, cand, better: str, bound: float) -> tuple:
    """``(verdict, worse_by)`` for one metric; see the module doc."""
    b, c = summarize(base), summarize(cand)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (c["median"] - b["median"]) / b["median"]
    spread = b["iqr"] / abs(b["median"])
    if worse > max(bound, spread):
        return "regressed", worse
    if spread > bound:
        beats_all = all(sign * (x - y) < 0 for x in cand for y in base)
        return ("improved" if beats_all else "unresolved"), worse
    if -worse > bound:
        return "improved", worse
    return "ok", worse


def failed_share(series) -> float:
    return sum(series["failed"]) / sum(series["attempted"])


def gate(baseline, candidate) -> int:
    spec = json.loads(BENCHMARK.read_text())["end_to_end"]
    base, cand = load_values(baseline), load_values(candidate)
    problems = 0
    for workload in sorted(base):
        b_series, c_series = base[workload], cand.get(workload)
        if c_series is None:
            print(f"{workload:<18} missing from the candidate")
            problems += 1
            continue
        if failed_share(c_series) > failed_share(b_series):
            print(f"{workload:<18} failed ops: {sum(b_series['failed'])} of "
                  f"{sum(b_series['attempted'])} -> {sum(c_series['failed'])} of "
                  f"{sum(c_series['attempted'])}  regressed")
            problems += 1
        for metric in spec:
            name = metric["name"]
            if name not in b_series:
                continue
            if name not in c_series:
                print(f"{workload:<18} {name:<22} missing from the candidate")
                problems += 1
                continue
            outcome, worse = verdict(b_series[name], c_series[name],
                                     metric["better"], metric["bound"])
            problems += outcome == "regressed"
            raw = f"raw.{name}"
            if (outcome != "regressed" and raw in b_series and raw in c_series
                    and verdict(b_series[raw], c_series[raw], metric["better"],
                                metric["bound"])[0] == "regressed"):
                outcome += " (unscaled: regressed)"
            b = summarize(b_series[name])
            print(f"{workload:<18} {name:<22} "
                  f"{b['median']:>11.5g} ±{b['iqr'] / abs(b['median']):>6.1%} -> "
                  f"{statistics.median(c_series[name]):>11.5g} "
                  f"({abs(worse):6.1%} {'worse' if worse > 0 else 'better'})  "
                  f"{outcome}")
    if problems:
        print(f"\n{problems} regression(s) or missing result(s)")
        return 1
    print("\nno regressions beyond bound")
    return 0


def _revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              cwd=BENCHMARK.parent)
    except OSError:
        return "local"
    return proc.stdout.strip() if proc.returncode == 0 else "local"


def snapshot(sets, out: Path) -> int:
    """Write the run sets, with per-metric summaries, to ``out``."""
    recorded = []
    for paths in sets:
        runs = []
        for path in paths:
            run = json.loads(Path(path).read_text())
            runs.append({
                "seed": run["seed"], "seconds": run["seconds"],
                "workloads": {
                    w: {"metrics": r["metrics"], "attempted": r["attempted"],
                        "failed": r["failed"], "detail": kept_detail(r["detail"])}
                    for w, r in run["workloads"].items()},
            })
        values = load_values(paths)
        recorded.append({
            "summary": {w: {m: summarize(v) for m, v in sorted(ms.items())}
                        for w, ms in sorted(values.items())},
            "runs": runs,
        })
    out.write_text(json.dumps({"revision": _revision(), "sets": recorded},
                              indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    g = sub.add_parser("gate", help="compare a candidate run set to a baseline")
    g.add_argument("baseline", nargs="+", type=Path)
    g.add_argument("--candidate", nargs="+", type=Path, required=True)
    s = sub.add_parser("snapshot", help="record run sets as one snapshot file")
    s.add_argument("--set", dest="sets", nargs="+", type=Path, action="append",
                   required=True)
    s.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.command == "gate":
        return gate(args.baseline, args.candidate)
    return snapshot(args.sets, args.output)


if __name__ == "__main__":
    sys.exit(main())
