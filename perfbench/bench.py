#!/usr/bin/env python3
"""One repeatable benchmark of the simulator: four workloads, checked outputs.

::

    python3 perfbench/bench.py [--workload NAME] [--seed N] [--seconds S]
        [--trace 0|1] [--out PATH]

Every workload runs in fresh processes (``perfbench/workloads.py``).
With ``--trace 0`` the benchmark times three cold set-ups and one
untraced timed phase, and reports the end-to-end metrics, with times
scaled to a reference host speed (``hostclock.py``).  With
``--trace 1`` it runs an untraced and a traced half, exports the traced
half as a Chrome trace under ``perfbench/out/`` (checked with
``validate_chrome_trace``, with the per-layer JSON beside it) and reports
the per-layer metrics.  Each run also checks that the modelled Figure 8
numbers equal ``perfbench/fig8_expected.json`` and that every §4.2 claim
holds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric a
``{"value", "unit"}`` pair; without ``--workload`` the names are prefixed
with ``<workload>/``).  The exit code is 1 when any output or Figure 8
check fails.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``; the seed drives every generated input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads  # exits when the checkout holds no repro sources
from layers import UNITS as LAYER_UNITS
from workloads import OUT_DIR, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
FIG8_EXPECTED = HERE / "fig8_expected.json"

#: End-to-end metrics (all from untraced runs) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_per_s": "ops/s",
    "op_s.p50_gmean": "s",
    "op_s.p95": "s",
    "peak_rss_mb": "MB",
}

#: Cold set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


class BenchError(RuntimeError):
    """A workload process failed; the run has no result."""


def _child(*args: str, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(workloads.SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"workloads.py {' '.join(args)} exited "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 out_dir: Path = OUT_DIR) -> dict:
    """Measure one workload in fresh processes; see the module doc."""
    base = [name, "--seed", str(seed), "--seconds", repr(seconds)]
    # Generous next to the few seconds of set-up a process needs, yet a
    # hung process still ends the run well inside three minutes.
    timeout = seconds + 60.0
    if not traced:
        measured = _child(*base, timeout=timeout)
        setups = [measured] + [_child(*base, "--setup-only", timeout=30.0)
                               for _ in range(SETUP_SAMPLES - 1)]
        values = dict(measured["e2e"],
                      setup_s=statistics.median(s["setup_s"] for s in setups),
                      peak_rss_mb=measured["peak_rss_mb"])
        units = E2E_UNITS
        detail = dict(measured["detail"], **{
            "raw.setup_s": statistics.median(s["raw_setup_s"] for s in setups),
            "setup_s_samples": [s["setup_s"] for s in setups]})
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"{name}-seed{seed}.trace.json"
        measured = _child(*base, "--trace", str(trace_path), timeout=timeout)
        values = measured["layers"]["metrics"]
        units = LAYER_UNITS
        detail = dict(measured["detail"], **measured["layers"]["detail"],
                      trace=trace_path.name)
        if name == "portfolio-cluster":
            detail["note"] = ("cluster workers record no spans: gpu.* and "
                              "vendor.* read zero, cluster.* comes from the "
                              "benchmark's pool proxy and pool.report")
        layer_file = trace_path.with_name(f"{name}-seed{seed}.layers.json")
        layer_file.write_text(json.dumps(
            {"metrics": values, "detail": detail}, indent=1, sort_keys=True))
    return {
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "correct": measured["failed"] == 0 and measured["references_ok"],
        "detail": detail,
    }


def figure8_table() -> dict:
    """Figure 8 as ``{"<app>|<system>": {bar label: seconds or None}}``."""
    from repro.harness.figures import figure8

    return {f"{app}|{system}": cell
            for (app, system), cell in sorted(figure8().items())}


def check_figure8() -> list:
    """Problems with the modelled Figure 8; empty when it is unchanged."""
    from repro.harness.figures import figure8_relations

    expected = json.loads(FIG8_EXPECTED.read_text())
    actual = figure8_table()
    problems = []
    if set(expected) != set(actual):
        problems.append(f"Figure 8 cells differ: {sorted(set(expected) ^ set(actual))}")
    for key in sorted(set(expected) & set(actual)):
        for label, want in expected[key].items():
            got = actual[key].get(label)
            if (want is None) != (got is None) or (
                    want is not None
                    and not math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)):
                problems.append(f"Figure 8 {key} {label}: {got!r} != {want!r}")
    problems += [f"Figure 8 claim fails: {rel.app} on {rel.system}: {rel.claim}"
                 for rel, ok in figure8_relations() if not ok]
    return problems


def _print_table(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} ops, {result['failed']} failed")
    for key, metric in result["metrics"].items():
        print(f"  {key:<32} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in sorted(result["detail"].items()):
        if isinstance(value, (int, float)):
            print(f"  ({key:<30} {value:>14.6g})")
        elif isinstance(value, str):
            print(f"  ({key}: {value})")
    print(f"  (error_rate {result['failed'] / result['attempted']:.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full results as JSON to PATH")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())
                        ["run_seconds"])

    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {name: run_workload(name, args.seed, seconds, bool(args.trace))
                   for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    problems = check_figure8()
    for name, result in results.items():
        _print_table(name, result)
    for problem in problems:
        print(f"FAILED: {problem}")

    summary = {
        "correct": not problems and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (key if args.workload else f"{name}/{key}"): metric
            for name, result in results.items()
            for key, metric in result["metrics"].items()
        },
    }
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds, "trace": args.trace,
             "figure8_problems": problems, "workloads": results},
            indent=1, sort_keys=True))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
