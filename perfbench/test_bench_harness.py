"""Smoke and unit tests for the benchmark harness.

Run with ``python -m pytest perfbench`` (about a minute: every workload
runs for one second, untraced and traced).
"""

from __future__ import annotations

import json

import pytest

import bench
import compare
import hostclock
import layers
import workloads
from repro.apps import Stencil1D, run
from repro.errors import GpuError
from repro.sched import DevicePool
from repro.trace import validate_chrome_trace

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_metric(name, tmp_path):
    untraced = bench.run_workload(name, 1, 1.0, traced=False)
    traced = bench.run_workload(name, 1, 1.0, traced=True, out_dir=tmp_path)
    for result, units in ((untraced, bench.E2E_UNITS), (traced, layers.UNITS)):
        assert set(result["metrics"]) == set(units)
        assert result["failed"] == 0 and result["correct"]
    validate_chrome_trace(str(tmp_path / f"{name}-seed1.trace.json"))
    assert (tmp_path / f"{name}-seed1.layers.json").is_file()


def test_figure8_matches_the_committed_table():
    assert bench.check_figure8() == []


def test_host_clock_times_blocks_in_a_child_process():
    with hostclock.HostClock() as clock:
        assert clock.block() > 0
    assert clock._proc.returncode == 0


def test_attribute_gives_each_instant_to_the_lowest_open_layer():
    windows = [(0.0, 10.0), (20.0, 30.0)]
    kernel = [(1.0, 4.0), (25.0, 40.0)]   # the tail past 30 is outside every op
    pool = [(0.0, 5.0)]
    assert layers.attribute(windows, [kernel, pool]) == [8.0, 2.0, 10.0]


@pytest.mark.parametrize("base, cand, better, expected", [
    ([1.0, 1.0, 1.0, 1.0], [1.05] * 4, "lower", "ok"),
    ([1.0, 1.0, 1.0, 1.0], [1.2] * 4, "lower", "regressed"),
    ([1.0, 1.0, 1.0, 1.0], [1.2] * 4, "higher", "improved"),
    ([0.7, 0.9, 1.1, 1.3], [1.05] * 4, "lower", "unresolved"),
    ([0.7, 0.9, 1.1, 1.3], [0.5] * 4, "lower", "improved"),
])
def test_gate_verdicts(base, cand, better, expected):
    assert compare.verdict(base, cand, better, 0.1)[0] == expected


def _run_file(path, workloads_metrics, failed=0):
    path.write_text(json.dumps({"seed": 1, "seconds": 1.0, "workloads": {
        name: {"metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
               "attempted": 10, "failed": failed, "detail": {}}
        for name, metrics in workloads_metrics.items()}}))
    return path


@pytest.mark.parametrize("candidate, failed, code", [
    ({"w": {"setup_s": 1.0, "op_s.p95": 2.0}}, 0, 0),
    ({"w": {"setup_s": 1.0, "op_s.p95": 2.0}}, 1, 1),   # more ops fail
    ({"w": {"setup_s": 1.0}}, 0, 1),                     # a metric is missing
    ({"v": {"setup_s": 1.0, "op_s.p95": 2.0}}, 0, 1),    # a workload is missing
])
def test_gate_fails_on_missing_results_and_failed_ops(tmp_path, candidate, failed,
                                                      code):
    base = _run_file(tmp_path / "base.json", {"w": {"setup_s": 1.0, "op_s.p95": 2.0}})
    cand = _run_file(tmp_path / "cand.json", candidate, failed)
    assert compare.gate([base], [cand]) == code


@pytest.mark.xfail(strict=True, raises=GpuError,
                   reason="Stencil1D.run_sharded enables peer access on every "
                          "call, so a second run on one pool raises; "
                          "serve-open leaves Stencil-1D out until it is fixed")
def test_stencil_reused_pool():
    with DevicePool(2) as pool:
        run(Stencil1D(), pool=pool)
        run(Stencil1D(), pool=pool)
