"""Benchmark-harness fixtures.

Each ``test_fig8_*`` module regenerates one benchmark's Figure 8 row pair
(NVIDIA + AMD): it prints the same series the paper plots, asserts the
paper's qualitative claims for that benchmark, and uses pytest-benchmark
to time (a) the performance-model evaluation and (b) a reduced functional
simulation of the kernel — so ``pytest benchmarks/ --benchmark-only``
doubles as a performance regression suite for the simulator itself.

Snapshot artifacts: run with ``--bench-json DIR`` and every metric a
test pushed through the :func:`bench_record` fixture is written to
``DIR/BENCH_<rev>.json`` (``<rev>`` = short git revision, ``local``
outside a checkout) at session end — one file per revision, so future
PRs have a perf trajectory to diff against.
"""

from __future__ import annotations

import json
import os
import subprocess

import pytest

from repro.apps.common import BenchmarkApp, VersionLabel
from repro.gpu import get_device
from repro.harness.report import format_seconds, render_table
from repro.openmp.data import data_environment
from repro.perf.timing import AMD_SYSTEM, NVIDIA_SYSTEM

#: name -> {metric: value} records accumulated by bench_record this run.
_BENCH_RECORDS: dict = {}


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="DIR",
        help="write accumulated benchmark metrics to DIR/BENCH_<rev>.json "
             "at session end (throughput, overhead percentages, "
             "speedups)",
    )


@pytest.fixture
def bench_record():
    """Record named metrics into the ``--bench-json`` snapshot.

    ``bench_record("cluster/recovery", kill_to_readmit_s=0.5)``
    merges the keyword metrics under the given record name; repeated
    calls for one name accumulate.  Without ``--bench-json`` the records
    are still collected but simply never written.
    """

    def record(name: str, **metrics) -> None:
        _BENCH_RECORDS.setdefault(str(name), {}).update(
            {k: float(v) for k, v in metrics.items()}
        )

    return record


def _git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    return "local"


def pytest_sessionfinish(session, exitstatus):
    target = session.config.getoption("--bench-json", default=None)
    if not target or not _BENCH_RECORDS:
        return
    os.makedirs(target, exist_ok=True)
    rev = _git_revision()
    path = os.path.join(target, f"BENCH_{rev}.json")
    payload = {"revision": rev, "metrics": dict(sorted(_BENCH_RECORDS.items()))}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    tr = session.config.pluginmanager.get_plugin("terminalreporter")
    if tr is not None:
        tr.write_line(f"benchmark snapshot written to {path}")


@pytest.fixture(autouse=True)
def clean_data_environments():
    yield
    for ordinal in (0, 1):
        data_environment(get_device(ordinal)).reset()


def figure8_row(app: BenchmarkApp, *, excluded_omp: bool = False) -> dict:
    """Compute and print one app's Figure 8 pair of cells."""
    params = app.paper_params()
    cells = {}
    for system in (NVIDIA_SYSTEM, AMD_SYSTEM):
        row = {}
        for label in VersionLabel.ALL:
            display = VersionLabel.display(label, system)
            if excluded_omp and label == VersionLabel.OMP:
                row[display] = None
                continue
            row[display] = app.reported_seconds(app.estimate(label, system, params))
        cells[system.name] = row
    unit = "per iteration" if app.reports == "per_launch" else "total"
    for system_name, row in cells.items():
        rows = [
            [label, format_seconds(v) if v is not None else "excluded (invalid checksum)"]
            for label, v in row.items()
        ]
        print()
        print(render_table(["version", f"time ({unit})"], rows,
                           title=f"{app.name} on {system_name} (paper Figure 8)"))
    return cells
