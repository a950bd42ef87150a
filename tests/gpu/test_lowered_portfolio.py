"""The portfolio runs lane-batched, bit-identical to the scalar engines.

Guard for :mod:`repro.compiler.lower`: every portfolio app, in its
``ompx`` and native variants, on every device preset, must launch only on
the lane-batched ``vector``/``wave`` engines — the AIDW kNN kernels,
which build per-thread arrays the pass declines, are the one exception —
and produce output ``np.array_equal`` to a run forced onto the scalar
engines (``map`` for sync-free kernels, ``block-thread`` otherwise), with
equal ``KernelStats`` counters.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.gpu.launch as launch_mod
from repro.apps import AIDW, PORTFOLIO_APPS, RSBench, SU3, VersionLabel, run
from repro.gpu import get_device
from repro.gpu.engine import _legacy_engine

PRESETS = {"a100": 0, "mi250": 1, "xehpc": 3}
VARIANTS = (VersionLabel.OMPX, VersionLabel.NATIVE_LLVM)
#: Kernels the lowering pass declines by design (per-thread k-best arrays).
SCALAR_ONLY = {"aidw_knn_cuda_kernel", "aidw_knn_ompx_kernel"}
_COUNTERS = (
    "threads_run", "blocks_run", "barriers", "warp_collectives",
    "global_derefs", "shared_declarations",
)


class _Recorder:
    """Engine proxy: runs the chosen engine and logs (kernel, stats)."""

    def __init__(self, engine, kernel, log):
        self._engine = engine
        self._kernel = getattr(getattr(kernel, "fn", kernel), "__name__", "?")
        self._log = log

    @property
    def name(self):
        return self._engine.name

    def run(self, *args, **kwargs):
        stats = self._engine.run(*args, **kwargs)
        self._log.append((self._kernel, stats))
        return stats


def _run(app, params, variant, device, *, scalar):
    log = []
    select = launch_mod.select_engine

    def recording(kernel, *args, **kwargs):
        engine = _legacy_engine(kernel) if scalar else select(kernel, *args, **kwargs)
        return _Recorder(engine, kernel, log)

    launch_mod.select_engine = recording
    try:
        return app.run_single(variant, params, device), log
    finally:
        launch_mod.select_engine = select


def _counters(log):
    return [(name, tuple(getattr(s, c) for c in _COUNTERS)) for name, s in log]


def _check(app, params, variant, device):
    auto, auto_log = _run(app, params, variant, device, scalar=False)
    ref, ref_log = _run(app, params, variant, device, scalar=True)
    batched = {s.engine for name, s in auto_log if name not in SCALAR_ONLY}
    assert batched <= {"vector", "wave"}, f"{app.name}/{variant}: {batched}"
    assert all(s.engine == "block-thread" for name, s in auto_log if name in SCALAR_ONLY)
    assert np.array_equal(auto.output, ref.output)
    assert _counters(auto_log) == _counters(ref_log)
    return auto_log


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("app_cls", PORTFOLIO_APPS, ids=lambda c: c.name)
def test_portfolio_launches_lane_batched_and_bit_identical(app_cls, variant, preset):
    app = app_cls()
    _check(app, app.functional_params(), variant, get_device(PRESETS[preset]))


@pytest.mark.parametrize("variant", VARIANTS)
def test_aidw_knn_stays_on_block_thread(variant):
    app = AIDW()
    params = {**app.functional_params(), "mode": 1}
    log = _check(app, params, variant, get_device(0))
    assert log and {name for name, _ in log} <= SCALAR_ONLY


#: The perfbench ``portfolio-local`` sizes of the three lowered apps.
BENCH_SCALE = {RSBench: {"lookups": 400}, SU3: {"sites": 480}, AIDW: {"inum": 120}}


@pytest.mark.parametrize("app_cls", list(BENCH_SCALE), ids=lambda c: c.name)
def test_bench_scale_is_bit_identical(app_cls):
    app = app_cls()
    params = {**app.functional_params(), **BENCH_SCALE[app_cls]}
    _check(app, params, VersionLabel.OMPX, get_device(0))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("app_cls", list(BENCH_SCALE), ids=lambda c: c.name)
def test_two_devices_match_the_scalar_single_device_run(app_cls, variant):
    app = app_cls()
    params = app.functional_params()
    ref, _ = _run(app, params, variant, get_device(0), scalar=True)
    result = run(app, variant=variant, params=params, devices=2)
    assert np.array_equal(result.output, ref.output)
