"""Engine equivalence: every Fig. 6 app computes bit-identical results —
and identical behavioural counters — on every engine that can run it.

The matrix below pins each app kernel to each compatible engine in turn
(cooperative block-thread, sequential map, lane-batched vector/wave) and
requires byte-for-byte equal outputs plus equal KernelStats.  This is the
load-bearing guarantee of the WaveVectorEngine: it is an execution
strategy, not a numerical approximation.
"""

import dataclasses

import numpy as np
import pytest

import repro.gpu.engine as engine_mod
import repro.gpu.launch as launch_mod
from repro.apps import PORTFOLIO_APPS, VersionLabel
from repro.gpu import get_device
from repro.gpu.engine import _ENGINES_BY_NAME

#: Engines each app kernel can legally execute on as written.  MapEngine
#: and the vector mode refuse barriers, so the stencil pairs block-thread
#: with wave; warp-/atomic-free sync-free kernels run on all three layouts.
ENGINE_MATRIX = {
    "XSBench": ("block-thread", "map", "vector"),
    "RSBench": ("block-thread", "map"),
    "SU3": ("block-thread", "map"),
    # AIDW's interpolation kernels stage tiles in shared memory between
    # barriers, which only the cooperative engine runs as written.
    "AIDW": ("block-thread",),
    "Adam": ("block-thread", "map", "vector"),
    "Stencil 1D": ("block-thread", "wave"),
    # The §3.6 portfolio: GEMMs run in the vendor library (engine-
    # independent by construction); only the hand kernels are pinned.
    "MLPStep": ("block-thread", "map", "vector"),
    "SU3-ET": ("block-thread", "map"),
}

#: Lane-batched engines that run the body the lowering pass
#: (repro.compiler.lower) derives from per-thread source.  AIDW has no
#: early exit (out-of-range threads keep staging tiles), so its barrier
#: kernels lower to the cooperative wave layout.
LOWERED_ENGINES = {
    "RSBench": ("vector",),
    "SU3": ("vector",),
    "SU3-ET": ("vector",),
    "AIDW": ("wave",),
}

_APPS_BY_NAME = {cls.name: cls for cls in PORTFOLIO_APPS}

_COUNTERS = (
    "threads_run",
    "blocks_run",
    "barriers",
    "warp_collectives",
    "global_derefs",
    "shared_declarations",
)


class _ForcedEngine:
    """Engine proxy: pins every launch to one engine and records its stats."""

    def __init__(self, engine, log):
        self._engine = engine
        self.log = log

    @property
    def name(self):
        return self._engine.name

    def run(self, *args, **kwargs):
        stats = self._engine.run(*args, **kwargs)
        self.log.append(stats)
        return stats


def _run_forced(app, params, engine_name, device, variant=VersionLabel.NATIVE_LLVM):
    """Run one app variant (CUDA by default) with every launch pinned to one engine."""
    log = []
    proxy = _ForcedEngine(_ENGINES_BY_NAME[engine_name], log)
    original = launch_mod.select_engine
    launch_mod.select_engine = lambda *a, **k: proxy
    try:
        result = app.run_single(variant, params, device)
    finally:
        launch_mod.select_engine = original
    return result, log


def _counter_rows(log):
    return [tuple(getattr(stats, c) for c in _COUNTERS) for stats in log]


@pytest.mark.parametrize(
    "app_name,engines", sorted(ENGINE_MATRIX.items()), ids=lambda v: str(v)
)
def test_engines_agree_bitwise_and_on_stats(app_name, engines):
    app = _APPS_BY_NAME[app_name]()
    params = app.functional_params()
    device = get_device(0)

    base_name = engines[0]
    base_result, base_log = _run_forced(app, params, base_name, device)
    assert base_log, f"{app_name} recorded no launches under {base_name}"
    assert all(stats.engine == base_name for stats in base_log)
    assert app.verify(base_result, params), f"{app_name} wrong under {base_name}"

    for engine_name in engines[1:] + LOWERED_ENGINES.get(app_name, ()):
        result, log = _run_forced(app, params, engine_name, device)
        assert all(stats.engine == engine_name for stats in log)
        assert np.array_equal(result.output, base_result.output), (
            f"{app_name}: {engine_name} output diverged from {base_name}"
        )
        assert result.checksum == base_result.checksum
        assert _counter_rows(log) == _counter_rows(base_log), (
            f"{app_name}: {engine_name} KernelStats diverged from {base_name}"
        )


def test_intel_preset_matches_a100_bitwise():
    """The fourth ordinal (XeHPC) runs the engine matrix bit-identically."""
    app = _APPS_BY_NAME["Adam"]()
    params = app.functional_params()
    base, _ = _run_forced(app, params, "block-thread", get_device(0))
    intel = get_device(3)
    for engine_name in ENGINE_MATRIX["Adam"]:
        result, log = _run_forced(app, params, engine_name, intel)
        assert all(stats.engine == engine_name for stats in log)
        assert np.array_equal(result.output, base.output), (
            f"xehpc/{engine_name} diverged from the a100 reference"
        )
        assert result.checksum == base.checksum


def test_auto_selection_matches_forced_block_thread():
    """The engine the planner picks agrees bitwise with the SIMT reference."""
    app = _APPS_BY_NAME["XSBench"]()
    params = app.functional_params()
    device = get_device(0)
    auto = app.run_single(VersionLabel.NATIVE_LLVM, params, device)
    forced, _ = _run_forced(app, params, "block-thread", device)
    assert np.array_equal(auto.output, forced.output)


#: (app, variant, params override, blocks per wave batch).  Stencil-1D's
#: functional grid is 16 blocks of 64 threads and AIDW's below 7 blocks of
#: 32: ``None`` keeps the default bound (one batch); the others split the
#: grid into several full batches or leave a partial last one.
WAVE_BATCHES = [
    ("Stencil 1D", VersionLabel.NATIVE_LLVM, {}, None),
    ("Stencil 1D", VersionLabel.NATIVE_LLVM, {}, 4),
    ("Stencil 1D", VersionLabel.NATIVE_LLVM, {}, 3),
    ("Stencil 1D", VersionLabel.OMPX, {}, None),
    ("Stencil 1D", VersionLabel.OMPX, {}, 3),
    ("AIDW", VersionLabel.OMPX, {"inum": 200}, None),
    ("AIDW", VersionLabel.OMPX, {"inum": 200}, 1),
    ("AIDW", VersionLabel.OMPX, {"inum": 200}, 3),
    ("AIDW", VersionLabel.NATIVE_LLVM, {"inum": 200}, 3),
]


@pytest.mark.parametrize("app_name,variant,override,per_batch", WAVE_BATCHES, ids=str)
def test_wave_batches_of_many_blocks_agree_with_block_thread(
    monkeypatch, app_name, variant, override, per_batch
):
    """However ``wave`` splits a grid into batches, each block keeps its own
    shared memory: bytes and KernelStats (but ``engine``) match ``block-thread``."""
    app = _APPS_BY_NAME[app_name]()
    params = dict(app.functional_params(), **override)
    device = get_device(0)
    ref, ref_log = _run_forced(app, params, "block-thread", device, variant)
    if per_batch is not None:
        monkeypatch.setattr(engine_mod, "_VECTOR_CHUNK_THREADS", per_batch * params["block"])
    got, got_log = _run_forced(app, params, "wave", device, variant)
    assert all(stats.engine == "wave" for stats in got_log)
    assert got.output.tobytes() == ref.output.tobytes()
    assert [dataclasses.replace(s, engine="") for s in got_log] == [
        dataclasses.replace(s, engine="") for s in ref_log
    ]
    assert app.verify(got, params)
