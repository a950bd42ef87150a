"""The resilience canary: the engine it runs on, its exactness, its failures.

Every device heal launches ``_canary_kernel`` and blocks the waiting
thread on the result, so the probe must stay cheap: it is declared
sync-free and runs the body the lowering pass derives on the ``vector``
engine, not one OS thread per simulated thread on ``block-thread``.  The
lowered launch must write the bytes and count the stats the scalar one
does, and an injected fault on the real kernel must still retire the
device it probes.
"""

import dataclasses

import numpy as np
import pytest

from repro import faults
from repro.apps import VersionLabel, XSBench
from repro.apps import run as apps_run
from repro.errors import KernelFault
from repro.gpu import LaunchConfig, get_device, launch_kernel, select_engine
from repro.resilience import RETIRED, ResilientPool
from repro.resilience.pool import _CANARY_N, _canary_kernel, _canary_probe
from repro.sched import DevicePool

pytestmark = [pytest.mark.resilience]


@pytest.fixture(params=["nvidia", "amd", "intel"])
def device(request):
    return request.getfixturevalue(request.param)


def _launch(device, config):
    """Run the canary kernel once; its output buffer and KernelStats."""
    alloc = device.allocator
    ptr = alloc.malloc(_CANARY_N * 8)
    try:
        stats = launch_kernel(config, _canary_kernel, (ptr, _CANARY_N), device)
        out = np.zeros(_CANARY_N)
        alloc.memcpy_d2h(out, ptr)
    finally:
        alloc.free(ptr)
    return out, stats


def test_canary_runs_on_the_vector_engine(device):
    assert select_engine(_canary_kernel).name == "vector"


def test_canary_probe_passes(device):
    assert _canary_probe(device) is True


def test_lowered_canary_matches_a_block_thread_launch(device):
    out, stats = _launch(device, LaunchConfig.create(1, _CANARY_N))
    ref_out, ref_stats = _launch(
        device, LaunchConfig.create(1, _CANARY_N, engine="block-thread")
    )
    assert stats.engine == "vector"
    assert ref_stats.engine == "block-thread"
    assert out.tobytes() == ref_out.tobytes()
    assert dataclasses.replace(stats, engine="") == dataclasses.replace(
        ref_stats, engine=""
    )


def test_faulted_canary_retires_the_device():
    # The job's context fault sends its device through reset + canary; the
    # injected fault fires inside the real canary launch, so the probe
    # fails and the retry relocates to the surviving device.
    calls = {"n": 0}

    def job(device):
        calls["n"] += 1
        if calls["n"] == 1:
            raise KernelFault("fatal")
        return device.ordinal

    with DevicePool(2) as pool:
        with faults.inject(
            "launch:kernel_fault,kernel=_canary_kernel,every=1", seed=0
        ) as plan:
            with ResilientPool(pool, seed=1) as rpool:
                future = rpool.submit_call(job, label="victim")
                survivor = future.result(timeout=30)
                states = list(rpool.health.snapshot().values())
                assert states.count(RETIRED) == 1
                assert rpool.report["retirements"] == 1
                assert [d.ordinal for d in rpool.devices] == [survivor]
        assert plan.fired == 1, plan.summary()
    assert calls["n"] == 2


def test_traced_heal_probes_on_the_vector_engine():
    app = XSBench()
    params = app.functional_params()
    clean = app.run_single(VersionLabel.OMPX, params, get_device(0))
    with faults.inject("launch:kernel_fault@1 device=1", seed=9) as plan:
        result = apps_run(
            app, params=params, devices=2, resilient=True, trace=True
        )
    assert plan.fired == 1, plan.summary()
    canaries = [
        span for span in result.tracer.spans
        if span.name == "kernel:_canary_kernel"
    ]
    assert canaries
    assert {span.args["engine"] for span in canaries} == {"vector"}
    assert np.array_equal(result.output, clean.output)
