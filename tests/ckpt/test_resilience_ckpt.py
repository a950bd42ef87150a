"""Checkpoint x resilience: retries resume from the last snapshot."""

import numpy as np
import pytest

from repro import faults
from repro.apps import Stencil1D, XSBench, run
from repro.ckpt import CheckpointSession
from repro.errors import GpuError
from repro.gpu.device import get_device
from repro.resilience import RecoveryReport, ResilientPool
from repro.sched import DevicePool

pytestmark = [pytest.mark.ckpt, pytest.mark.resilience]


def _single(app, params):
    return app.run_single("ompx", params, get_device(0))


def test_retry_resumes_from_last_checkpoint_not_step_zero(tmp_path):
    from repro import trace as trace_mod

    app = XSBench()
    params = app.functional_params()
    expected = _single(app, params)

    # Crash the run (with a *retryable* error) right after snapshot #2.
    state = {"commits": 0, "crashed": False}

    def hook(step, path):
        state["commits"] += 1
        if state["commits"] == 2 and not state["crashed"]:
            state["crashed"] = True
            raise GpuError("injected supervisor failure after snapshot 2")

    session = CheckpointSession(str(tmp_path), on_commit=hook)
    report = RecoveryReport()
    tracer = trace_mod.enable()
    try:
        with DevicePool(2) as pool:
            with ResilientPool(pool, report=report) as rpool:
                result = rpool.run_to_completion(
                    lambda p: app.run_sharded(
                        "ompx", params, p, session, shards=4
                    ),
                    label="xsbench:ckpt",
                )
    finally:
        trace_mod.disable()

    assert np.array_equal(result.output, expected.output)
    assert report["runs_reexecuted"] == 1
    # The retry restored the 2 committed shards instead of recomputing
    # them: 2 executed before the crash + 2 after = 4 total, not 6.
    assert session.stats["steps_skipped"] == 2
    assert tracer.counters["ckpt_steps_executed"] == 4
    assert tracer.counters["ckpt_resumes"] == 1


def test_run_composes_checkpoint_with_resilient_shard_fault(tmp_path):
    app = XSBench()
    params = app.functional_params()
    expected = _single(app, params)
    with faults.inject("launch:kernel_fault@1 device=1", seed=11) as plan:
        result = run(
            app,
            devices=3,
            resilient=True,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=2,
        )
        assert plan.fired == 1, plan.summary()
    assert np.array_equal(result.output, expected.output)
    assert result.checkpoint.stats["writes"] >= 1


def test_checkpoint_write_fault_does_not_fail_the_run(tmp_path):
    app = Stencil1D()
    params = app.functional_params()
    expected = _single(app, params)
    with faults.inject("checkpoint_write:error@1;seed=7") as plan:
        with pytest.warns(RuntimeWarning, match="checkpoint write"):
            result = run(app, devices=2, checkpoint_dir=str(tmp_path))
        assert plan.fired == 1, plan.summary()
    assert np.array_equal(result.output, expected.output)
    assert result.checkpoint.stats["write_failures"] == 1
    # The later cadence points still published a resumable chain.
    assert result.checkpoint.stats["writes"] >= 1
