"""Checkpointed run_sharded: bit-identical resume, wave cadence, identity rules."""

import numpy as np
import pytest

from repro.apps import PORTFOLIO_APPS, Stencil1D, XSBench, run
from repro.ckpt import CheckpointSession
from repro.errors import AppError, CheckpointError
from repro.gpu.device import get_device
from repro.sched import DevicePool

pytestmark = pytest.mark.ckpt


class _Boom(Exception):
    """Deliberate crash injected through the on_commit hook."""


def _single(app, params):
    return app.run_single("ompx", params, get_device(0))


def _crash_after(n):
    """An on_commit hook that raises once ``n`` snapshots are published."""
    count = {"commits": 0}

    def hook(step, path):
        count["commits"] += 1
        if count["commits"] >= n:
            raise _Boom(f"crash after snapshot #{n}")

    return hook


class TestBitIdentity:
    @pytest.mark.parametrize("app_cls", PORTFOLIO_APPS, ids=lambda c: c.name)
    def test_checkpointed_matches_single_device(self, app_cls, tmp_path):
        app = app_cls()
        params = app.functional_params()
        expected = _single(app, params)
        session = CheckpointSession(str(tmp_path), every=2)
        with DevicePool(2) as pool:
            result = app.run_sharded("ompx", params, pool, session)
        assert np.array_equal(result.output, expected.output)
        assert result.checksum == expected.checksum
        assert session.stats["writes"] >= 1

    def test_resumed_run_is_bit_identical(self, tmp_path):
        app = Stencil1D()
        params = app.functional_params()
        expected = _single(app, params)
        # Crash after the first snapshot of a 4-shard, every=1 run.
        crashed = CheckpointSession(str(tmp_path), on_commit=_crash_after(1))
        with DevicePool(2) as pool:
            with pytest.raises(_Boom):
                app.run_sharded("ompx", params, pool, crashed, shards=4)
        # A fresh process resumes and completes the remaining shards.
        session = CheckpointSession(str(tmp_path))
        with DevicePool(2) as pool:
            result = app.run_sharded(
                "ompx", params, pool, session, resume=True
            )
        assert np.array_equal(result.output, expected.output)
        assert session.stats["resumed_step"] == 1
        assert session.stats["steps_skipped"] == 1


class TestResumeSemantics:
    def test_resume_executes_only_the_unfinished_tail(self, tmp_path):
        from repro import trace as trace_mod

        app = XSBench()
        params = app.functional_params()
        crashed = CheckpointSession(str(tmp_path), on_commit=_crash_after(2))
        with DevicePool(2) as pool:
            with pytest.raises(_Boom):
                app.run_sharded("ompx", params, pool, crashed, shards=4)
        tracer = trace_mod.enable()
        try:
            session = CheckpointSession(str(tmp_path))
            with DevicePool(2) as pool:
                app.run_sharded("ompx", params, pool, session, resume=True)
        finally:
            trace_mod.disable()
        assert session.stats["steps_skipped"] == 2
        assert tracer.counters["ckpt_steps_executed"] == 2
        assert tracer.counters["ckpt_resumes"] == 1

    def test_recorded_shard_count_wins_on_resume(self, tmp_path):
        app = Stencil1D()
        params = app.functional_params()
        expected = _single(app, params)
        crashed = CheckpointSession(str(tmp_path), on_commit=_crash_after(1))
        with DevicePool(2) as pool:
            with pytest.raises(_Boom):
                app.run_sharded("ompx", params, pool, crashed, shards=6)
        # Resume with a *different* pool width and no explicit shards=;
        # the chain's recorded nshards=6 must win or the restored shard
        # outputs would be orphaned.
        session = CheckpointSession(str(tmp_path))
        with DevicePool(3) as pool:
            result = app.run_sharded(
                "ompx", params, pool, session, resume=True
            )
        assert np.array_equal(result.output, expected.output)

    def test_resume_of_a_finished_run_skips_everything(self, tmp_path):
        app = Stencil1D()
        params = app.functional_params()
        expected = _single(app, params)
        first = CheckpointSession(str(tmp_path))
        with DevicePool(2) as pool:
            app.run_sharded("ompx", params, pool, first, shards=4)
        session = CheckpointSession(str(tmp_path))
        with DevicePool(2) as pool:
            result = app.run_sharded(
                "ompx", params, pool, session, resume=True
            )
        assert np.array_equal(result.output, expected.output)
        assert session.stats["steps_skipped"] == 4
        assert session.stats["resumed_step"] == 4

    def test_in_process_reentry_resumes_via_began(self, tmp_path):
        """A retry on the SAME session (resilient run_to_completion) is a
        continuation: the second call restores the chain even though it
        passes resume=False."""
        app = Stencil1D()
        params = app.functional_params()
        expected = _single(app, params)
        session = CheckpointSession(str(tmp_path), on_commit=_crash_after(2))
        with DevicePool(2) as pool:
            with pytest.raises(_Boom):
                app.run_sharded("ompx", params, pool, session, shards=4)
            session.on_commit = None
            result = app.run_sharded("ompx", params, pool, session, shards=4)
        assert np.array_equal(result.output, expected.output)
        assert session.stats["steps_skipped"] == 2


class TestIdentity:
    def test_resume_under_different_params_is_refused(self, tmp_path):
        app = Stencil1D()
        params = dict(app.functional_params())
        first = CheckpointSession(str(tmp_path))
        with DevicePool(2) as pool:
            app.run_sharded("ompx", params, pool, first, shards=4)
        other = dict(params)
        other["steps"] = int(other.get("steps", 1)) + 1
        session = CheckpointSession(str(tmp_path))
        with DevicePool(2) as pool:
            with pytest.raises(CheckpointError, match="different run"):
                app.run_sharded(
                    "ompx", other, pool, session, resume=True
                )

    def test_omp_variant_cannot_be_checkpointed(self, tmp_path):
        app = Stencil1D()
        session = CheckpointSession(str(tmp_path))
        with DevicePool(2) as pool:
            with pytest.raises(AppError, match="cannot be sharded"):
                app.run_sharded(
                    "omp", app.functional_params(), pool, session
                )


class TestRunIntegration:
    def test_run_with_checkpoint_dir_attaches_the_session(self, tmp_path):
        app = Stencil1D()
        expected = _single(app, app.functional_params())
        result = run(
            app, devices=2, checkpoint_dir=str(tmp_path), checkpoint_every=2
        )
        assert np.array_equal(result.output, expected.output)
        assert result.checkpoint.stats["writes"] >= 1

    def test_run_resume_requires_checkpoint_dir(self):
        with pytest.raises(AppError, match="requires checkpoint_dir"):
            run(Stencil1D(), resume=True)
