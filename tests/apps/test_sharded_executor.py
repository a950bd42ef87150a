"""BenchmarkApp.run_sharded is the one sharded executor.

Without a checkpoint session it submits one shard per pool device in a
single wave and touches no checkpoint state; with a session it runs
waves of ``session.every``.  Stencil-1D keeps its in-process halo
exchange only when neither a session nor a cluster is involved — a
checkpointed run takes the deep-ghost shards, which enable no peer
links, so it can run twice on one pool.
"""

import functools

import numpy as np
import pytest

from repro import trace as trace_mod
from repro.apps import Stencil1D, VersionLabel, XSBench, run
from repro.ckpt import CheckpointSession
from repro.gpu import get_device
from repro.sched import DevicePool

pytestmark = [pytest.mark.sched]


class _RecordingPool:
    """Forwards to a pool, logging every submission and every wait."""

    def __init__(self, pool, *, is_cluster=False) -> None:
        self.pool = pool
        self.is_cluster = is_cluster
        self.events = []
        self.jobs = []

    def __getattr__(self, name):
        return getattr(self.pool, name)

    def __len__(self) -> int:
        return len(self.pool)

    def submit_call(self, fn, *, device=None, label=None, shard=False):
        self.events.append("submit")
        self.jobs.append((fn, device, label, shard))
        return _RecordingFuture(
            self.pool.submit_call(fn, device=device, label=label, shard=shard),
            self.events,
        )


class _RecordingFuture:
    def __init__(self, future, events) -> None:
        self._future = future
        self._events = events

    def __getattr__(self, name):
        return getattr(self._future, name)

    def wait(self, timeout=None):
        self._events.append("wait")
        return self._future.wait(timeout)


def _single(app, params):
    return app.run_single(VersionLabel.OMPX, params, get_device(0))


def _traced(fn):
    tracer = trace_mod.enable()
    try:
        return fn(), tracer
    finally:
        trace_mod.disable()


def test_no_session_runs_one_wave_of_len_pool_shards():
    app = XSBench()
    params = app.functional_params()
    with DevicePool(3) as pool:
        recorder = _RecordingPool(pool)
        result, tracer = _traced(
            lambda: app.run_sharded(VersionLabel.OMPX, params, recorder)
        )
    assert recorder.events == ["submit"] * 3 + ["wait"] * 3
    for i, (fn, device, label, shard) in enumerate(recorder.jobs):
        # The job shape a cluster pickles: run_single bound to one shard.
        assert isinstance(fn, functools.partial)
        assert fn.func == app.run_single
        assert fn.args[0] == VersionLabel.OMPX
        assert (device, label, shard) == (None, f"XSBench:shard{i}", True)
    assert not any(name.startswith("ckpt_") for name in tracer.counters)
    assert np.array_equal(result.output, _single(app, params).output)


def test_a_session_runs_waves_of_every_with_a_commit_each(tmp_path):
    app = XSBench()
    params = app.functional_params()
    session = CheckpointSession(str(tmp_path), every=2)
    with DevicePool(2) as pool:
        recorder = _RecordingPool(pool)
        result, tracer = _traced(
            lambda: app.run_sharded(VersionLabel.OMPX, params, recorder, session)
        )
    # max(len(pool), 4) = 4 shards, in two waves of two.
    assert recorder.events == ["submit", "submit", "wait", "wait"] * 2
    assert session.stats["writes"] == 2
    assert tracer.counters["ckpt_steps_executed"] == 4
    assert np.array_equal(result.output, _single(app, params).output)


def _peer_links(pool):
    return [
        (a.ordinal, b.ordinal)
        for a in pool.devices for b in pool.devices
        if a is not b and a.has_peer_access(b)
    ]


def test_checkpointed_stencil_takes_the_deep_ghost_path_twice_on_one_pool(tmp_path):
    app = Stencil1D()
    expected = _single(app, app.functional_params())
    with DevicePool(2) as pool:
        for attempt in range(2):
            result = run(app, pool=pool, checkpoint_dir=str(tmp_path / str(attempt)))
            assert np.array_equal(result.output, expected.output)
            assert result.checkpoint.stats["writes"] >= 1
            assert _peer_links(pool) == []


def test_stencil_on_a_cluster_pool_submits_self_contained_shards():
    app = Stencil1D()
    params = app.functional_params()
    with DevicePool(2) as pool:
        recorder = _RecordingPool(pool, is_cluster=True)
        result = app.run_sharded(VersionLabel.OMPX, params, recorder)
        assert _peer_links(pool) == []
    labels = [label for _, _, label, _ in recorder.jobs]
    assert labels == ["Stencil 1D:shard0", "Stencil 1D:shard1"]
    assert np.array_equal(result.output, _single(app, params).output)


def test_stencil_in_process_keeps_the_halo_exchange():
    app = Stencil1D()
    params = app.functional_params()
    with DevicePool(2) as pool:
        recorder = _RecordingPool(pool)
        result = app.run_sharded(VersionLabel.OMPX, params, recorder)
        assert sorted(_peer_links(pool)) == sorted(
            [(pool.devices[0].ordinal, pool.devices[1].ordinal),
             (pool.devices[1].ordinal, pool.devices[0].ordinal)]
        )
    labels = [label for _, _, label, _ in recorder.jobs]
    assert labels[:2] == ["stencil-setup0", "stencil-setup1"]
    assert np.array_equal(result.output, _single(app, params).output)
