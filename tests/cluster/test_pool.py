"""ClusterPool basics: spawn, dispatch, placement, lifecycle, degradation.

One module-scoped 2-worker pool serves the cheap roundtrip tests (spawn
costs ~0.5 s; respawning per test would dominate the suite); tests that
kill, close or monkeypatch build their own.
"""

import functools

import numpy as np
import pytest

from repro.backend import open_pool
from repro.cluster import ClusterFuture, ClusterPool, DeviceProxy
from repro.errors import CancelledError, ClusterError, GpuError
from repro.gpu import LaunchConfig
from repro.sched import DevicePool

from .helpers import (
    failing_probe,
    ordinal_probe,
    pid_probe,
    slow_probe,
    spec_probe,
    sum_on_device,
    touch_kernel,
)

pytestmark = [pytest.mark.cluster]


@pytest.fixture(scope="module")
def pool():
    with ClusterPool(2, heartbeat_s=0.1, deadline_s=2.0) as cpool:
        yield cpool


class TestRoundtrip:
    def test_submit_call_returns_the_workers_answer(self, pool):
        future = pool.submit_call(spec_probe, label="probe")
        assert "A100" in future.result(timeout=30)

    def test_jobs_really_run_in_separate_processes(self, pool):
        pids = {
            pool.submit_call(pid_probe, device=proxy).result(timeout=30)
            for proxy in pool.devices
        }
        import os

        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_partial_payloads_carry_their_data(self, pool):
        data = np.arange(10, dtype=np.float64)
        bound = functools.partial(sum_on_device, data=data)
        assert pool.submit_call(bound).result(timeout=30) == 45.0

    def test_kernel_ships_by_reference(self, pool):
        future = pool.submit(
            touch_kernel, LaunchConfig.create(1, 32), 16, label="touch"
        )
        future.result(timeout=30)
        assert future.done()

    def test_worker_side_errors_travel_back_pickled(self, pool):
        future = pool.submit_call(failing_probe, label="boom")
        with pytest.raises(GpuError, match="deliberate worker-side"):
            future.result(timeout=30)

    def test_synchronize_fences_every_worker(self, pool):
        futures = [pool.submit_call(ordinal_probe) for _ in range(4)]
        pool.synchronize()
        assert all(f.done() for f in futures)


class TestPlacement:
    def test_devices_are_proxies_with_super_device_indices(self, pool):
        assert [p.ordinal for p in pool.devices] == [0, 1]
        assert all(isinstance(p, DeviceProxy) for p in pool.devices)
        assert {p.rank for p in pool.devices} == {0, 1}
        assert len(pool) == 2

    def test_pinning_by_proxy_and_by_index_agree(self, pool):
        by_proxy = pool.submit_call(
            pid_probe, device=pool.devices[1]
        ).result(timeout=30)
        by_index = pool.submit_call(pid_probe, device=1).result(timeout=30)
        assert by_proxy == by_index

    def test_unpinned_jobs_round_robin_over_workers(self, pool):
        pids = [
            pool.submit_call(pid_probe).result(timeout=30) for _ in range(4)
        ]
        assert len(set(pids)) == 2

    def test_out_of_range_pin_is_rejected(self, pool):
        with pytest.raises(ClusterError, match="device"):
            pool.submit_call(ordinal_probe, device=99)

    def test_futures_are_cluster_futures_with_attempts(self, pool):
        future = pool.submit_call(ordinal_probe)
        assert isinstance(future, ClusterFuture)
        future.result(timeout=30)
        assert future.attempts == 1


class TestArgumentPortability:
    def test_device_pointer_arguments_are_rejected(self, pool):
        with DevicePool(1) as local:
            device = local.devices[0]
            ptr = device.allocator.malloc(64)
            try:
                with pytest.raises(ClusterError, match="DevicePointer"):
                    pool.submit(
                        touch_kernel, LaunchConfig.create(1, 32), ptr, 8
                    )
                bound = functools.partial(sum_on_device, data=ptr)
                with pytest.raises(ClusterError, match="DevicePointer"):
                    pool.submit_call(bound)
            finally:
                device.allocator.free(ptr)

    def test_unpicklable_payloads_fail_with_cluster_error(self, pool):
        with pytest.raises(ClusterError):
            pool.submit_call(lambda device: None)


class TestLifecycle:
    def test_drain_close_finishes_queued_work(self):
        pool = ClusterPool(1, heartbeat_s=0.1)
        futures = [pool.submit_call(ordinal_probe) for _ in range(3)]
        pool.close(drain=True)
        # Worker-local device ordinals depend on registry allocation
        # order inside the worker process; drain semantics only promise
        # every queued job completed on the one worker.
        results = [f.result(timeout=5) for f in futures]
        assert len(set(results)) == 1
        assert all(isinstance(r, int) for r in results)

    def test_abandon_close_fails_unresolved_futures(self):
        pool = ClusterPool(1, heartbeat_s=0.1)
        futures = [
            pool.submit_call(functools.partial(slow_probe, seconds=0.5))
            for _ in range(3)
        ]
        pool.close(drain=False)
        for future in futures:
            assert future.done()
            exc = future.exception()
            if exc is not None:
                assert isinstance(exc, (ClusterError, CancelledError))

    def test_submit_after_close_is_refused(self):
        pool = ClusterPool(1, heartbeat_s=0.1)
        pool.close()
        with pytest.raises(ClusterError, match="closed"):
            pool.submit_call(ordinal_probe)

    def test_worker_stats_count_completed_jobs(self):
        with ClusterPool(1, heartbeat_s=0.1) as pool:
            for _ in range(3):
                pool.submit_call(ordinal_probe).result(timeout=30)
            pool.synchronize()
        stats = pool.worker_stats()
        assert stats and stats[0]["jobs_done"] >= 3


class TestValidation:
    def test_zero_workers_is_a_misuse_error(self):
        with pytest.raises(ClusterError):
            ClusterPool(0)

    def test_deadline_must_exceed_heartbeat(self):
        with pytest.raises(ClusterError, match="deadline"):
            ClusterPool(1, heartbeat_s=1.0, deadline_s=0.5)

    def test_misuse_errors_are_not_degradable(self):
        with pytest.raises(ClusterError):
            with open_pool(cluster=2, specs=[]):
                pass

    def test_resilient_verify2_needs_two_devices_per_worker(self, monkeypatch):
        # verify=2 cross-checks inside a worker's own pool; one device
        # per worker would skip it silently.  Refused in the parent,
        # before any worker is spawned, and never degraded around.
        spawned = []
        monkeypatch.setattr(
            ClusterPool, "_start_worker",
            lambda self, handle: spawned.append(handle.rank),
        )
        with pytest.raises(ClusterError, match="verify=2") as info:
            ClusterPool(2, resilient=True, verify=2)
        assert not getattr(info.value, "degradable", False)
        with pytest.raises(ClusterError, match="verify=2"):
            with open_pool(cluster=2, resilient=True, verify=2):
                pass
        assert spawned == []


class TestGracefulDegradation:
    def test_spawn_failure_degrades_to_in_process_pool(self, monkeypatch):
        def refuse(self, rank):
            raise ClusterError("spawn refused by test")

        monkeypatch.setattr(ClusterPool, "_start_worker", refuse)
        monkeypatch.setattr(
            ClusterPool,
            "__init__",
            _degradable_init,
            raising=True,
        )
        with pytest.warns(RuntimeWarning, match="degraded"):
            with open_pool(cluster=3) as fallback:
                assert isinstance(fallback, DevicePool)
                assert len(fallback) == 3

    def test_degradation_records_a_recovery_event(self, monkeypatch):
        from repro.resilience import RecoveryReport

        monkeypatch.setattr(
            ClusterPool, "__init__", _degradable_init, raising=True
        )
        report = RecoveryReport()
        with pytest.warns(RuntimeWarning):
            with open_pool(cluster=2, report=report):
                pass
        assert report["degraded"] == 1

    def test_degraded_resilient_run_still_heals(self, monkeypatch):
        # The fallback keeps resilient=True: it is the same stack
        # run(devices=2, resilient=True) builds, so the fault is healed.
        from repro import faults
        from repro.apps import XSBench, run
        from repro.resilience import RecoveryReport

        app = XSBench()
        single = run(app)
        monkeypatch.setattr(
            ClusterPool, "__init__", _degradable_init, raising=True
        )
        report = RecoveryReport()
        with faults.inject("launch:kernel_fault@1 device=1", seed=1):
            with pytest.warns(RuntimeWarning, match="degraded"):
                result = run(app, cluster=2, resilient=True, report=report)
        assert np.array_equal(result.output, single.output)
        assert report["degraded"] == 1
        assert report["retries"] >= 1


def _degradable_init(self, workers, **kwargs):
    exc = ClusterError("no worker could be spawned (test)")
    exc.degradable = True
    raise exc
