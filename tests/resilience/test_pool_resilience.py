"""ResilientPool: retries, quarantine/readmit/retire, verify=2, run loops.

Failures are injected by raising the library's own error classes from
submitted callables — the same exception types the GPU layer produces —
so every test exercises the real classification, healing and re-placement
paths without depending on app-level workloads (test_chaos.py covers
those end to end).
"""

import threading

import numpy as np
import pytest

from repro.errors import (
    GpuError,
    KernelFault,
    MemcheckError,
    SchedulerError,
)
from repro.gpu import LaunchConfig
from repro.resilience import (
    HEALTHY,
    QUARANTINED,
    RETIRED,
    SUSPECT,
    ResilientPool,
    RetryPolicy,
)
from repro.sched import DevicePool, gather

pytestmark = [pytest.mark.resilience]


@pytest.fixture
def pool():
    with DevicePool(2) as p:
        yield p


def _flaky(fail_times, make_exc):
    """A job that fails its first ``fail_times`` calls, then succeeds."""
    calls = {"n": 0}

    def fn(device):
        calls["n"] += 1
        if calls["n"] <= fail_times:
            raise make_exc()
        return f"ok after {calls['n']}"

    return fn, calls


class TestRetries:
    def test_clean_job_passes_through(self, pool):
        with ResilientPool(pool) as rpool:
            future = rpool.submit_call(lambda dev: dev.ordinal, label="clean")
            assert future.result(timeout=10) in {d.ordinal for d in pool.devices}
            assert future.attempts == 1
            assert rpool.report.total == 0
            assert "clean run" in rpool.report.summary()

    def test_transient_failure_marks_suspect_and_retries(self, pool):
        fn, calls = _flaky(1, lambda: GpuError("synthetic transient"))
        with ResilientPool(pool, seed=1) as rpool:
            future = rpool.submit_call(fn, label="transient")
            assert future.result(timeout=10) == "ok after 2"
            assert future.attempts == 2
            assert rpool.report["retries"] == 1
            assert rpool.report["quarantines"] == 0
            # One failure is evidence, not a verdict: SUSPECT, still placeable.
            assert SUSPECT in rpool.health.snapshot().values()
            assert len(rpool.devices) == 2

    def test_context_fault_quarantines_resets_and_readmits(self, pool):
        fn, _ = _flaky(1, lambda: KernelFault("injected illegal access"))
        with ResilientPool(pool, seed=1) as rpool:
            future = rpool.submit_call(fn, label="faulting")
            assert future.result(timeout=10) == "ok after 2"
            report = rpool.report
            assert report["quarantines"] == 1
            assert report["resets"] == 1
            assert report["readmissions"] == 1  # canary passed
            # The full cycle ends with every device back in service.
            assert set(rpool.health.snapshot().values()) == {HEALTHY}

    def test_poisoned_device_is_actually_reset(self, pool):
        calls = {"n": 0}

        def poisoning(device):
            calls["n"] += 1
            if calls["n"] == 1:
                fault = KernelFault("poison once")
                device.poison(fault)
                raise fault
            # The retry landed on the same (pinned) device with the
            # sticky context cleared by the heal's reset.
            assert not device.is_poisoned
            return "recovered"

        with ResilientPool(pool, seed=1) as rpool:
            # Pin so the retry returns to the poisoned device: success
            # proves the heal really cleared the sticky context.
            future = rpool.submit_call(poisoning, device=0, label="poisoner")
            assert future.result(timeout=10) == "recovered"
        assert not any(d.is_poisoned for d in pool.devices)

    def test_memcheck_violation_is_never_retried(self, pool):
        fn, calls = _flaky(99, lambda: MemcheckError("oob store"))
        with ResilientPool(pool) as rpool:
            future = rpool.submit_call(fn, label="buggy-kernel")
            with pytest.raises(MemcheckError):
                future.result(timeout=10)
            assert future.attempts == 1
            assert rpool.report["retries"] == 0

    def test_retry_budget_is_finite(self, pool):
        fn, calls = _flaky(99, lambda: GpuError("always failing"))
        policy = RetryPolicy(max_attempts=2)
        with ResilientPool(pool, policy=policy) as rpool:
            future = rpool.submit_call(fn, label="doomed")
            with pytest.raises(GpuError, match="always failing"):
                future.result(timeout=10)
            assert future.attempts == 2
            assert rpool.report["retries"] == 1

    def test_shard_retries_count_reexecuted_shards(self, pool):
        fn, _ = _flaky(1, lambda: GpuError("transient"))
        with ResilientPool(pool, seed=1) as rpool:
            future = rpool.submit_call(fn, label="app:shard0", shard=True)
            future.result(timeout=10)
            assert rpool.report["reexecuted_shards"] == 1

    def test_gather_compatible(self, pool):
        with ResilientPool(pool) as rpool:
            futures = [
                rpool.submit_call(lambda dev, i=i: i * i, label=f"g{i}")
                for i in range(4)
            ]
            assert gather(futures) == [0, 1, 4, 9]

    def test_submit_kernel_api(self, pool):
        def write_one(ctx, out, n):
            i = ctx.flat_thread_id
            view = ctx.deref(out, n, np.float64)
            if i < n:
                view[i] = 1.0

        device = pool.devices[0]
        n = 16
        ptr = device.allocator.malloc(n * 8)
        try:
            with ResilientPool(pool) as rpool:
                stats = rpool.submit(
                    write_one, LaunchConfig.create(1, n), ptr, n, device=0
                ).result(timeout=10)
            assert stats is not None
            out = np.zeros(n)
            device.allocator.memcpy_d2h(out, ptr)
            np.testing.assert_array_equal(out, np.ones(n))
        finally:
            device.allocator.free(ptr)


class TestRetirement:
    def test_failed_canary_retires_the_device(self, pool, monkeypatch):
        def broken_canary(device):
            raise GpuError(f"canary mismatch on device {device.ordinal}")

        monkeypatch.setattr(
            "repro.resilience.pool._canary_probe", broken_canary
        )
        fn, _ = _flaky(1, lambda: KernelFault("fatal"))
        with ResilientPool(pool, seed=1) as rpool:
            future = rpool.submit_call(fn, label="victim")
            # Unpinned: the retry relocates to the surviving device.
            assert future.result(timeout=10) == "ok after 2"
            assert RETIRED in rpool.health.snapshot().values()
            assert rpool.report["retirements"] == 1
            assert len(rpool) == 1
            assert len(rpool.devices) == 1

    def test_pinned_job_on_retired_device_fails_fast(self, pool, monkeypatch):
        monkeypatch.setattr(
            "repro.resilience.pool._canary_probe",
            lambda device: (_ for _ in ()).throw(GpuError("dead")),
        )
        fn, calls = _flaky(99, lambda: KernelFault("fatal"))
        with ResilientPool(pool, seed=1) as rpool:
            future = rpool.submit_call(fn, device=0, label="pinned")
            # Pinned jobs own device-resident state; with the device gone
            # the retry is meaningless, so the original failure surfaces.
            with pytest.raises(KernelFault, match="fatal"):
                future.result(timeout=10)
            assert calls["n"] == 1

    def test_no_devices_left_raises_scheduler_error(self, monkeypatch):
        monkeypatch.setattr(
            "repro.resilience.pool._canary_probe",
            lambda device: (_ for _ in ()).throw(GpuError("dead")),
        )
        fn, _ = _flaky(99, lambda: KernelFault("fatal"))
        with DevicePool(1) as pool:
            with ResilientPool(pool, seed=1) as rpool:
                future = rpool.submit_call(fn, label="doomed")
                with pytest.raises((SchedulerError, KernelFault)):
                    future.result(timeout=10)
                assert rpool.health.state(0) == RETIRED
                with pytest.raises(SchedulerError, match="no healthy devices"):
                    rpool.submit_call(lambda dev: None, label="after")


class TestVerify2:
    def test_matching_results_pass(self, pool):
        with ResilientPool(pool, verify=2) as rpool:
            future = rpool.submit_call(
                lambda dev: np.arange(8, dtype=np.float64), label="det"
            )
            np.testing.assert_array_equal(
                future.result(timeout=10), np.arange(8, dtype=np.float64)
            )
            assert rpool.report["verify_mismatches"] == 0

    def test_persistent_divergence_fails_loudly(self, pool):
        # A device-dependent answer can never cross-check: after
        # max_attempts the run fails instead of returning either value.
        with ResilientPool(pool, verify=2, seed=1) as rpool:
            future = rpool.submit_call(
                lambda dev: np.array([float(dev.ordinal)]), label="divergent"
            )
            with pytest.raises(GpuError, match="disagrees"):
                future.result(timeout=10)
            assert rpool.report["verify_mismatches"] >= 1

    def test_failing_shadow_heals_but_accepts_primary(self, pool):
        shadow_device = pool.devices[1]

        def fn(device):
            if device is shadow_device:
                raise GpuError("shadow-side transient")
            return np.ones(4)

        with ResilientPool(pool, verify=2, seed=1) as rpool:
            future = rpool.submit_call(fn, label="half-broken")
            np.testing.assert_array_equal(future.result(timeout=10), np.ones(4))
            assert rpool.report["verify_mismatches"] == 0
            assert rpool.health.state(1) == SUSPECT

    def test_list_results_are_cross_checked(self):
        # A list result digests like any other value: a device-dependent
        # one is caught instead of skipping the cross-check.
        from repro.backend import open_pool

        with open_pool(2, resilient=True, verify=2) as rpool:
            future = rpool.submit_call(
                lambda dev: [dev.ordinal], label="divergent-list"
            )
            with pytest.raises(GpuError, match="disagrees"):
                future.result(timeout=10)
            assert rpool.report["verify_mismatches"] == 3

    def test_opaque_results_skip_the_cross_check(self, pool):
        sentinel = object()
        with ResilientPool(pool, verify=2) as rpool:
            future = rpool.submit_call(lambda dev: sentinel, label="opaque")
            assert future.result(timeout=10) is sentinel

    def test_verify_value_is_validated(self, pool):
        with pytest.raises(SchedulerError, match="verify"):
            ResilientPool(pool, verify=3)

    def test_one_device_pool_is_refused_at_construction(self):
        # With no second device there is nothing to cross-check against;
        # accepting the pool would run verify=2 as a silent verify=1.
        with DevicePool(1) as single:
            with pytest.raises(SchedulerError, match="verify=2"):
                ResilientPool(single, verify=2)

    def test_run_refuses_verify2_on_one_device(self):
        from repro.apps import XSBench, run

        with pytest.raises(SchedulerError, match="verify=2"):
            run(XSBench(), resilient=True, verify=2)


class TestWatchdogIntegration:
    def test_hung_job_is_timed_out_and_retried_elsewhere(self, pool):
        release = threading.Event()
        calls = {"n": 0}

        def fn(device):
            calls["n"] += 1
            if calls["n"] == 1:
                release.wait(timeout=2.0)  # "hangs" well past the deadline
                return "slow-done"
            return "fast"

        with ResilientPool(
            pool, watchdog_deadline_s=0.15, heal_timeout_s=10, seed=1
        ) as rpool:
            future = rpool.submit_call(fn, label="hanger")
            assert future.result(timeout=30) == "fast"
            report = rpool.report
            assert report["watchdog_timeouts"] == 1
            assert report["quarantines"] == 1
            assert report["readmissions"] == 1
            # The hung worker eventually finished; its completion was
            # recorded as stale rather than overwriting the timeout.
            assert report["stale_completions"] == 1
        release.set()


class TestRunToCompletion:
    def test_reruns_after_healing_every_device(self, pool):
        calls = {"n": 0}

        def run(rpool):
            calls["n"] += 1
            if calls["n"] == 1:
                raise GpuError("mid-run failure outside the future layer")
            return "completed"

        with ResilientPool(pool, seed=1) as rpool:
            assert rpool.run_to_completion(run, label="stencil") == "completed"
            report = rpool.report
            assert report["runs_reexecuted"] == 1
            # Every surviving device was reset to reclaim leaked state,
            # and the whole decomposition counts as re-executed shards.
            assert report["resets"] == 2
            assert report["reexecuted_shards"] == 2

    def test_unretryable_failure_propagates_immediately(self, pool):
        calls = {"n": 0}

        def run(rpool):
            calls["n"] += 1
            raise MemcheckError("deterministic kernel bug")

        with ResilientPool(pool) as rpool:
            with pytest.raises(MemcheckError):
                rpool.run_to_completion(run)
            assert calls["n"] == 1
            assert rpool.report["runs_reexecuted"] == 0

    def test_retry_budget_applies_to_runs_too(self, pool):
        calls = {"n": 0}

        def run(rpool):
            calls["n"] += 1
            raise GpuError("never recovers")

        with ResilientPool(pool, policy=RetryPolicy(max_attempts=2)) as rpool:
            with pytest.raises(GpuError, match="never recovers"):
                rpool.run_to_completion(run)
            assert calls["n"] == 2

    def test_poisoned_devices_get_the_full_quarantine_cycle(self, pool):
        calls = {"n": 0}
        target = pool.devices[1]

        def run(rpool):
            calls["n"] += 1
            if calls["n"] == 1:
                fault = KernelFault("halo-loop fault")
                target.poison(fault)
                raise GpuError("stream sync failed") from fault
            assert not target.is_poisoned
            return "healed"

        with ResilientPool(pool, seed=1) as rpool:
            assert rpool.run_to_completion(run) == "healed"
            report = rpool.report
            assert report["quarantines"] == 1  # only the poisoned device
            assert report["readmissions"] == 1
            assert report["resets"] == 2  # both devices reset for the re-run
