"""Session/KernelService submission surface: futures, lifecycles, backends."""

import threading

import numpy as np
import pytest

from repro.apps import Adam, XSBench
from repro.errors import CancelledError, SchedulerError, ServeError, SessionClosed
from repro.gpu.launch import LaunchConfig
from repro.resilience import ResilientPool
from repro.sched import DevicePool
from repro.serve import KernelService, ServeFuture, TenantQuota

pytestmark = [pytest.mark.serve, pytest.mark.sched]


def _noop_kernel(ctx, n):
    pass


class TestSubmission:
    def test_submit_call_resolves_on_a_pool_worker(self):
        with KernelService(devices=2) as service:
            session = service.session("t0")
            future = session.submit_call(
                lambda device: device.ordinal, label="whoami"
            )
            ordinal = future.result(timeout=30)
            assert ordinal in {d.ordinal for d in service.devices}
            assert future.done() and future.latency_s >= 0.0

    def test_submit_kernel_returns_kernel_stats(self):
        with KernelService(devices=1) as service:
            session = service.session("t0")
            stats = session.run(
                _noop_kernel, LaunchConfig.create(1, 32), 32, timeout=30
            )
            assert stats.blocks_run >= 1

    def test_submit_app_matches_direct_run(self):
        from repro.gpu import get_device

        app = XSBench()
        params = app.functional_params()
        direct = app.run_single("ompx", params, get_device(0))
        with KernelService(devices=2) as service:
            served = service.session("t0").run_app(
                app, variant="ompx", params=params, timeout=60
            )
        assert served.checksum == direct.checksum
        np.testing.assert_array_equal(served.output, direct.output)

    def test_run_is_submit_plus_result(self):
        with KernelService(devices=1) as service:
            session = service.session("t0")
            future = session.submit_app(Adam(), variant="ompx")
            assert isinstance(future, ServeFuture)
            assert future.result(timeout=60).checksum == pytest.approx(
                session.run_app(Adam(), variant="ompx", timeout=60).checksum
            )


class TestSessionLifecycle:
    def test_closed_session_refuses_submissions(self):
        with KernelService(devices=1) as service:
            session = service.session("t0")
            session.close()
            with pytest.raises(SessionClosed, match="t0"):
                session.submit_call(lambda device: None)

    def test_session_is_a_context_manager(self):
        with KernelService(devices=1) as service:
            with service.session("t0") as session:
                assert session.tenant == "t0"
            with pytest.raises(SessionClosed):
                session.submit_call(lambda device: None)

    def test_same_tenant_sessions_share_state(self):
        with KernelService(devices=1) as service:
            first = service.session("shared")
            second = service.session("shared")
            first.run(_noop_kernel, LaunchConfig.create(1, 32), 32, timeout=30)
            assert second.stats["completed"] == 1

    def test_quota_conflict_is_refused(self):
        with KernelService(devices=1) as service:
            service.session("t0", quota=TenantQuota(max_queued=4))
            with pytest.raises(ServeError, match="already registered"):
                service.session("t0", quota=TenantQuota(max_queued=8))

    def test_closed_service_refuses_sessions_and_submissions(self):
        service = KernelService(devices=1)
        session = service.session("t0")
        service.close()
        with pytest.raises(ServeError, match="closed"):
            service.session("t1")
        with pytest.raises(ServeError, match="closed"):
            session.submit_call(lambda device: None)

    def test_close_drain_false_cancels_queued_futures(self):
        # One dispatcher, one slow job holding it, a queued job behind it.
        with KernelService(devices=1, dispatchers=1) as service:
            session = service.session("t0")
            import threading

            release = threading.Event()
            started = threading.Event()
            blocker = session.submit_call(
                lambda device: (started.set(), release.wait(10))[1],
                label="blocker",
            )
            assert started.wait(30)  # blocker holds the only dispatcher
            queued = session.submit_call(lambda device: 42, label="queued")
            # close() joins the dispatcher, so release the blocker from a
            # timer once the flush has already cancelled the queued job.
            threading.Timer(0.5, release.set).start()
            service.close(drain=False)
            with pytest.raises(CancelledError, match="service closed"):
                queued.result(timeout=30)
            assert blocker.result(timeout=30) is True


class TestFutureSemantics:
    def test_cancel_while_queued_skips_execution(self):
        import threading

        ran = []
        release = threading.Event()
        with KernelService(devices=1, dispatchers=1) as service:
            session = service.session("t0")
            blocker = session.submit_call(
                lambda device: release.wait(10), label="blocker"
            )
            victim = session.submit_call(
                lambda device: ran.append(1), label="victim"
            )
            assert victim.cancel()
            release.set()
            blocker.result(timeout=30)
            with pytest.raises(CancelledError):
                victim.result(timeout=30)
        assert not ran  # the dispatcher skipped the fully-cancelled request

    def test_result_timeout_raises_serve_error(self):
        import threading

        release = threading.Event()
        with KernelService(devices=1) as service:
            session = service.session("t0")
            future = session.submit_call(
                lambda device: release.wait(10), label="slow"
            )
            with pytest.raises(ServeError, match="did not complete"):
                future.result(timeout=0.05)
            release.set()
            assert future.result(timeout=30) is True


class TestExternalBackends:
    def test_external_device_pool_is_served_and_not_closed(self):
        with DevicePool(2) as pool:
            with KernelService(backend=pool) as service:
                value = service.session("t0").run(
                    _noop_kernel, LaunchConfig.create(1, 32), 32, timeout=30
                )
                assert value.blocks_run >= 1
            # the service did not close the external pool
            fence = pool.submit_call(lambda device: "alive")
            assert fence.result(timeout=30) == "alive"

    def test_external_resilient_pool_is_served(self):
        from repro.gpu import get_device

        app = Adam()
        params = app.functional_params()
        direct = app.run_single("ompx", params, get_device(0))
        with DevicePool(2) as pool:
            with ResilientPool(pool) as rpool:
                with KernelService(backend=rpool) as service:
                    result = service.session("t0").run_app(
                        app, variant="ompx", params=params, timeout=60
                    )
        assert result.checksum == direct.checksum

    def test_backend_refuses_the_axes_it_would_ignore(self):
        from repro.gpu.device import A100_SPEC

        def dispatchers():
            return {t for t in threading.enumerate()
                    if t.name.startswith("serve-dispatch")}

        before = dispatchers()
        with DevicePool(2) as pool:
            with pytest.raises(ServeError) as info:
                KernelService(backend=pool, devices=5, specs=[A100_SPEC],
                              cluster=3, resilient=True, verify=2, seed=7,
                              dispatchers=2)
        for axis in ("devices=5", "specs", "cluster=3", "resilient",
                     "verify=2", "seed=7"):
            assert axis in str(info.value)
        assert "dispatchers" not in str(info.value)
        assert dispatchers() <= before

    def test_non_pool_backend_is_refused(self):
        with pytest.raises(ServeError, match="PoolProtocol"):
            KernelService(backend=object())

    def test_resilient_verify2_on_one_device_is_refused(self):
        # The owned one-device pool cannot cross-check; the refusal must
        # also tear that pool down rather than leak its worker thread.
        def pool_workers():
            return {t for t in threading.enumerate()
                    if t.name.startswith("pool-dev")}

        before = pool_workers()
        with pytest.raises(SchedulerError, match="verify=2"):
            KernelService(devices=1, resilient=True, verify=2)
        assert pool_workers() <= before


class TestOwnedBackend:
    """The service builds its pool with repro.backend.open_pool, as run() does."""

    @pytest.mark.parametrize("argument", [
        "max_redispatch", "dispatchers", "global_max_queued",
    ])
    def test_refused_arguments_leave_no_pool_behind(self, argument):
        from repro.gpu.device import registered_devices

        def pool_workers():
            return {t for t in threading.enumerate()
                    if t.name.startswith("pool-dev")}

        threads, devices = pool_workers(), set(registered_devices())
        with pytest.raises(ServeError) as info:
            KernelService(devices=2, **{argument: 0})
        # ``info`` still holds the traceback here, so a pool left to
        # garbage collection would still be running.
        assert argument in str(info.value)
        assert pool_workers() <= threads
        assert set(registered_devices()) <= devices

    def test_fault_selectors_address_pool_indices(self):
        from repro import faults
        from repro.apps import run

        app = XSBench()
        params = app.functional_params()
        spec = "launch:kernel_fault@1 device=1"
        with faults.inject(spec, seed=1) as plan:
            expected = run(app, params=params, devices=2, resilient=True)
        assert plan.fired == 1
        with faults.inject(spec, seed=1) as plan:
            with KernelService(devices=2, resilient=True) as service:
                result = service.session("t0").run_app(
                    app, params=params, timeout=60
                )
        assert plan.fired == 1
        assert np.array_equal(result.output, expected.output)

    def test_specs_set_the_device_count(self):
        from repro.gpu.device import A100_SPEC, MI250_SPEC

        specs = [A100_SPEC, MI250_SPEC, A100_SPEC]
        with KernelService(specs=specs) as service:
            assert [d.spec for d in service.devices] == specs
        # An explicit count that disagrees with the specs is still refused.
        with pytest.raises(SchedulerError, match="disagrees"):
            KernelService(devices=2, specs=specs)
