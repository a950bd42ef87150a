"""Tenant isolation: one tenant's fault never leaks into another's future.

The serving tier's hard correctness requirement, tested over a *plain*
(non-resilient) backend because that is the adversarial case: a kernel
fault poisons the device context, and without the service's own healing
and transparent redispatch the next tenant's job would inherit the
sticky context or a reset-drained queue.

The acceptance shape: a fault plan targets exactly one tenant's kernel;
that tenant's futures raise (with the KernelFault in the chain), every
bystander's result is bit-identical to a fault-free run, and zero
cross-tenant recovery events land in any bystander's report.
"""

import numpy as np
import pytest

from repro import faults
from repro.apps import XSBench, run
from repro.errors import KernelFault, LaunchError, ReproError
from repro.gpu.launch import LaunchConfig, launch_kernel
from repro.resilience.policy import exception_chain
from repro.serve import KernelService
from repro.trace import tracing

pytestmark = [pytest.mark.serve, pytest.mark.sched, pytest.mark.faults]

N = 64


def victim_kernel(ctx, n):
    """The targeted kernel; the fault plan fires inside its launch."""


def bystander_kernel(ctx, out, n):
    i = ctx.global_id_x
    view = ctx.deref(out, n, np.float64)
    if i < n:
        view[i] = float(i)


def _bystander_job(device):
    """Upload-launch-download cycle a bystander tenant runs as a host call."""
    out = np.zeros(N, dtype=np.float64)
    ptr = device.allocator.malloc(out.nbytes)
    try:
        launch_kernel(
            LaunchConfig.create((N + 31) // 32, 32),
            bystander_kernel, (ptr, N), device,
        )
        device.allocator.memcpy_d2h(out, ptr)
    finally:
        device.allocator.free(ptr)
    return out


_EXPECTED = np.arange(N, dtype=np.float64)


class TestIsolationAcceptance:
    def test_victim_fails_bystanders_bit_identical(self):
        # 1 victim + 6 bystander submissions race over a 2-device plain
        # pool while a fault plan fires inside the victim's kernel only.
        bystanders = 6
        with tracing() as tracer:
            with KernelService(devices=2, resilient=False) as service:
                bad = service.session("bad")
                goods = [
                    service.session(f"good{i}") for i in range(bystanders)
                ]
                with faults.inject(
                    "launch:kernel_fault,kernel=victim_kernel", seed=3
                ) as plan:
                    plan.bind_devices(
                        {i: d.ordinal
                         for i, d in enumerate(service.devices)}
                    )
                    victim = bad.submit(
                        victim_kernel, LaunchConfig.create(1, 32), N,
                        label="victim",
                    )
                    futures = [
                        g.submit_call(_bystander_job, label=f"by{i}")
                        for i, g in enumerate(goods)
                    ]
                    with pytest.raises(ReproError) as info:
                        victim.result(timeout=60)
                    results = [f.result(timeout=60) for f in futures]
                assert plan.fired >= 1, plan.summary()

                # The victim's failure is its own kernel fault.
                chain = list(exception_chain(info.value))
                assert any(isinstance(e, KernelFault) for e in chain)
                assert victim.tenant == "bad"

                # Bystanders: bit-identical results, no recovery events.
                for out in results:
                    np.testing.assert_array_equal(out, _EXPECTED)
                for good in goods:
                    assert good.report.total == 0, good.report.summary()
                    assert good.stats["failed"] == 0
                    assert good.stats["completed"] == 1

                # The victim's own report holds the heal (device reset).
                assert bad.report["resets"] >= 1
                counters = tracer.counters
            assert counters["serve_failed[bad]"] == 1
            assert counters.get("serve_failed[good0]", 0) == 0
            assert counters["serve_completed"] == bystanders

    def test_poisoned_device_is_healed_before_reuse(self):
        # After the victim's fault, the same (only) device must serve
        # the next tenant cleanly: the service reset it during the heal.
        with KernelService(devices=1, dispatchers=1) as service:
            bad = service.session("bad")
            good = service.session("good")
            with faults.inject(
                "launch:kernel_fault,kernel=victim_kernel", seed=3
            ) as plan:
                plan.bind_devices(
                    {i: d.ordinal for i, d in enumerate(service.devices)}
                )
                with pytest.raises(ReproError):
                    bad.run(
                        victim_kernel, LaunchConfig.create(1, 32), N,
                        timeout=60,
                    )
                assert plan.fired >= 1
            out = good.submit_call(
                _bystander_job, label="after-heal"
            ).result(timeout=60)
            np.testing.assert_array_equal(out, _EXPECTED)
            assert not any(d.is_poisoned for d in service.devices)
            assert good.report.total == 0
            assert bad.report["resets"] >= 1

    def test_resilient_backend_absorbs_the_fault_entirely(self):
        # Over a resilient backend even the *victim* succeeds: the
        # backend retries after healing, and the retry is attributed to
        # the victim's own report — bystanders still see nothing.
        with KernelService(devices=2, resilient=True, seed=3) as service:
            bad = service.session("bad")
            good = service.session("good")
            with faults.inject(
                "launch:kernel_fault@1,kernel=victim_kernel", seed=3
            ) as plan:
                plan.bind_devices(
                    {i: d.ordinal for i, d in enumerate(service.devices)}
                )
                stats = bad.run(
                    victim_kernel, LaunchConfig.create(1, 32), N,
                    timeout=120,
                )
                assert plan.fired == 1, plan.summary()
            assert stats.blocks_run >= 1
            out = good.submit_call(
                _bystander_job, label="clean"
            ).result(timeout=60)
            np.testing.assert_array_equal(out, _EXPECTED)
            assert bad.report["retries"] >= 1
            assert good.report.total == 0


@pytest.mark.cluster
class TestPlainCluster:
    """A plain cluster's devices live in its workers: the heal runs there."""

    def test_tenant_fault_is_healed_inside_the_worker(self):
        app = XSBench()
        expected = run(app).output
        with faults.inject("launch:kernel_fault@1 device=0", seed=3):
            with KernelService(cluster=2) as service:
                session = service.session("t")
                with pytest.raises(LaunchError):
                    session.submit_app(app, coalesce=False).result(timeout=120)
                for _ in range(3):
                    result = session.submit_app(app, coalesce=False).result(timeout=120)
                    assert np.array_equal(result.output, expected)
                assert session.report["resets"] == 1
                assert service.stats()["service"]["resilient"] is False

    def test_resilient_workers_make_a_resilient_backend(self):
        with KernelService(cluster=2, resilient=True) as service:
            assert service.stats()["service"]["resilient"] is True
