"""PoolProtocol: the structural contract all three pool backends satisfy.

``isinstance(..., PoolProtocol)`` only proves the attributes exist
(runtime_checkable semantics); these tests pin the *signature-level*
agreement — same parameter names, kinds and defaults — so code written
against the protocol (``repro.apps.run``, the ``repro.serve``
dispatchers) can swap backends without keyword errors.  The
:class:`~repro.cluster.ClusterPool` joined the contract in 1.2, so the
parametrizations cover it alongside :class:`DevicePool` and
:class:`ResilientPool`.
"""

import inspect

import numpy as np
import pytest

from repro.cluster import ClusterPool
from repro.gpu import LaunchConfig
from repro.resilience import ResilientPool
from repro.sched import DevicePool, PoolProtocol

pytestmark = [pytest.mark.sched]


def fill_kernel(ctx, out, n):
    i = ctx.global_id_x
    view = ctx.deref(out, n, np.float64)
    if i < n:
        view[i] = float(i) + 1.0


def spec_name_probe(device):
    """Picklable submit_call payload: reports which spec served it."""
    return device.spec.name


class TestStructuralConformance:
    def test_device_pool_satisfies_the_protocol(self):
        with DevicePool(1) as pool:
            assert isinstance(pool, PoolProtocol)

    def test_resilient_pool_satisfies_the_protocol(self):
        with DevicePool(1) as pool:
            with ResilientPool(pool) as rpool:
                assert isinstance(rpool, PoolProtocol)

    @pytest.mark.cluster
    def test_cluster_pool_satisfies_the_protocol(self):
        with ClusterPool(1) as cpool:
            assert isinstance(cpool, PoolProtocol)

    def test_arbitrary_objects_do_not(self):
        assert not isinstance(object(), PoolProtocol)


def _params(cls, name):
    return inspect.signature(getattr(cls, name)).parameters


class TestSignatureCompatibility:
    @pytest.mark.parametrize("other", [ResilientPool, ClusterPool])
    @pytest.mark.parametrize("method", ["submit", "submit_call", "close"])
    def test_parameter_names_and_kinds_agree(self, method, other):
        plain = _params(DevicePool, method)
        theirs = _params(other, method)
        assert list(plain) == list(theirs), (
            f"{method}: DevicePool{tuple(plain)} vs "
            f"{other.__name__}{tuple(theirs)}"
        )
        for name in plain:
            assert plain[name].kind == theirs[name].kind, (
                f"{method}({name}): parameter kind differs"
            )

    def test_submit_call_has_the_shard_flag_on_all(self):
        for cls in (DevicePool, ResilientPool, ClusterPool):
            params = _params(cls, "submit_call")
            assert "shard" in params
            assert params["shard"].default is False

    def test_close_keywords_agree(self):
        for cls in (DevicePool, ResilientPool, ClusterPool):
            params = _params(cls, "close")
            assert "drain" in params and params["drain"].default is True
            assert "timeout" in params


class TestInterchangeability:
    def _run_on(self, backend):
        n = 16
        device = backend.devices[0]
        out = np.zeros(n, dtype=np.float64)
        ptr = device.allocator.malloc(out.nbytes)
        try:
            future = backend.submit(
                fill_kernel, LaunchConfig.create(1, 32), ptr, n,
                label="fill",
            )
            future.result(timeout=30)
            fence = backend.submit_call(
                lambda dev: dev.allocator.memcpy_d2h(out, ptr),
                device=0, label="readback", shard=False,
            )
            fence.result(timeout=30)
        finally:
            device.allocator.free(ptr)
        return out

    def test_same_driver_code_runs_on_both_backends(self):
        expected = np.arange(16, dtype=np.float64) + 1.0
        with DevicePool(1) as pool:
            np.testing.assert_array_equal(self._run_on(pool), expected)
        with DevicePool(1) as pool:
            with ResilientPool(pool) as rpool:
                np.testing.assert_array_equal(
                    self._run_on(rpool), expected
                )

    @pytest.mark.cluster
    def test_portable_driver_code_runs_on_all_three_backends(self):
        # The cluster backend cannot ship raw DevicePointer arguments
        # across the process boundary, so the cross-backend driver here
        # sticks to the portable subset: picklable submit_call payloads,
        # ``shard=`` accounting, ``device=`` pinning and device specs.
        def drive(backend):
            names = []
            for index in range(len(backend)):
                fut = backend.submit_call(
                    spec_name_probe, device=index,
                    label=f"probe:{index}", shard=True,
                )
                names.append(fut.result(timeout=30))
            backend.synchronize()
            distinct = {d.spec.name for d in backend.devices}
            return sorted(names), distinct

        with DevicePool(2) as pool:
            in_process = drive(pool)
        with ClusterPool(2) as cpool:
            clustered = drive(cpool)
        assert clustered == in_process
