"""Vendor-library wrapper layer (§3.6): dispatch + BLAS correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ompx.vendor as vendor_mod
import repro.trace as trace
from repro import ompx
from repro.errors import (
    BlasDimensionError,
    HandleDestroyedError,
    ReproError,
    UnknownVendorError,
    VendorError,
)
from repro.gpu import Stream, get_device
from repro.ompx.vendor import (
    HAND_KERNEL_EFFICIENCY,
    BlasBackend,
    CublasSim,
    OneMklSim,
    RocblasSim,
    gemm_footprint,
    modeled_gemm_seconds,
)


def upload_colmajor(device, matrix: np.ndarray):
    ptr = device.allocator.malloc(matrix.nbytes)
    device.allocator.memcpy_h2d(ptr, np.asfortranarray(matrix).ravel(order="K"))
    return ptr


def download_colmajor(device, ptr, rows, cols) -> np.ndarray:
    out = np.zeros(rows * cols)
    device.allocator.memcpy_d2h(out, ptr)
    return out.reshape(cols, rows).T


class TestDispatch:
    def test_nvidia_gets_cublas(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        assert isinstance(handle.backend, CublasSim)
        assert handle.backend_name == "cuBLAS-sim"

    def test_amd_gets_rocblas(self, amd):
        handle = ompx.ompxblas_create(amd)
        assert isinstance(handle.backend, RocblasSim)
        assert handle.backend_name == "rocBLAS-sim"

    def test_call_counting(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        n = 8
        x = ompx.ompx_malloc(n * 8, nvidia)
        ompx.ompxblas_dscal(handle, n, 2.0, x, 1)
        ompx.ompxblas_dscal(handle, n, 2.0, x, 1)
        ompx.ompxblas_dnrm2(handle, n, x, 1)
        assert handle.backend.calls == {"scal": 2, "nrm2": 1}
        ompx.ompx_free(x, nvidia)


class TestGemm:
    @pytest.mark.parametrize("transa,transb", [("N", "N"), ("T", "N"), ("N", "T"), ("T", "T")])
    def test_dgemm_all_transposes(self, any_device, transa, transb):
        rng = np.random.default_rng(23)
        m, n, k = 5, 4, 3
        a_logical = rng.random((m, k))
        b_logical = rng.random((k, n))
        c0 = rng.random((m, n))

        a_stored = a_logical if transa == "N" else a_logical.T
        b_stored = b_logical if transb == "N" else b_logical.T
        handle = ompx.ompxblas_create(any_device)
        d_a = upload_colmajor(any_device, a_stored)
        d_b = upload_colmajor(any_device, b_stored)
        d_c = upload_colmajor(any_device, c0)
        lda = a_stored.shape[0]
        ldb = b_stored.shape[0]
        ompx.ompxblas_dgemm(handle, transa, transb, m, n, k, 2.0, d_a, lda, d_b, ldb, 0.5, d_c, m)
        result = download_colmajor(any_device, d_c, m, n)
        expected = 2.0 * (a_logical @ b_logical) + 0.5 * c0
        assert np.allclose(result, expected)
        for p in (d_a, d_b, d_c):
            any_device.allocator.free(p)

    def test_sgemm_float32(self, nvidia):
        rng = np.random.default_rng(5)
        m = n = k = 4
        a = rng.random((m, k)).astype(np.float32)
        b = rng.random((k, n)).astype(np.float32)
        handle = ompx.ompxblas_create(nvidia)
        d_a = nvidia.allocator.malloc(a.nbytes)
        d_b = nvidia.allocator.malloc(b.nbytes)
        d_c = nvidia.allocator.malloc(m * n * 4)
        nvidia.allocator.memcpy_h2d(d_a, np.asfortranarray(a).ravel(order="K"))
        nvidia.allocator.memcpy_h2d(d_b, np.asfortranarray(b).ravel(order="K"))
        ompx.ompxblas_sgemm(handle, "N", "N", m, n, k, 1.0, d_a, m, d_b, k, 0.0, d_c, m)
        out = np.zeros(m * n, dtype=np.float32)
        nvidia.allocator.memcpy_d2h(out, d_c)
        assert np.allclose(out.reshape(n, m).T, a @ b, rtol=1e-5)
        for p in (d_a, d_b, d_c):
            nvidia.allocator.free(p)

    def test_leading_dimension_padding(self, nvidia):
        """lda > rows: the padded rows must be skipped, BLAS style."""
        m, n, k, lda = 2, 2, 2, 4
        a_padded = np.zeros((lda, k))
        a_padded[:m] = [[1.0, 2.0], [3.0, 4.0]]
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        handle = ompx.ompxblas_create(nvidia)
        d_a = upload_colmajor(nvidia, a_padded)
        d_b = upload_colmajor(nvidia, b)
        d_c = nvidia.allocator.malloc(m * n * 8)
        ompx.ompxblas_dgemm(handle, "N", "N", m, n, k, 1.0, d_a, lda, d_b, k, 0.0, d_c, m)
        out = download_colmajor(nvidia, d_c, m, n)
        assert np.allclose(out, a_padded[:m])
        for p in (d_a, d_b, d_c):
            nvidia.allocator.free(p)

    def test_bad_leading_dimension(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        d = ompx.ompx_malloc(64, nvidia)
        with pytest.raises(ReproError, match="leading dimension"):
            ompx.ompxblas_dgemm(handle, "N", "N", 4, 2, 2, 1.0, d, 2, d, 2, 0.0, d, 4)
        ompx.ompx_free(d, nvidia)


class TestLevel1:
    def test_daxpy(self, any_device):
        n = 16
        x = np.arange(n, dtype=np.float64)
        y = np.ones(n)
        handle = ompx.ompxblas_create(any_device)
        d_x = any_device.allocator.malloc(x.nbytes)
        d_y = any_device.allocator.malloc(y.nbytes)
        any_device.allocator.memcpy_h2d(d_x, x)
        any_device.allocator.memcpy_h2d(d_y, y)
        ompx.ompxblas_daxpy(handle, n, 3.0, d_x, 1, d_y, 1)
        out = np.zeros(n)
        any_device.allocator.memcpy_d2h(out, d_y)
        assert np.allclose(out, 3.0 * x + 1)
        for p in (d_x, d_y):
            any_device.allocator.free(p)

    def test_strided_axpy(self, nvidia):
        n = 4
        x = np.arange(8, dtype=np.float64)
        y = np.zeros(8)
        handle = ompx.ompxblas_create(nvidia)
        d_x = nvidia.allocator.malloc(x.nbytes)
        d_y = nvidia.allocator.malloc(y.nbytes)
        nvidia.allocator.memcpy_h2d(d_x, x)
        nvidia.allocator.memcpy_h2d(d_y, y)
        ompx.ompxblas_daxpy(handle, n, 1.0, d_x, 2, d_y, 2)
        out = np.zeros(8)
        nvidia.allocator.memcpy_d2h(out, d_y)
        assert np.allclose(out[::2], x[::2])
        assert not out[1::2].any()
        for p in (d_x, d_y):
            nvidia.allocator.free(p)

    def test_ddot_and_dnrm2(self, nvidia):
        n = 32
        rng = np.random.default_rng(6)
        x = rng.random(n)
        y = rng.random(n)
        handle = ompx.ompxblas_create(nvidia)
        d_x = nvidia.allocator.malloc(x.nbytes)
        d_y = nvidia.allocator.malloc(y.nbytes)
        nvidia.allocator.memcpy_h2d(d_x, x)
        nvidia.allocator.memcpy_h2d(d_y, y)
        assert np.isclose(ompx.ompxblas_ddot(handle, n, d_x, 1, d_y, 1), x @ y)
        assert np.isclose(ompx.ompxblas_dnrm2(handle, n, d_x, 1), np.linalg.norm(x))
        for p in (d_x, d_y):
            nvidia.allocator.free(p)

    def test_bad_increment(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        d = ompx.ompx_malloc(64, nvidia)
        with pytest.raises(ReproError, match="increment"):
            ompx.ompxblas_dscal(handle, 4, 1.0, d, 0)
        ompx.ompx_free(d, nvidia)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=32),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_axpy_matches_numpy_property(self, values, alpha):
        device = get_device(0)
        x = np.asarray(values)
        y = np.ones_like(x)
        handle = ompx.ompxblas_create(device)
        d_x = device.allocator.malloc(x.nbytes)
        d_y = device.allocator.malloc(y.nbytes)
        try:
            device.allocator.memcpy_h2d(d_x, x)
            device.allocator.memcpy_h2d(d_y, y)
            ompx.ompxblas_daxpy(handle, len(x), alpha, d_x, 1, d_y, 1)
            out = np.zeros_like(y)
            device.allocator.memcpy_d2h(out, d_y)
            assert np.allclose(out, alpha * x + 1)
        finally:
            device.allocator.free(d_x)
            device.allocator.free(d_y)

    def test_destroy_synchronizes(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        log = []
        nvidia.default_stream.enqueue(lambda: log.append(1))
        ompx.ompxblas_destroy(handle)
        assert log == [1]

    def test_dcopy_and_dswap(self, any_device):
        n = 8
        x = np.arange(n, dtype=np.float64)
        y = np.full(n, -1.0)
        handle = ompx.ompxblas_create(any_device)
        alloc = any_device.allocator
        d_x = alloc.malloc(x.nbytes)
        d_y = alloc.malloc(y.nbytes)
        alloc.memcpy_h2d(d_x, x)
        alloc.memcpy_h2d(d_y, y)
        ompx.ompxblas_dcopy(handle, n, d_x, 1, d_y, 1)
        out = np.zeros(n)
        alloc.memcpy_d2h(out, d_y)
        assert np.array_equal(out, x)
        ompx.ompxblas_dscal(handle, n, 2.0, d_y, 1)
        ompx.ompxblas_dswap(handle, n, d_x, 1, d_y, 1)
        alloc.memcpy_d2h(out, d_x)
        assert np.array_equal(out, 2.0 * x)
        alloc.memcpy_d2h(out, d_y)
        assert np.array_equal(out, x)
        for p in (d_x, d_y):
            alloc.free(p)


class TestGemv:
    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_dgemv_matches_numpy(self, any_device, trans):
        rng = np.random.default_rng(17)
        m, n = 5, 3
        a = rng.random((m, n))
        x = rng.random(n if trans == "N" else m)
        y0 = rng.random(m if trans == "N" else n)
        handle = ompx.ompxblas_create(any_device)
        alloc = any_device.allocator
        d_a = upload_colmajor(any_device, a)
        d_x = alloc.malloc(x.nbytes)
        d_y = alloc.malloc(y0.nbytes)
        alloc.memcpy_h2d(d_x, x)
        alloc.memcpy_h2d(d_y, y0)
        ompx.ompxblas_dgemv(handle, trans, m, n, 2.0, d_a, m, d_x, 1, 0.5, d_y, 1)
        out = np.zeros_like(y0)
        alloc.memcpy_d2h(out, d_y)
        op_a = a if trans == "N" else a.T
        assert np.allclose(out, 2.0 * (op_a @ x) + 0.5 * y0)
        for p in (d_a, d_x, d_y):
            alloc.free(p)

    def test_bad_lda_carries_structured_fields(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        d = ompx.ompx_malloc(256, nvidia)
        with pytest.raises(BlasDimensionError) as ei:
            ompx.ompxblas_dgemv(handle, "N", 4, 2, 1.0, d, 2, d, 1, 0.0, d, 1)
        err = ei.value
        assert err.op == "dgemv"
        assert err.param == "lda"
        assert err.value == 2 and err.minimum == 4
        ompx.ompx_free(d, nvidia)


def upload_stack(device, mats):
    """Concatenated column-major images of a list of logical matrices."""
    flat = np.concatenate(
        [np.asfortranarray(mat).ravel(order="K") for mat in mats]
    )
    ptr = device.allocator.malloc(flat.nbytes)
    device.allocator.memcpy_h2d(ptr, flat)
    return ptr


class TestBatchedGemm:
    def test_dgemm_batched_pointer_arrays(self, nvidia):
        rng = np.random.default_rng(3)
        m, n, k, batch = 3, 2, 4, 3
        a_list = [rng.random((m, k)) for _ in range(batch)]
        b_list = [rng.random((k, n)) for _ in range(batch)]
        handle = ompx.ompxblas_create(nvidia)
        alloc = nvidia.allocator
        d_a = [upload_colmajor(nvidia, a) for a in a_list]
        d_b = [upload_colmajor(nvidia, b) for b in b_list]
        d_c = [alloc.malloc(m * n * 8) for _ in range(batch)]
        ompx.ompxblas_dgemm_batched(
            handle, "N", "N", m, n, k, 1.0, d_a, m, d_b, k, 0.0, d_c, m, batch
        )
        for i in range(batch):
            out = download_colmajor(nvidia, d_c[i], m, n)
            assert np.allclose(out, a_list[i] @ b_list[i])
        for p in d_a + d_b + d_c:
            alloc.free(p)

    def test_pointer_count_mismatch(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        d = ompx.ompx_malloc(256, nvidia)
        with pytest.raises(BlasDimensionError) as ei:
            ompx.ompxblas_dgemm_batched(
                handle, "N", "N", 2, 2, 2, 1.0, [d], 2, [d, d], 2, 0.0,
                [d, d], 2, 2,
            )
        assert ei.value.param == "a_array"
        assert ei.value.value == 1 and ei.value.minimum == 2
        ompx.ompx_free(d, nvidia)

    @pytest.mark.parametrize("transa,transb", [("N", "N"), ("T", "N"), ("N", "T")])
    def test_dgemm_strided_batched(self, any_device, transa, transb):
        rng = np.random.default_rng(11)
        m, n, k, batch = 3, 4, 2, 3
        a_logical = [rng.random((m, k)) for _ in range(batch)]
        b_logical = [rng.random((k, n)) for _ in range(batch)]
        a_stored = [a if transa == "N" else a.T for a in a_logical]
        b_stored = [b if transb == "N" else b.T for b in b_logical]
        handle = ompx.ompxblas_create(any_device)
        alloc = any_device.allocator
        d_a = upload_stack(any_device, a_stored)
        d_b = upload_stack(any_device, b_stored)
        d_c = alloc.malloc(batch * m * n * 8)
        lda = a_stored[0].shape[0]
        ldb = b_stored[0].shape[0]
        ompx.ompxblas_dgemm_strided_batched(
            handle, transa, transb, m, n, k, 1.0,
            d_a, lda, m * k, d_b, ldb, k * n, 0.0, d_c, m, m * n, batch,
        )
        flat = np.zeros(batch * m * n)
        alloc.memcpy_d2h(flat, d_c)
        for i in range(batch):
            out = flat[i * m * n:(i + 1) * m * n].reshape(n, m).T
            assert np.allclose(out, a_logical[i] @ b_logical[i])
        for p in (d_a, d_b, d_c):
            alloc.free(p)

    def test_zgemm_broadcast_operand(self, nvidia):
        """stride 0 broadcasts one matrix across the batch (the SU3 shape)."""
        rng = np.random.default_rng(8)
        batch = 5
        a = rng.random((batch, 3, 3)) + 1j * rng.random((batch, 3, 3))
        b = rng.random((3, 3)) + 1j * rng.random((3, 3))
        handle = ompx.ompxblas_create(nvidia)
        alloc = nvidia.allocator
        d_a = upload_stack(nvidia, [a[i] for i in range(batch)])
        d_b = upload_colmajor_complex(nvidia, b)
        d_c = alloc.malloc(batch * 9 * 16)
        ompx.ompxblas_zgemm_strided_batched(
            handle, "N", "N", 3, 3, 3, 1.0 + 0j,
            d_a, 3, 9, d_b, 3, 0, 0.0 + 0j, d_c, 3, 9, batch,
        )
        flat = np.zeros(batch * 9, dtype=np.complex128)
        alloc.memcpy_d2h(flat, d_c)
        for i in range(batch):
            out = flat[i * 9:(i + 1) * 9].reshape(3, 3).T
            assert np.allclose(out, a[i] @ b)
        for p in (d_a, d_b, d_c):
            alloc.free(p)

    def test_output_stride_must_not_alias(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        d = ompx.ompx_malloc(4096, nvidia)
        with pytest.raises(BlasDimensionError, match="alias"):
            ompx.ompxblas_dgemm_strided_batched(
                handle, "N", "N", 2, 2, 2, 1.0,
                d, 2, 4, d, 2, 4, 0.0, d, 2, 2, 3,
            )
        ompx.ompx_free(d, nvidia)

    def test_zero_batch_is_a_noop(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        d = ompx.ompx_malloc(64, nvidia)
        ompx.ompxblas_dgemm_strided_batched(
            handle, "N", "N", 2, 2, 2, 1.0, d, 2, 4, d, 2, 4, 0.0, d, 2, 4, 0
        )
        assert handle.backend.calls.get("gemm_strided_batched", 0) == 1
        ompx.ompx_free(d, nvidia)


def upload_colmajor_complex(device, matrix):
    ptr = device.allocator.malloc(matrix.nbytes)
    device.allocator.memcpy_h2d(
        ptr, np.asfortranarray(matrix).ravel(order="K")
    )
    return ptr


class TestBackendRegistry:
    def test_three_default_vendors(self):
        backends = ompx.registered_backends()
        assert backends["nvidia"] is CublasSim
        assert backends["amd"] is RocblasSim
        assert backends["intel"] is OneMklSim

    def test_intel_gets_onemkl(self, intel):
        handle = ompx.ompxblas_create(intel)
        assert isinstance(handle.backend, OneMklSim)
        assert handle.backend_name == "oneMKL-sim"
        ompx.ompxblas_destroy(handle)

    def test_register_backend_replaces_and_restores(self, nvidia):
        class FancyBlas(CublasSim):
            name = "fancy-sim"

        ompx.register_backend("nvidia", FancyBlas)
        try:
            handle = ompx.ompxblas_create(nvidia)
            assert handle.backend_name == "fancy-sim"
        finally:
            ompx.register_backend("nvidia", CublasSim)
        assert ompx.registered_backends()["nvidia"] is CublasSim

    def test_register_rejects_non_backend(self):
        with pytest.raises(TypeError):
            ompx.register_backend("nvidia", dict)

    def test_snapshot_is_a_copy(self):
        snapshot = ompx.registered_backends()
        snapshot["nvidia"] = RocblasSim
        assert ompx.registered_backends()["nvidia"] is CublasSim

    def test_unknown_vendor_error_fields(self, nvidia, monkeypatch):
        monkeypatch.setattr(vendor_mod, "_BACKENDS", {})
        with pytest.raises(UnknownVendorError) as ei:
            ompx.ompxblas_create(nvidia)
        err = ei.value
        assert err.vendor == "nvidia"
        assert err.known == ()
        assert "register_backend" in str(err)


class TestHandleLifecycle:
    def test_use_after_destroy_raises(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        d = ompx.ompx_malloc(64, nvidia)
        ompx.ompxblas_destroy(handle)
        with pytest.raises(HandleDestroyedError) as ei:
            ompx.ompxblas_dscal(handle, 4, 1.0, d, 1)
        assert ei.value.op == "dscal"
        assert ei.value.device == nvidia.ordinal
        ompx.ompx_free(d, nvidia)

    def test_double_destroy_raises(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        ompx.ompxblas_destroy(handle)
        with pytest.raises(HandleDestroyedError) as ei:
            ompx.ompxblas_destroy(handle)
        assert ei.value.op == "destroy"

    def test_get_stream_after_destroy_raises(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        ompx.ompxblas_destroy(handle)
        with pytest.raises(HandleDestroyedError):
            ompx.ompxblas_get_stream(handle)


class TestStreamBinding:
    def test_default_is_unbound(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        assert ompx.ompxblas_get_stream(handle) is None
        ompx.ompxblas_destroy(handle)

    def test_set_and_clear(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        stream = Stream(nvidia, "blas")
        ompx.ompxblas_set_stream(handle, stream)
        assert ompx.ompxblas_get_stream(handle) is stream
        ompx.ompxblas_set_stream(handle, None)
        assert ompx.ompxblas_get_stream(handle) is None
        ompx.ompxblas_destroy(handle)

    def test_stream_must_match_device(self, nvidia, amd):
        handle = ompx.ompxblas_create(nvidia)
        foreign = Stream(amd, "wrong-device")
        with pytest.raises(VendorError, match="device"):
            ompx.ompxblas_set_stream(handle, foreign)
        ompx.ompxblas_destroy(handle)

    def test_bound_calls_order_with_stream_work(self, nvidia):
        """BLAS calls and plain stream ops interleave in FIFO order."""
        n = 4
        x = np.ones(n)
        handle = ompx.ompxblas_create(nvidia)
        alloc = nvidia.allocator
        d_x = alloc.malloc(x.nbytes)
        alloc.memcpy_h2d(d_x, x)
        stream = Stream(nvidia, "ordered")
        ompx.ompxblas_set_stream(handle, stream)
        log = []
        stream.enqueue(lambda: log.append("before"))
        ompx.ompxblas_dscal(handle, n, 3.0, d_x, 1)
        stream.enqueue(lambda: log.append("after"))
        stream.synchronize()
        assert log == ["before", "after"]
        out = np.zeros(n)
        alloc.memcpy_d2h(out, d_x)
        assert np.array_equal(out, 3.0 * x)
        ompx.ompxblas_destroy(handle)
        alloc.free(d_x)

    def test_scalar_result_synchronizes_the_stream(self, nvidia):
        """ddot with a host result pointer is a synchronization point."""
        n = 8
        x = np.arange(n, dtype=np.float64)
        handle = ompx.ompxblas_create(nvidia)
        alloc = nvidia.allocator
        d_x = alloc.malloc(x.nbytes)
        alloc.memcpy_h2d(d_x, x)
        stream = Stream(nvidia, "sync-point")
        ompx.ompxblas_set_stream(handle, stream)
        log = []
        stream.enqueue(lambda: log.append("queued"))
        value = ompx.ompxblas_ddot(handle, n, d_x, 1, d_x, 1)
        assert log == ["queued"]          # drained before the result returned
        assert np.isclose(value, x @ x)
        ompx.ompxblas_destroy(handle)
        alloc.free(d_x)

    def test_destroy_drains_bound_stream(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        stream = Stream(nvidia, "drain-me")
        ompx.ompxblas_set_stream(handle, stream)
        log = []
        stream.enqueue(lambda: log.append(1))
        ompx.ompxblas_destroy(handle)
        assert log == [1]


class TestTraceIntegration:
    def test_gemm_emits_vendor_span_and_counters(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        d = ompx.ompx_malloc(9 * 8, nvidia)
        with trace.tracing() as t:
            ompx.ompxblas_dgemm(
                handle, "N", "N", 3, 3, 3, 1.0, d, 3, d, 3, 0.0, d, 3
            )
        spans = [sp for sp in t.spans if sp.cat == "vendor"]
        assert len(spans) == 1
        (sp,) = spans
        assert sp.name == "vendor:dgemm"
        assert sp.args["backend"] == "cuBLAS-sim"
        assert sp.args["m"] == sp.args["n"] == sp.args["k"] == 3
        assert sp.args["flops"] == 2.0 * 27
        assert sp.args["modeled_s"] > 0
        assert t.counters["vendor_calls"] == 1
        assert t.counters["vendor_flops"] == 2.0 * 27
        assert t.counters["vendor_bytes"] > 0
        ompx.ompx_free(d, nvidia)

    def test_stream_bound_call_records_exec_span(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        d = ompx.ompx_malloc(64, nvidia)
        stream = Stream(nvidia, "traced")
        ompx.ompxblas_set_stream(handle, stream)
        with trace.tracing() as t:
            ompx.ompxblas_dscal(handle, 8, 2.0, d, 1)
            stream.synchronize()
        names = [sp.name for sp in t.spans if sp.cat == "vendor"]
        assert names == ["exec:vendor:dscal"]
        ompx.ompxblas_destroy(handle)
        ompx.ompx_free(d, nvidia)

    def test_untraced_calls_record_nothing(self, nvidia):
        handle = ompx.ompxblas_create(nvidia)
        d = ompx.ompx_malloc(64, nvidia)
        with trace.tracing() as t:
            pass
        before = len(t.spans)
        ompx.ompxblas_dscal(handle, 8, 2.0, d, 1)
        assert len(t.spans) == before
        ompx.ompx_free(d, nvidia)


class TestModeledPerformance:
    def test_library_beats_hand_kernel(self, nvidia):
        """§3.6's reason to exist: the tuned library wins on big GEMMs."""
        handle = ompx.ompxblas_create(nvidia)
        m = n = k = 2048
        library = handle.backend.modeled_gemm_seconds(m, n, k)
        hand = modeled_gemm_seconds(
            nvidia.spec, m, n, k, efficiency=HAND_KERNEL_EFFICIENCY
        )
        assert library < hand
        assert hand / library == pytest.approx(
            handle.backend.library_efficiency / HAND_KERNEL_EFFICIENCY
        )

    def test_backend_efficiency_ordering(self):
        assert CublasSim.library_efficiency > RocblasSim.library_efficiency
        assert RocblasSim.library_efficiency > OneMklSim.library_efficiency
        assert OneMklSim.library_efficiency > HAND_KERNEL_EFFICIENCY

    def test_complex_gemm_counts_four_times_the_flops(self):
        real = gemm_footprint(8, 8, 8, dtype=np.float64)
        cplx = gemm_footprint(8, 8, 8, dtype=np.complex128)
        assert cplx.flops_fp64 == 4 * real.flops_fp64

    def test_batch_scales_linearly(self):
        one = gemm_footprint(4, 4, 4)
        many = gemm_footprint(4, 4, 4, batch=7)
        assert many.flops_fp64 == 7 * one.flops_fp64
        assert many.global_read_bytes == 7 * one.global_read_bytes

    def test_fp32_lands_in_the_fp32_pipe(self):
        fp = gemm_footprint(4, 4, 4, dtype=np.float32)
        assert fp.flops_fp32 > 0 and fp.flops_fp64 == 0

    def test_abstract_backend_is_not_registered(self):
        assert BlasBackend not in ompx.registered_backends().values()


def scalar_gemm(a, b, c, alpha, beta):
    """``alpha * a @ b + beta * c`` one output element at a time.

    The exactness oracle for the batched GEMMs: ``a``/``b``/``c`` are
    ``(batch, ., .)`` stacks of logical matrices, and every element sums
    its products in ascending ``k`` from zero in its real dtype's own
    arithmetic.  Complex values go through real planes, ``(ac - bd, ad +
    bc)``, and so do ``alpha`` and ``beta``.
    """
    rt = c.real.dtype.type
    cplx = np.iscomplexobj(c)

    def parts(z):
        return (rt(z.real), rt(z.imag)) if cplx else (rt(z), rt(0))

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    al, be = parts(alpha), parts(beta)
    out = np.empty_like(c)
    batch, m, k = a.shape
    for s in range(batch):
        for i in range(m):
            for j in range(b.shape[2]):
                re = im = rt(0)
                for kk in range(k):
                    if cplx:
                        p = mul(parts(a[s, i, kk]), parts(b[s, kk, j]))
                        re, im = re + p[0], im + p[1]
                    else:
                        re = re + a[s, i, kk] * b[s, kk, j]
                if cplx:
                    v = mul(al, (re, im))
                    if beta != 0:
                        w = mul(parts(c[s, i, j]), be)
                        v = (w[0] + v[0], w[1] + v[1])
                    out[s, i, j] = complex(v[0], v[1])
                else:
                    v = al[0] * re
                    out[s, i, j] = v if beta == 0 else c[s, i, j] * be[0] + v
    return out


def _random_stack(rng, dtype, shape):
    x = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def _strided_gemm(device, dtype, transa, transb, a, b, c, alpha, beta,
                  broadcast=""):
    """Run one strided-batched GEMM over logical stacks; returns C.

    ``broadcast`` names the operand (``"a"``/``"b"``) stored once with
    stride 0; its stack must repeat one matrix.
    """
    batch, m, k = a.shape
    n = b.shape[2]
    handle = ompx.ompxblas_create(device)
    alloc = device.allocator
    a_st = [x if transa == "N" else x.T for x in a[:1 if broadcast == "a" else batch]]
    b_st = [x if transb == "N" else x.T for x in b[:1 if broadcast == "b" else batch]]
    d_a, d_b, d_c = upload_stack(device, a_st), upload_stack(device, b_st), upload_stack(device, list(c))
    args = (transa, transb, m, n, k, alpha,
            d_a, a_st[0].shape[0], 0 if broadcast == "a" else m * k,
            d_b, b_st[0].shape[0], 0 if broadcast == "b" else k * n,
            beta, d_c, m, m * n, batch)
    if dtype == np.float64:
        ompx.ompxblas_dgemm_strided_batched(handle, *args)
    elif dtype == np.complex128:
        ompx.ompxblas_zgemm_strided_batched(handle, *args)
    else:
        handle.backend.gemm_strided_batched(*args, dtype)
    flat = np.zeros(batch * m * n, dtype=dtype)
    alloc.memcpy_d2h(flat, d_c)
    for p in (d_a, d_b, d_c):
        alloc.free(p)
    return flat.reshape(batch, n, m).transpose(0, 2, 1)


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestGemmBitExact:
    """The batched GEMMs equal a scalar triple loop byte for byte.

    ``alpha``/``beta`` stay real-valued for complex dtypes: a complex
    scale factor would make the oracle depend on whether NumPy's complex
    multiply contracts with FMA on the host's SIMD path.
    """

    DTYPES = [np.float64, np.float32, np.complex128, np.complex64]

    @pytest.mark.parametrize("dtype", DTYPES, ids=["d", "s", "z", "c"])
    @pytest.mark.parametrize("transa,transb", [("N", "N"), ("T", "N"), ("N", "T"), ("T", "T")])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (-1.5, 0.5)], ids=["beta0", "beta"])
    def test_strided_batched(self, nvidia, dtype, transa, transb, alpha, beta):
        rng = np.random.default_rng(41)
        batch, m, n, k = 5, 3, 4, 6
        a = _random_stack(rng, dtype, (batch, m, k))
        b = _random_stack(rng, dtype, (batch, k, n))
        c = _random_stack(rng, dtype, (batch, m, n))
        a[0, 0] = -0.0  # all-(-0) products must still sum to +0
        got = _strided_gemm(nvidia, dtype, transa, transb, a, b, c, alpha, beta)
        _assert_same_bytes(got, scalar_gemm(a, b, c, alpha, beta))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.complex64],
                             ids=["d", "z", "c"])
    @pytest.mark.parametrize("batch", [1, 4, 30], ids=["one", "one-slice", "partial"])
    @pytest.mark.parametrize("broadcast", ["", "a", "b"], ids=["strided", "bcast-a", "bcast-b"])
    def test_slices(self, nvidia, monkeypatch, dtype, batch, broadcast):
        """With 24-element slices a 3x2 output of 4 entries is exactly one
        slice, and 30 entries take spans of 12, 12 and a partial 6."""
        monkeypatch.setattr(vendor_mod, "_GEMM_SLICE", 24)
        rng = np.random.default_rng(batch)
        m, n, k = 3, 2, 5
        a = _random_stack(rng, dtype, (batch, m, k))
        b = _random_stack(rng, dtype, (batch, k, n))
        if broadcast == "a":
            a[:] = a[0]
        elif broadcast == "b":
            b[:] = b[0]
        c = _random_stack(rng, dtype, (batch, m, n))
        got = _strided_gemm(nvidia, dtype, "N", "T", a, b, c, 1.0, 0.5, broadcast)
        _assert_same_bytes(got, scalar_gemm(a, b, c, 1.0, 0.5))

    def test_many_slices_at_the_default_size(self, nvidia):
        """A 600-model 16x16 GEMM runs in many slices of the real size."""
        rng = np.random.default_rng(5)
        a = _random_stack(rng, np.float64, (600, 16, 3))
        b = _random_stack(rng, np.float64, (600, 3, 16))
        c = np.zeros((600, 16, 16))
        got = _strided_gemm(nvidia, np.float64, "N", "N", a, b, c, 1.0, 0.0)
        want = np.zeros_like(c)  # the same ascending-k sum, lane by lane
        for kk in range(3):
            want += a[:, :, kk, None] * b[:, None, kk, :]
        _assert_same_bytes(got, want)

    def test_pointer_array_batched(self, nvidia):
        rng = np.random.default_rng(9)
        batch, m, n, k = 3, 4, 3, 5
        a = _random_stack(rng, np.float64, (batch, m, k))
        b = _random_stack(rng, np.float64, (batch, k, n))
        c = _random_stack(rng, np.float64, (batch, m, n))
        handle = ompx.ompxblas_create(nvidia)
        alloc = nvidia.allocator
        d_a = [upload_colmajor(nvidia, x.T) for x in a]   # transa = "T"
        d_b = [upload_colmajor(nvidia, x) for x in b]
        d_c = [upload_colmajor(nvidia, x) for x in c]
        ompx.ompxblas_dgemm_batched(handle, "T", "N", m, n, k, -1.5, d_a, k,
                                    d_b, k, 0.5, d_c, m, batch)
        got = np.stack([download_colmajor(nvidia, p, m, n) for p in d_c])
        _assert_same_bytes(got, scalar_gemm(a, b, c, -1.5, 0.5))
        for p in d_a + d_b + d_c:
            alloc.free(p)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["d", "s"])
    @pytest.mark.parametrize("transa,transb", [("N", "N"), ("T", "N"), ("N", "T"), ("T", "T")])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (-1.5, 0.5)], ids=["beta0", "beta"])
    def test_gemm(self, nvidia, dtype, transa, transb, alpha, beta):
        """``dgemm``/``sgemm`` are a batch of one: equal to the loop, and a
        NaN-filled C is never read under ``beta == 0``."""
        rng = np.random.default_rng(43)
        m, n, k = 7, 5, 33
        a = _random_stack(rng, dtype, (1, m, k))
        b = _random_stack(rng, dtype, (1, k, n))
        c = _random_stack(rng, dtype, (1, m, n))
        if beta == 0:
            c[:] = np.nan
        a_st = a[0] if transa == "N" else a[0].T
        b_st = b[0] if transb == "N" else b[0].T
        d_a, d_b, d_c = (upload_stack(nvidia, [x]) for x in (a_st, b_st, c[0]))
        gemm = ompx.ompxblas_dgemm if dtype == np.float64 else ompx.ompxblas_sgemm
        gemm(ompx.ompxblas_create(nvidia), transa, transb, m, n, k, alpha,
             d_a, a_st.shape[0], d_b, b_st.shape[0], beta, d_c, m)
        got = np.zeros(m * n, dtype=dtype)
        nvidia.allocator.memcpy_d2h(got, d_c)
        for p in (d_a, d_b, d_c):
            nvidia.allocator.free(p)
        _assert_same_bytes(got.reshape(n, m).T[None], scalar_gemm(a, b, c, alpha, beta))

    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (-1.5, 0.5)], ids=["beta0", "beta"])
    def test_dgemv(self, nvidia, trans, alpha, beta):
        """``dgemv`` is the GEMM of op(A) and x as one column, over strided
        x and y; a NaN-filled y is never read under ``beta == 0``."""
        rng = np.random.default_rng(44)
        m, n, incx, incy = 7, 33, 2, 3
        a = rng.standard_normal((m, n))
        op_a = a if trans == "N" else a.T
        x = rng.standard_normal(op_a.shape[1])
        y = np.full(op_a.shape[0], np.nan) if beta == 0 else rng.standard_normal(op_a.shape[0])
        x_st = np.zeros((len(x) - 1) * incx + 1)
        x_st[::incx] = x
        y_st = np.zeros((len(y) - 1) * incy + 1)
        y_st[::incy] = y
        d_a, d_x, d_y = (upload_stack(nvidia, [v]) for v in (a, x_st, y_st))
        ompx.ompxblas_dgemv(ompx.ompxblas_create(nvidia), trans, m, n, alpha,
                            d_a, m, d_x, incx, beta, d_y, incy)
        got = np.zeros_like(y_st)
        nvidia.allocator.memcpy_d2h(got, d_y)
        for p in (d_a, d_x, d_y):
            nvidia.allocator.free(p)
        want = scalar_gemm(op_a[None], x[None, :, None], y[None, :, None], alpha, beta)
        _assert_same_bytes(got[::incy], want.reshape(-1))

    def test_no_inner_dimension_leaves_beta_c(self, nvidia):
        """``k == 0``: the empty sum is zero, so C becomes ``beta * C``."""
        alloc = nvidia.allocator
        handle = ompx.ompxblas_create(nvidia)
        d_ab = alloc.malloc(64)  # k == 0 reads none of A or B
        d_c = upload_stack(nvidia, [np.arange(6.0).reshape(2, 3)])
        ompx.ompxblas_dgemm(handle, "N", "N", 2, 3, 0, 1.0, d_ab, 2, d_ab, 1,
                            0.5, d_c, 2)
        ompx.ompxblas_dgemm_strided_batched(handle, "N", "N", 2, 3, 0, 1.0,
                                            d_ab, 2, 0, d_ab, 1, 0, 0.5, d_c, 2,
                                            6, 1)
        assert np.array_equal(download_colmajor(nvidia, d_c, 2, 3),
                              np.arange(6.0).reshape(2, 3) * 0.25)
        alloc.free(d_ab)
        alloc.free(d_c)
