"""The MI250's dual-GCD exposure: two independent devices, one card."""

import numpy as np
import pytest

from repro.errors import InvalidPointerError
from repro.gpu import LaunchConfig, get_device, launch_kernel
from repro.gpu.device import MI250_SPEC
from repro.openmp.data import omp_target_alloc, omp_target_free, omp_target_memcpy


@pytest.fixture
def gcd0():
    return get_device(1)


@pytest.fixture
def gcd1():
    return get_device(2)


class TestSeparateDevices:
    def test_same_silicon_description(self, gcd0, gcd1):
        assert gcd0.spec is MI250_SPEC
        assert gcd1.spec is MI250_SPEC
        assert gcd0 is not gcd1

    def test_independent_allocators(self, gcd0, gcd1):
        ptr = gcd0.allocator.malloc(64)
        # a GCD-0 pointer is meaningless on GCD 1
        with pytest.raises(InvalidPointerError):
            gcd1.allocator.view(ptr, 64, np.uint8)
        gcd0.allocator.free(ptr)

    def test_independent_constant_banks(self, gcd0, gcd1):
        gcd0.write_constant("gcd_local", np.array([1.0]))
        from repro.errors import GpuError

        with pytest.raises(GpuError):
            gcd1.read_constant("gcd_local")

    def test_kernels_run_on_either_gcd(self, gcd0, gcd1):
        for device in (gcd0, gcd1):
            d = device.allocator.malloc(8)

            def kernel(ctx, out):
                if ctx.flat_thread_id == 0:
                    ctx.deref(out, 1, np.int64)[0] = ctx.warp_size

            launch_kernel(LaunchConfig.create(1, 64), kernel, (d,), device)
            out = np.zeros(1, dtype=np.int64)
            device.allocator.memcpy_d2h(out, d)
            assert out[0] == 64  # both GCDs are wavefront64
            device.allocator.free(d)

    def test_peer_transfer_between_gcds(self, gcd0, gcd1):
        """omp_target_memcpy copies GCD to GCD on the peer path."""
        data = np.arange(32, dtype=np.float64)
        src = omp_target_alloc(data.nbytes, gcd0)
        dst = omp_target_alloc(data.nbytes, gcd1)
        omp_target_memcpy(src, data, data.nbytes, dst_device=gcd0)
        omp_target_memcpy(dst, src, data.nbytes, dst_device=gcd1, src_device=gcd0)
        out = np.zeros_like(data)
        omp_target_memcpy(out, dst, data.nbytes, src_device=gcd1)
        assert np.array_equal(out, data)
        omp_target_free(src, gcd0)
        omp_target_free(dst, gcd1)
