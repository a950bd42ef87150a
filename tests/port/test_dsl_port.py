"""The DSL porting tool: CUDA kernels -> runnable ompx bare kernels."""

import numpy as np
import pytest

from repro import cuda, ompx
from repro.errors import PortError
from repro.gpu.engine import select_engine
from repro.ompx.bare import BareKernel
from repro.port import port_kernel, port_kernel_source


@cuda.kernel
def axpy_kernel(t, xs, ys, n, alpha):
    i = t.blockIdx.x * t.blockDim.x + t.threadIdx.x
    if i < n:
        yv = t.array(ys, n, np.float64)
        xv = t.array(xs, n, np.float64)
        yv[i] = alpha * xv[i] + yv[i]


@cuda.kernel
def tile_kernel(t, src, dst, n):
    tile = t.shared("tile", 64, np.float64)
    i = t.blockIdx.x * t.blockDim.x + t.threadIdx.x
    tile[t.threadIdx.x] = t.array(src, n, np.float64)[i] if i < n else 0.0
    t.syncthreads()
    if i < n:
        t.array(dst, n, np.float64)[i] = tile[63 - t.threadIdx.x]


@cuda.kernel
def warp_kernel(t, out, n):
    v = t.shfl_xor_sync(cuda.FULL_MASK, t.laneid + 1, 2)
    ballot = t.ballot_sync(cuda.FULL_MASK, t.laneid % 2 == 0)
    t.syncwarp(cuda.FULL_MASK)
    if t.laneid < n:
        t.array(out, n, np.int64)[t.laneid] = v * 1000 + (ballot & 0xFF)


@cuda.kernel(sync_free=True)
def atomic_kernel(t, out):
    t.atomicAdd(t.array(out, 1, np.int64), 0, 1)
    t.atomicMax(t.array(out, 1, np.int64), 0, 0)


@cuda.kernel(sync_free=True, vectorize=True)
def batched_axpy_kernel(t, xs, ys, n, alpha):
    i = t.blockIdx.x * t.blockDim.x + t.threadIdx.x
    yv = t.array(ys, n, np.float64)
    xv = t.array(xs, n, np.float64)
    t.store(yv, i, alpha * t.load(xv, i) + t.load(yv, i), mask=i < n)


class TestSourceTranslation:
    def test_index_idioms_rewritten(self):
        src = port_kernel_source(axpy_kernel)
        assert "t.block_id_x() * t.block_dim_x() + t.thread_id_x()" in src
        assert "threadIdx" not in src and "blockIdx" not in src

    def test_shared_and_barrier_rewritten(self):
        src = port_kernel_source(tile_kernel)
        assert "t.groupprivate('tile', 64" in src
        assert "t.sync_thread_block()" in src
        assert "syncthreads" not in src

    def test_warp_mask_moved_last(self):
        src = port_kernel_source(warp_kernel)
        # mask (FULL_MASK) moves from first to last positional argument
        assert "t.shfl_xor_sync(t.lane_id() + 1, 2, cuda.FULL_MASK)" in src
        assert "t.ballot_sync(t.lane_id() % 2 == 0, cuda.FULL_MASK)" in src
        assert "t.sync_warp(cuda.FULL_MASK)" in src

    def test_atomics_rewritten(self):
        src = port_kernel_source(atomic_kernel)
        assert "atomic_add" in src and "atomic_max" in src
        assert "atomicAdd" not in src

    def test_decorator_stripped(self):
        src = port_kernel_source(axpy_kernel)
        assert "@" not in src.splitlines()[0]

    def test_keyword_args_in_permuted_call_rejected(self):
        @cuda.kernel
        def kw_kernel(t):
            t.shfl_sync(0xFFFFFFFF, 1, src_lane=0)

        with pytest.raises(PortError, match="keyword"):
            port_kernel_source(kw_kernel)

    def test_facade_parameter_required(self):
        @cuda.kernel
        def no_args():  # pragma: no cover - body never runs
            pass

        with pytest.raises(PortError, match="façade|facade"):
            port_kernel_source(no_args)


class TestRoundTrip:
    def _run_both(self, nvidia, kernel, ported, setup, check, grid=2, block=64):
        for kern, is_ompx in ((kernel, False), (ported, True)):
            args, finish = setup()
            if is_ompx:
                ompx.target_teams_bare(nvidia, grid, block, kern, args)
            else:
                cuda.launch(kern, grid, block, args, device=nvidia)
                nvidia.synchronize()
            check(finish())

    def test_axpy_round_trip(self, nvidia):
        ported = port_kernel(axpy_kernel)
        assert isinstance(ported, BareKernel)
        n = 100
        rng = np.random.default_rng(1)
        x_host = rng.random(n)

        def setup():
            d_x = nvidia.allocator.malloc(n * 8)
            d_y = nvidia.allocator.malloc(n * 8)
            nvidia.allocator.memcpy_h2d(d_x, x_host)
            nvidia.allocator.memcpy_h2d(d_y, np.ones(n))

            def finish():
                out = np.zeros(n)
                nvidia.allocator.memcpy_d2h(out, d_y)
                nvidia.allocator.free(d_x)
                nvidia.allocator.free(d_y)
                return out

            return (d_x, d_y, n, 2.0), finish

        def check(out):
            assert np.allclose(out, 2.0 * x_host + 1)

        self._run_both(nvidia, axpy_kernel, ported, setup, check)

    def test_a_hand_batched_kernel_keeps_its_engine(self, nvidia):
        ported = port_kernel(batched_axpy_kernel)
        assert (ported.sync_free, ported.vectorize) == (True, True)
        assert select_engine(batched_axpy_kernel).name == "vector"
        assert select_engine(ported).name == "vector"
        n = 100
        x_host = np.random.default_rng(2).random(n)

        def setup():
            d_x = nvidia.allocator.malloc(n * 8)
            d_y = nvidia.allocator.malloc(n * 8)
            nvidia.allocator.memcpy_h2d(d_x, x_host)
            nvidia.allocator.memcpy_h2d(d_y, np.ones(n))

            def finish():
                out = np.zeros(n)
                nvidia.allocator.memcpy_d2h(out, d_y)
                nvidia.allocator.free(d_x)
                nvidia.allocator.free(d_y)
                return out

            return (d_x, d_y, n, 2.0), finish

        def check(out):
            assert np.array_equal(out, 2.0 * x_host + 1)

        self._run_both(nvidia, batched_axpy_kernel, ported, setup, check)

    def test_shared_tile_round_trip(self, nvidia):
        ported = port_kernel(tile_kernel)
        n = 64
        src_host = np.arange(n, dtype=np.float64)

        def setup():
            d_src = nvidia.allocator.malloc(n * 8)
            d_dst = nvidia.allocator.malloc(n * 8)
            nvidia.allocator.memcpy_h2d(d_src, src_host)

            def finish():
                out = np.zeros(n)
                nvidia.allocator.memcpy_d2h(out, d_dst)
                nvidia.allocator.free(d_src)
                nvidia.allocator.free(d_dst)
                return out

            return (d_src, d_dst, n), finish

        def check(out):
            assert np.array_equal(out, src_host[::-1])

        self._run_both(nvidia, tile_kernel, ported, setup, check, grid=1, block=64)

    def test_warp_primitives_round_trip(self, nvidia):
        ported = port_kernel(warp_kernel)
        n = 32
        outputs = []
        for kern, is_ompx in ((warp_kernel, False), (ported, True)):
            d_out = nvidia.allocator.malloc(n * 8)
            if is_ompx:
                ompx.target_teams_bare(nvidia, 1, 32, kern, (d_out, n))
            else:
                cuda.launch(kern, 1, 32, (d_out, n), device=nvidia)
                nvidia.synchronize()
            out = np.zeros(n, dtype=np.int64)
            nvidia.allocator.memcpy_d2h(out, d_out)
            nvidia.allocator.free(d_out)
            outputs.append(out)
        assert np.array_equal(outputs[0], outputs[1])

    def test_sync_free_flag_preserved(self):
        ported = port_kernel(atomic_kernel)
        assert ported.sync_free

    def test_sync_free_override(self):
        ported = port_kernel(atomic_kernel, sync_free=False)
        assert not ported.sync_free

    def test_ported_kernel_keeps_globals(self, nvidia):
        """Device helpers from the original module keep resolving."""
        from repro.apps.stencil1d import stencil_cuda_kernel

        ported = port_kernel(stencil_cuda_kernel)
        n, r, block = 128, 2, 32
        rng = np.random.default_rng(0)
        data = rng.random(n)
        d_a = nvidia.allocator.malloc(n * 8)
        d_b = nvidia.allocator.malloc(n * 8)
        nvidia.allocator.memcpy_h2d(d_a, data)
        ompx.target_teams_bare(nvidia, (n + block - 1) // block, block, ported, (d_a, d_b, n, r))
        out = np.zeros(n)
        nvidia.allocator.memcpy_d2h(out, d_b)
        padded = np.zeros(n + 2 * r)
        padded[r:r + n] = data
        expected = np.lib.stride_tricks.sliding_window_view(padded, 2 * r + 1).sum(axis=1)
        assert np.allclose(out, expected)
        for p in (d_a, d_b):
            nvidia.allocator.free(p)
