"""WaveVectorEngine behaviour: lane batching, wave barriers, guard rails."""

import numpy as np
import pytest

from repro.errors import LaunchError
from repro.gpu import LaunchConfig, launch_kernel
from repro.gpu.dim import Dim3
from repro.gpu.engine import (
    _MAX_MAP_THREADS,
    _MAX_VECTOR_THREADS,
    _VECTOR_CHUNK_THREADS,
)
from repro.gpu.vector import VectorThreadCtx


class TestVectorMode:
    def test_lane_batched_result_matches_indices(self, nvidia):
        """Straight-line sync-free kernels execute array-at-a-time."""
        grid, block = 6, 32
        n = grid * block

        def kernel(ctx, out):
            view = ctx.deref(out, n, np.float64)
            ctx.store(view, ctx.global_flat_id, ctx.global_flat_id * 2.0)

        kernel.sync_free = True
        d_out = nvidia.allocator.malloc(n * 8)
        stats = launch_kernel(LaunchConfig.create(grid, block), kernel, (d_out,), nvidia)
        assert stats.engine == "vector"
        assert stats.threads_run == n
        assert stats.blocks_run == grid
        out = np.zeros(n)
        nvidia.allocator.memcpy_d2h(out, d_out)
        assert np.array_equal(out, np.arange(n) * 2.0)
        nvidia.allocator.free(d_out)

    def test_chunking_across_batches_is_seamless(self, nvidia):
        """A launch bigger than one lane chunk still covers every thread."""
        block = 256
        grid = _VECTOR_CHUNK_THREADS // block + 1  # one full chunk + one partial
        n = grid * block
        assert n > _VECTOR_CHUNK_THREADS

        def kernel(ctx, out):
            view = ctx.deref(out, n, np.int64)
            ctx.store(view, ctx.global_flat_id, ctx.global_flat_id)

        kernel.sync_free = True
        d_out = nvidia.allocator.malloc(n * 8)
        stats = launch_kernel(LaunchConfig.create(grid, block), kernel, (d_out,), nvidia)
        assert stats.engine == "vector"
        assert stats.threads_run == n
        out = np.zeros(n, dtype=np.int64)
        nvidia.allocator.memcpy_d2h(out, d_out)
        assert np.array_equal(out, np.arange(n))
        nvidia.allocator.free(d_out)

    def test_index_identities_hold_per_lane(self, nvidia):
        grid, block = Dim3(3, 2, 1), Dim3(8, 4, 1)
        ctx = VectorThreadCtx(
            nvidia, grid, block,
            mode="vector", lanes=range(grid.volume * block.volume),
        )
        assert np.array_equal(
            ctx.global_id_x, ctx.block_idx.x * block.x + ctx.thread_idx.x
        )
        assert np.array_equal(
            ctx.global_flat_id,
            ctx.flat_block_id * ctx.num_threads + ctx.flat_thread_id,
        )
        assert np.array_equal(ctx.lane_id, ctx.flat_thread_id % ctx.warp_size)

    def test_sync_raises(self, nvidia):
        def kernel(ctx):
            ctx.sync_threads()

        kernel.sync_free = True
        with pytest.raises(LaunchError, match="sync-free"):
            launch_kernel(
                LaunchConfig.create(1, 8, engine="vector"), kernel, (), nvidia
            )

    def test_warp_collective_raises(self, nvidia):
        def kernel(ctx):
            ctx.shfl_down_sync(ctx.lane_id, 1)

        kernel.sync_free = True
        with pytest.raises(LaunchError, match="cannot be vectorized"):
            launch_kernel(
                LaunchConfig.create(1, 8, engine="vector"), kernel, (), nvidia
            )

    def test_atomic_raises(self, nvidia):
        d = nvidia.allocator.malloc(8)

        def kernel(ctx, ptr):
            ctx.atomic.add(ctx.deref(ptr, 1, np.int64), 0, 1)

        kernel.sync_free = True
        with pytest.raises(LaunchError, match="cannot be vectorized"):
            launch_kernel(
                LaunchConfig.create(1, 8, engine="vector"), kernel, (d,), nvidia
            )
        nvidia.allocator.free(d)

    def test_shared_memory_raises(self, nvidia):
        def kernel(ctx):
            ctx.shared_array("tile", 4, np.float64)

        kernel.sync_free = True
        with pytest.raises(LaunchError, match="sync-free vector engine"):
            launch_kernel(
                LaunchConfig.create(1, 8, engine="vector"), kernel, (), nvidia
            )


class TestWaveMode:
    def test_shared_memory_and_barrier_work(self, nvidia):
        """Wave batches see real per-block shared memory across a barrier."""
        grid, block = 4, 16
        n = grid * block

        def kernel(ctx, d_in, d_out):
            tile = ctx.shared_array("tile", block, np.float64)
            vin = ctx.deref(d_in, n, np.float64)
            ctx.store(tile, ctx.flat_thread_id, ctx.load(vin, ctx.global_flat_id))
            ctx.sync_threads()
            rev = block - 1 - ctx.flat_thread_id
            vout = ctx.deref(d_out, n, np.float64)
            ctx.store(vout, ctx.global_flat_id, ctx.load(tile, rev))

        data = np.arange(n, dtype=np.float64)
        d_in = nvidia.allocator.malloc(n * 8)
        d_out = nvidia.allocator.malloc(n * 8)
        nvidia.allocator.memcpy_h2d(d_in, data)
        stats = launch_kernel(
            LaunchConfig.create(grid, block), kernel, (d_in, d_out), nvidia
        )
        assert stats.engine == "wave"
        assert stats.barriers == n  # one barrier per simulated thread
        assert stats.shared_declarations == n
        out = np.zeros(n)
        nvidia.allocator.memcpy_d2h(out, d_out)
        expected = data.reshape(grid, block)[:, ::-1].ravel()
        assert np.array_equal(out, expected)
        for ptr in (d_in, d_out):
            nvidia.allocator.free(ptr)

    def test_dynamic_shared_works(self, nvidia):
        def kernel(ctx, out):
            dyn = ctx.dynamic_shared(np.float64)
            ctx.store(dyn, ctx.flat_thread_id, ctx.flat_thread_id + 0.5)
            ctx.sync_threads()
            view = ctx.deref(out, 4, np.float64)
            ctx.store(view, ctx.flat_thread_id, ctx.load(dyn, 3 - ctx.flat_thread_id))

        d_out = nvidia.allocator.malloc(4 * 8)
        launch_kernel(
            LaunchConfig.create(1, 4, shared_bytes=64, engine="wave"),
            kernel, (d_out,), nvidia,
        )
        out = np.zeros(4)
        nvidia.allocator.memcpy_d2h(out, d_out)
        assert np.array_equal(out, [3.5, 2.5, 1.5, 0.5])
        nvidia.allocator.free(d_out)

    def test_wave_blocks_do_not_share_shared_memory(self, nvidia):
        # 300 blocks run as one wave batch: each lane must still see only
        # its own block's copy of ``acc``.
        grid, block = 300, 4
        n = grid * block

        def kernel(ctx, out):
            acc = ctx.shared_array("acc", 1, np.float64)
            ctx.store(acc, 0, ctx.flat_block_id * 10.0)
            ctx.sync_threads()
            view = ctx.deref(out, n, np.float64)
            ctx.store(view, ctx.global_flat_id, ctx.load(acc, 0))

        d_out = nvidia.allocator.malloc(n * 8)
        stats = launch_kernel(
            LaunchConfig.create(grid, block, engine="wave"), kernel, (d_out,), nvidia
        )
        assert stats.blocks_run == grid
        out = np.zeros(n)
        nvidia.allocator.memcpy_d2h(out, d_out)
        expected = np.repeat(np.arange(grid) * 10.0, block)
        assert np.array_equal(out, expected)
        nvidia.allocator.free(d_out)


class TestGuardRails:
    def test_vector_cap_is_structured(self, nvidia):
        def kernel(ctx):
            pass

        kernel.sync_free = True
        total = (1 << 21) * 256  # 2**29 > the 2**28 vector cap
        with pytest.raises(LaunchError, match="guard rail") as info:
            launch_kernel(
                LaunchConfig.create(1 << 21, 256, engine="vector"), kernel, (), nvidia
            )
        err = info.value
        assert err.engine == "vector"
        assert err.cap == _MAX_VECTOR_THREADS
        assert err.requested == total
        assert "shard" in err.hint

    def test_map_cap_suggests_vector_path(self, nvidia):
        def kernel(ctx):
            pass

        kernel.sync_free = True
        with pytest.raises(LaunchError, match="guard rail") as info:
            launch_kernel(
                LaunchConfig.create(100_000, 256, engine="map"), kernel, (), nvidia
            )
        err = info.value
        assert err.engine == "map"
        assert err.cap == _MAX_MAP_THREADS
        assert err.requested == 100_000 * 256
        assert "vectorize=True" in err.hint

    def test_paper_scale_sync_free_launch_is_accepted(self, nvidia):
        """Fig. 6 sizes (tens of millions of threads) now actually run."""
        block = 256
        grid = (1 << 24) // block  # 16.7M threads: over the map cap's reach

        def kernel(ctx):
            pass

        kernel.sync_free = True
        stats = launch_kernel(LaunchConfig.create(grid, block), kernel, (), nvidia)
        assert stats.engine == "vector"
        assert stats.threads_run == 1 << 24
