"""Execution engines: SIMT semantics, the sync-free fast path, failure modes."""

import numpy as np
import pytest

from repro.errors import LaunchError, SyncError
from repro.gpu import LaunchConfig, launch_kernel
from repro.gpu.dim import Dim3
from repro.gpu.engine import (
    BlockThreadEngine,
    MapEngine,
    WaveVectorEngine,
    select_engine,
)


class TestEngineSelection:
    def test_default_is_cooperative(self):
        def kernel(ctx):
            pass

        assert isinstance(select_engine(kernel), BlockThreadEngine)

    def test_sync_free_straight_line_gets_vector_engine(self):
        def kernel(ctx):
            pass

        kernel.sync_free = True
        engine = select_engine(kernel)
        assert isinstance(engine, WaveVectorEngine)
        assert engine.name == "vector"

    def test_sync_free_divergent_gets_map_engine(self):
        # A divergent body the lowering pass declines (a per-thread while
        # loop) still runs one thread at a time on the map engine.
        def kernel(ctx):
            n = ctx.flat_thread_id
            while n > 0:
                n -= 1

        kernel.sync_free = True
        assert isinstance(select_engine(kernel), MapEngine)

        # The early-exit guard alone is lowered to a lane mask.
        def guarded(ctx):
            if ctx.flat_thread_id == 0:
                return

        guarded.sync_free = True
        assert select_engine(guarded).name == "vector"

    def test_barrier_straight_line_gets_wave_engine(self):
        def kernel(ctx):
            ctx.sync_threads()

        engine = select_engine(kernel)
        assert isinstance(engine, WaveVectorEngine)
        assert engine.name == "wave"

    def test_hint_overrides_analysis(self):
        def kernel(ctx):
            pass

        kernel.sync_free = True
        assert select_engine(kernel, hint="map").name == "map"
        assert select_engine(kernel, hint="block-thread").name == "block-thread"

    def test_unknown_hint_raises_structured_error(self):
        def kernel(ctx):
            pass

        with pytest.raises(LaunchError, match="unknown engine hint") as info:
            select_engine(kernel, hint="warp-speed")
        assert info.value.hint == "warp-speed"

    def test_vectorize_false_keeps_legacy_split(self):
        # vectorize=False is per-thread source, the default; a body the
        # lowering pass declines keeps the legacy scalar split.
        def kernel(ctx):
            raise ValueError("declined: raise")

        kernel.sync_free = True
        kernel.vectorize = False
        assert isinstance(select_engine(kernel), MapEngine)

        # A body the pass lowers runs lowered on the vector engine.
        def lowered(ctx):
            pass

        lowered.sync_free = True
        lowered.vectorize = False
        assert select_engine(lowered).name == "vector"


class TestBlockThreadEngine:
    def test_every_thread_runs_once(self, any_device):
        grid, block = 3, 16
        n = grid * block
        d_out = any_device.allocator.malloc(n * 8)

        def kernel(ctx, out):
            ctx.atomic.add(ctx.deref(out, n, np.int64), ctx.global_flat_id, 1)

        stats = launch_kernel(LaunchConfig.create(grid, block), kernel, (d_out,), any_device)
        out = np.zeros(n, dtype=np.int64)
        any_device.allocator.memcpy_d2h(out, d_out)
        assert (out == 1).all()
        assert stats.threads_run == n
        assert stats.blocks_run == grid
        any_device.allocator.free(d_out)

    def test_multidim_indices(self, nvidia):
        d_out = nvidia.allocator.malloc(2 * 3 * 4 * 8)

        def kernel(ctx, out):
            o = ctx.deref(out, (4, 3, 2), np.int64)
            o[ctx.thread_idx.z, ctx.thread_idx.y, ctx.thread_idx.x] = (
                100 * ctx.thread_idx.z + 10 * ctx.thread_idx.y + ctx.thread_idx.x
            )

        launch_kernel(LaunchConfig.create(1, (2, 3, 4)), kernel, (d_out,), nvidia)
        out = np.zeros((4, 3, 2), dtype=np.int64)
        nvidia.allocator.memcpy_d2h(out, d_out)
        for z in range(4):
            for y in range(3):
                for x in range(2):
                    assert out[z, y, x] == 100 * z + 10 * y + x
        nvidia.allocator.free(d_out)

    def test_kernel_exception_propagates(self, nvidia):
        def kernel(ctx):
            if ctx.flat_thread_id == 3:
                raise ValueError("boom from thread 3")

        with pytest.raises(LaunchError, match="thread 3"):
            launch_kernel(LaunchConfig.create(1, 8), kernel, (), nvidia)

    def test_shared_memory_is_per_block(self, nvidia):
        """Each block's shared accumulator starts fresh."""
        grid = 4
        d_out = nvidia.allocator.malloc(grid * 8)

        def kernel(ctx, out):
            acc = ctx.shared_array("acc", 1, np.int64)
            ctx.atomic.add(acc, 0, 1)
            ctx.sync_threads()
            if ctx.flat_thread_id == 0:
                ctx.deref(out, 4, np.int64)[ctx.flat_block_id] = acc[0]

        launch_kernel(LaunchConfig.create(grid, 8), kernel, (d_out,), nvidia)
        out = np.zeros(grid, dtype=np.int64)
        nvidia.allocator.memcpy_d2h(out, d_out)
        assert (out == 8).all()
        nvidia.allocator.free(d_out)

    def test_guard_rail_on_huge_launch(self, nvidia):
        def kernel(ctx):
            pass

        with pytest.raises(LaunchError, match="guard rail"):
            launch_kernel(LaunchConfig.create(100_000, 1024), kernel, (), nvidia
            )

    def test_dynamic_shared_via_config(self, nvidia):
        d_out = nvidia.allocator.malloc(8)

        def kernel(ctx, out):
            dyn = ctx.dynamic_shared(np.float64)
            if ctx.flat_thread_id == 0:
                dyn[0] = 2.5
            ctx.sync_threads()
            if ctx.flat_thread_id == 1:
                ctx.deref(out, 1, np.float64)[0] = dyn[0]

        launch_kernel(LaunchConfig.create(1, 2, shared_bytes=64), kernel, (d_out,), nvidia
        )
        out = np.zeros(1)
        nvidia.allocator.memcpy_d2h(out, d_out)
        assert out[0] == 2.5
        nvidia.allocator.free(d_out)

    @pytest.mark.parametrize("engine", [None, "block-thread", "wave"])
    def test_dynamic_shared_via_config_per_block(self, nvidia, engine):
        grid = 5
        d_out = nvidia.allocator.malloc(grid * 8)

        def kernel(ctx, out):
            dyn = ctx.dynamic_shared(np.float64)
            if ctx.flat_thread_id == 0:
                dyn[0] = 2.5 + ctx.flat_block_id
            ctx.sync_threads()
            if ctx.flat_thread_id == 1:
                ctx.deref(out, grid, np.float64)[ctx.flat_block_id] = dyn[0]

        stats = launch_kernel(
            LaunchConfig.create(grid, 2, shared_bytes=64, engine=engine),
            kernel, (d_out,), nvidia,
        )
        assert stats.engine == (engine or "wave")
        out = np.zeros(grid)
        nvidia.allocator.memcpy_d2h(out, d_out)
        assert np.array_equal(out, 2.5 + np.arange(grid))
        nvidia.allocator.free(d_out)


class TestMapEngine:
    def test_runs_all_threads(self, any_device):
        def kernel(ctx, out):
            ctx.deref(out, 64, np.int64)[ctx.global_flat_id] = ctx.global_flat_id

        kernel.sync_free = True
        d_out = any_device.allocator.malloc(64 * 8)
        stats = launch_kernel(LaunchConfig.create(4, 16, engine="map"), kernel, (d_out,), any_device)
        assert stats.engine == "map"
        out = np.zeros(64, dtype=np.int64)
        any_device.allocator.memcpy_d2h(out, d_out)
        assert np.array_equal(out, np.arange(64))
        any_device.allocator.free(d_out)

    def test_sync_under_map_engine_raises(self, nvidia):
        def kernel(ctx):
            ctx.sync_threads()

        kernel.sync_free = True
        with pytest.raises(LaunchError, match="sync-free"):
            launch_kernel(LaunchConfig.create(1, 4), kernel, (), nvidia)

    def test_warp_collective_under_map_engine_raises(self, nvidia):
        def kernel(ctx):
            ctx.shfl_sync(1, 0)

        kernel.sync_free = True
        with pytest.raises(LaunchError, match="sync-free"):
            launch_kernel(LaunchConfig.create(1, 4), kernel, (), nvidia)

    def test_atomics_still_work(self, nvidia):
        def kernel(ctx, out):
            ctx.atomic.add(ctx.deref(out, 1, np.int64), 0, 1)

        kernel.sync_free = True
        d_out = nvidia.allocator.malloc(8)
        launch_kernel(LaunchConfig.create(2, 32), kernel, (d_out,), nvidia)
        out = np.zeros(1, dtype=np.int64)
        nvidia.allocator.memcpy_d2h(out, d_out)
        assert out[0] == 64
        nvidia.allocator.free(d_out)


class TestThreadCtxIdentities:
    def test_global_id_composition(self, nvidia):
        hits = []

        def kernel(ctx):
            assert ctx.global_id_x == ctx.block_idx.x * ctx.block_dim.x + ctx.thread_idx.x
            assert ctx.global_flat_id == ctx.flat_block_id * ctx.num_threads + ctx.flat_thread_id
            assert ctx.warp_id == ctx.flat_thread_id // ctx.warp_size
            assert ctx.lane_id == ctx.flat_thread_id % ctx.warp_size
            hits.append(1)

        kernel.sync_free = True
        launch_kernel(LaunchConfig.create(2, 48), kernel, (), nvidia)
        assert len(hits) == 96


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
@pytest.mark.parametrize("engine", ["map", "vector", "wave", "block-thread"])
def test_an_interrupt_in_a_kernel_propagates_as_itself(nvidia, engine, interrupt):
    """A Ctrl-C or exit inside a kernel is not a launch failure: it
    reaches the caller as itself, not wrapped in a LaunchError that a
    resilient pool would retry."""

    def kernel(ctx):
        raise interrupt("stop")

    with pytest.raises(interrupt, match="stop"):
        launch_kernel(LaunchConfig.create(1, 32, engine=engine), kernel, (), nvidia)
