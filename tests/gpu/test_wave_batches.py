"""Wave batches of many whole blocks, each block with its own shared memory.

The ``wave`` engine runs a cooperative launch in lane batches of whole
blocks, bounded by lane count and by the shared memory the batch stacks.
Shared arrays are block-stacked and indexed per lane; whole-array use is
refused.  The app-level agreement with ``block-thread`` across batch
splits is in ``test_engine_equivalence.py``.
"""

import numpy as np
import pytest

import repro.gpu.engine as engine_mod
from repro import faults
from repro.errors import LaunchError, MemcheckError
from repro.gpu import LaunchConfig, get_device, launch_kernel


@pytest.fixture
def clean_device():
    """Device 0, reset before and after (a memcheck hit poisons it)."""
    device = get_device(0)
    device.reset()
    yield device
    device.reset()


def _batch_log():
    seen = []

    def kernel(ctx):
        ctx.sync_threads()
        blocks = ctx.flat_block_id
        seen.append((int(blocks[0]), int(blocks[-1]) + 1, ctx.lanes))

    kernel.vectorize = True
    return kernel, seen


def test_batches_are_whole_block_ranges_up_to_the_lane_bound(monkeypatch, nvidia):
    monkeypatch.setattr(engine_mod, "_VECTOR_CHUNK_THREADS", 3 * 16)
    kernel, seen = _batch_log()
    stats = launch_kernel(LaunchConfig.create(7, 16), kernel, (), nvidia)
    assert stats.engine == "wave"
    assert seen == [(0, 3, 48), (3, 6, 48), (6, 7, 16)]
    assert (stats.blocks_run, stats.threads_run, stats.barriers) == (7, 112, 112)


def test_stacked_shared_bytes_bound_the_batch(monkeypatch, nvidia):
    # Each block may hold up to the device's per-block limit, so the
    # shared bound caps small-block batches long before the lane bound.
    monkeypatch.setattr(engine_mod, "_WAVE_CHUNK_SHARED_BYTES",
                        2 * nvidia.spec.shared_mem_per_block)
    kernel, seen = _batch_log()
    launch_kernel(LaunchConfig.create(5, 1), kernel, (), nvidia)
    assert seen == [(0, 2, 2), (2, 4, 2), (4, 5, 1)]


def test_a_failing_batch_names_its_block_range(monkeypatch, nvidia):
    monkeypatch.setattr(engine_mod, "_VECTOR_CHUNK_THREADS", 2 * 8)

    def kernel(ctx):
        ctx.sync_threads()
        if np.any(ctx.flat_block_id == 3):
            raise ValueError("block 3 refuses")

    kernel.vectorize = True
    with pytest.raises(LaunchError, match=r"blocks \[2, 4\) \(wave batch of 16 lanes\)") as info:
        launch_kernel(LaunchConfig.create(5, 8), kernel, (), nvidia)
    assert info.value.engine == "wave"
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("whole_array_op", [
    lambda tile: tile.sum(),
    lambda tile: np.sum(tile),
    lambda tile: np.asarray(tile),
    lambda tile: tile * 2.0,
    lambda tile: np.zeros(4) + tile,
], ids=["method", "function", "asarray", "operator", "ufunc"])
def test_whole_array_use_of_shared_memory_is_refused(nvidia, whole_array_op):
    def kernel(ctx):
        tile = ctx.shared_array("tile", 4, np.float64)
        ctx.store(tile, ctx.flat_thread_id, 1.0)
        ctx.sync_threads()
        whole_array_op(tile)

    kernel.vectorize = True
    with pytest.raises(LaunchError, match="indexed per lane") as info:
        launch_kernel(LaunchConfig.create(3, 4), kernel, (), nvidia)
    assert info.value.engine == "wave"


def test_memcheck_flags_an_oob_shared_store_in_a_multi_block_batch(clean_device):
    def kernel(ctx):
        tile = ctx.shared_array("tile", 8, np.float64)
        # Block 2's thread 0 stores past its tile; every other lane is in range.
        bad = (ctx.flat_block_id == 2) & (ctx.flat_thread_id == 0)
        ctx.store(tile, np.where(bad, 8, ctx.flat_thread_id), 1.0)
        ctx.sync_threads()

    kernel.vectorize = True
    with faults.memcheck() as mc:
        with pytest.raises(LaunchError) as info:
            launch_kernel(LaunchConfig.create(4, 8), kernel, (), clean_device)
    cause = info.value.__cause__
    assert isinstance(cause, MemcheckError)
    assert "index 8" in str(cause) and "host-backed" in str(cause)
    assert info.value.engine == "wave"
    assert mc.report.oob_stores == 1
