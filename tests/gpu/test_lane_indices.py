"""Lane indices and the load/store intrinsics of the lane-batched engines."""

import numpy as np
import pytest

from repro import faults
from repro.errors import LaunchError, MemcheckError
from repro.gpu import LaunchConfig, launch_kernel
from repro.gpu.dim import Dim3, delinearize
from repro.gpu.vector import VectorThreadCtx

# (grid, block, lane range): whole launches, chunks whose bounds cut
# through a block, one lane, exactly one block, 1-element blocks.
VECTOR_BATCHES = [
    (Dim3(5), Dim3(32), range(0, 160)),
    (Dim3(5), Dim3(32), range(40, 130)),
    (Dim3(3, 2), Dim3(8, 4), range(0, 192)),
    (Dim3(3, 2), Dim3(8, 4), range(17, 150)),
    (Dim3(2, 3, 2), Dim3(4, 2, 3), range(5, 250)),
    (Dim3(2, 3, 2), Dim3(4, 2, 3), range(30, 31)),
    (Dim3(2, 3, 2), Dim3(4, 2, 3), range(24, 48)),
    (Dim3(7), Dim3(1), range(2, 6)),
    (Dim3(1, 4), Dim3(1, 1, 6), range(3, 20)),
]


def _expected(grid, block, flat_ids, warp):
    per_lane = {name: [] for name in (
        "block_x", "block_y", "block_z", "thread_x", "thread_y", "thread_z",
        "flat_block", "flat_thread", "lane", "warp")}
    for g in flat_ids:
        fb, ft = divmod(g, block.volume)
        b, t = delinearize(fb, grid), delinearize(ft, block)
        for axis in "xyz":
            per_lane[f"block_{axis}"].append(getattr(b, axis))
            per_lane[f"thread_{axis}"].append(getattr(t, axis))
        per_lane["flat_block"].append(fb)
        per_lane["flat_thread"].append(ft)
        per_lane["lane"].append(ft % warp)
        per_lane["warp"].append(ft // warp)
    return {k: np.array(v, dtype=np.int64) for k, v in per_lane.items()}


def _check_indices(ctx, grid, block, lanes):
    want = _expected(grid, block, lanes, ctx.warp_size)
    assert ctx.lanes == len(lanes)
    assert np.array_equal(ctx.global_flat_id, np.array(lanes))
    assert np.array_equal(ctx.flat_block_id, want["flat_block"])
    assert np.array_equal(ctx.flat_thread_id, want["flat_thread"])
    assert np.array_equal(ctx.lane_id, want["lane"])
    assert np.array_equal(ctx.warp_id, want["warp"])
    for axis in "xyz":
        assert np.array_equal(getattr(ctx.block_idx, axis), want[f"block_{axis}"])
        assert np.array_equal(getattr(ctx.thread_idx, axis), want[f"thread_{axis}"])
        assert np.array_equal(
            getattr(ctx, f"global_id_{axis}"),
            want[f"block_{axis}"] * getattr(block, axis) + want[f"thread_{axis}"],
        )


@pytest.mark.parametrize("grid,block,lanes", VECTOR_BATCHES)
def test_vector_indices_equal_delinearize(nvidia, grid, block, lanes):
    ctx = VectorThreadCtx(nvidia, grid, block, mode="vector", lanes=lanes)
    _check_indices(ctx, grid, block, lanes)


@pytest.mark.parametrize("grid,block,blocks", [
    (Dim3(6), Dim3(16), range(2, 5)),
    (Dim3(6), Dim3(16), range(5, 6)),
    (Dim3(2, 3), Dim3(4, 4, 2), range(1, 6)),
    (Dim3(2, 2, 3), Dim3(2, 3, 4), range(0, 12)),
])
def test_wave_indices_equal_delinearize(amd, grid, block, blocks):
    v = block.volume
    lanes = range(blocks.start * v, blocks.stop * v)
    ctx = VectorThreadCtx(amd, grid, block, mode="wave", lanes=lanes)
    _check_indices(ctx, grid, block, lanes)


def test_wave_batch_must_cover_whole_blocks(nvidia):
    with pytest.raises(ValueError, match="whole blocks"):
        VectorThreadCtx(nvidia, Dim3(4), Dim3(8), mode="wave", lanes=range(4, 16))


class TestReadOnlyIndices:
    def ctx(self, nvidia, grid=Dim3(4), block=Dim3(32), lanes=range(0, 128)):
        return VectorThreadCtx(nvidia, grid, block, mode="vector", lanes=lanes)

    def test_equal_indices_share_one_array(self, nvidia):
        ctx = self.ctx(nvidia)
        assert ctx.thread_idx.x is ctx.flat_thread_id
        assert ctx.block_idx.x is ctx.flat_block_id
        assert ctx.global_id_x is ctx.global_flat_id
        assert ctx.block_idx.y is not None and not ctx.block_idx.y.any()

    @pytest.mark.parametrize("name", [
        "global_flat_id", "global_id_x", "global_id_y", "flat_thread_id",
        "flat_block_id", "lane_id", "warp_id",
    ])
    def test_writing_an_index_raises(self, nvidia, name):
        ctx = self.ctx(nvidia, grid=Dim3(2, 2), block=Dim3(8, 2), lanes=range(3, 60))
        with pytest.raises(ValueError, match="read-only"):
            getattr(ctx, name)[0] = 99

    @pytest.mark.parametrize("axis", "xyz")
    def test_writing_a_dim3_component_raises(self, nvidia, axis):
        ctx = self.ctx(nvidia)
        for idx in (ctx.block_idx, ctx.thread_idx):
            with pytest.raises(ValueError, match="read-only"):
                getattr(idx, axis)[...] += 1

    def test_in_place_arithmetic_on_an_alias_raises(self, nvidia):
        ctx = self.ctx(nvidia)
        gid = ctx.global_id_x
        with pytest.raises(ValueError, match="read-only"):
            gid += 1
        assert np.array_equal(ctx.global_flat_id, np.arange(128))

    def test_derived_indices_are_writable_copies(self, nvidia):
        ctx = self.ctx(nvidia)
        i = ctx.block_idx.x * ctx.block_dim.x + ctx.thread_idx.x
        i[0] = 7
        assert ctx.global_flat_id[0] == 0


def _scalar_load(view, index, fill):
    return np.array([view[i] if 0 <= i < len(view) else fill for i in index],
                    dtype=view.dtype)


def _scalar_store(view, index, value, mask):
    out = view.copy()
    value = np.broadcast_to(np.asarray(value, dtype=view.dtype), np.shape(index))
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), np.shape(index))
    for i, v, m in zip(index, value, mask):
        if m and 0 <= i < len(out):
            out[i] = v
    return out


class TestLoadStorePaths:
    """The one-check gather/scatter equals the masked path lane for lane."""

    @pytest.fixture
    def ctx(self, nvidia):
        return VectorThreadCtx(nvidia, Dim3(2), Dim3(8), mode="vector", lanes=range(16))

    @pytest.mark.parametrize("index,idx_dtype", [
        ([0, 3, 9, 9, 2, 2, 11, 0], np.int64),       # in range, with duplicates
        ([0, 3, 9, 9, 2, 2, 11, 0], np.int32),
        ([0, 3, 9, 9, 2, 2, 11, 0], np.uint16),
        ([0, 3, -1, 9, 12, 2, -7, 11], np.int64),    # negative and out-of-range lanes
        ([0, 3, -1, 9, 12, 2, -7, 11], np.int32),
        ([5, 5, 5, 5, 5, 5, 5, 5], np.int64),        # one address for every lane
    ])
    def test_load(self, ctx, index, idx_dtype):
        view = np.arange(12, dtype=np.float32) * 1.5
        index = np.array(index)
        idx = index.astype(idx_dtype)
        got = ctx.load(view, idx, fill=-2.0)
        want = _scalar_load(view, index, np.float32(-2.0))
        assert got.dtype == view.dtype
        assert np.array_equal(got, want)
        # The same lanes plus one out-of-range lane take the masked path.
        masked = ctx.load(view, np.append(idx, idx_dtype(13)), fill=-2.0)
        assert np.array_equal(masked[:-1], got) and masked[-1] == np.float32(-2.0)

    @pytest.mark.parametrize("index", [
        [0, 3, 9, 9, 2, 2, 11, 0],
        [0, 3, -1, 9, 12, 2, -7, 11],
    ], ids=["in-range", "out-of-range"])
    @pytest.mark.parametrize("mask", [
        True,
        [True] * 8,
        [True, False, True, True, False, True, True, False],
    ], ids=["unmasked", "all-true", "masked"])
    @pytest.mark.parametrize("view_dtype", [np.float64, np.float32, np.int32])
    def test_store(self, ctx, index, mask, view_dtype):
        view = np.zeros(12, dtype=view_dtype)
        value = np.array([1.75, -2.5, 3.25, 4.5, 5.75, 6.5, 7.25, 8.5])
        want = _scalar_store(view, index, value, mask)
        ctx.store(view, np.array(index), value, mask=mask)
        assert np.array_equal(view, want)
        # The same store plus one masked-out lane takes the masked path.
        again = np.zeros(12, dtype=view_dtype)
        ctx.store(again, np.append(index, 4), np.append(value, 9.0),
                  mask=np.append(np.broadcast_to(mask, (8,)), False))
        assert np.array_equal(again, want)

    def test_duplicate_indices_keep_the_last_lane(self, ctx):
        view = np.zeros(4)
        ctx.store(view, np.array([1, 1, 1, 2]), np.array([5.0, 6.0, 7.0, 8.0]))
        assert np.array_equal(view, [0.0, 7.0, 8.0, 0.0])

    def test_scalar_value_broadcasts(self, ctx):
        view = np.zeros(4, dtype=np.int64)
        ctx.store(view, np.array([0, 2]), 3.9)
        assert np.array_equal(view, [3, 0, 3, 0])

    def test_block_shared_fast_and_masked_paths(self, nvidia):
        grid, block = Dim3(3), Dim3(4)
        ctx = VectorThreadCtx(nvidia, grid, block, mode="wave", lanes=range(12))
        tile = ctx.shared_array("tile", 4, np.float64)
        rev = 3 - ctx.flat_thread_id
        ctx.store(tile, ctx.flat_thread_id, ctx.global_flat_id * 1.0)
        assert np.array_equal(ctx.load(tile, rev),
                              (ctx.flat_block_id * 4 + rev) * 1.0)
        # Masked-out lanes leave their own block's copy alone.
        keep = ctx.flat_block_id != 1
        ctx.store(tile, ctx.flat_thread_id, -1.0, mask=keep)
        got = ctx.load(tile, ctx.flat_thread_id)
        assert np.array_equal(got, np.where(keep, -1.0, ctx.global_flat_id * 1.0))
        # An out-of-range lane (thread 3 reading index 4) only reads its
        # fill; the others read the next lane's element of their block.
        oob = ctx.load(tile, ctx.flat_thread_id + 1, fill=9.0)
        nxt = np.append(got[1:], 0.0)
        assert np.array_equal(oob, np.where(ctx.flat_thread_id == 3, 9.0, nxt))

    def test_empty_index_vector(self, ctx):
        view = np.arange(4.0)
        assert ctx.load(view, np.array([], dtype=np.int64)).shape == (0,)
        ctx.store(view, np.array([], dtype=np.int64), np.array([]))
        assert np.array_equal(view, np.arange(4.0))


def test_masked_in_out_of_range_store_raises_under_memcheck(nvidia):
    ctx = VectorThreadCtx(nvidia, Dim3(1), Dim3(8), mode="vector", lanes=range(8))
    ptr = nvidia.allocator.malloc(64)
    view = nvidia.allocator.view(ptr, 8, np.float64)
    try:
        with faults.memcheck():
            ctx.store(view, ctx.flat_thread_id, 1.0)   # in range: fine
            ctx.store(view, ctx.flat_thread_id + 1, 1.0, mask=ctx.flat_thread_id < 7)
            with pytest.raises(MemcheckError):
                ctx.store(view, ctx.flat_thread_id + 1, 1.0)
    finally:
        nvidia.allocator.free(ptr)


@pytest.mark.parametrize("engine", ["map", "block-thread", "vector", "wave"])
def test_load_from_an_empty_view_returns_fill(nvidia, engine):
    """A 2x32 launch reading a 0-length array sees ``fill`` in every lane."""
    n = 64

    def kernel(ctx, d_empty, d_out):
        empty = ctx.deref(d_empty, 0, np.float64)
        out = ctx.deref(d_out, n, np.float64)
        i = ctx.global_flat_id
        ctx.store(out, i, ctx.load(empty, i, fill=7.0))

    kernel.sync_free = engine in ("map", "vector")
    alloc = nvidia.allocator
    d_empty, d_out = alloc.malloc(0), alloc.malloc(n * 8)
    try:
        stats = launch_kernel(LaunchConfig.create(2, 32, engine=engine), kernel,
                              (d_empty, d_out), nvidia)
        assert stats.engine == engine
        out = np.zeros(n)
        alloc.memcpy_d2h(out, d_out)
        assert np.array_equal(out, np.full(n, 7.0))
    finally:
        alloc.free(d_empty)
        alloc.free(d_out)


@pytest.mark.parametrize("engine", ["map", "block-thread", "vector", "wave"])
def test_float_indices_truncate_toward_zero(nvidia, engine):
    """A 2x32 launch indexing with floats reads and writes what ``int()``
    gives every lane: -0.25 reads element 0, -1.5 and 77.25 read ``fill``,
    and a masked-out store lane holding NaN is never converted."""
    n = 64

    def kernel(ctx, d_src, d_out, d_dst):
        src = ctx.deref(d_src, n, np.float64)
        out = ctx.deref(d_out, n, np.float64)
        dst = ctx.deref(d_dst, n, np.float64)
        i = ctx.global_flat_id
        ctx.store(out, i, ctx.load(src, i * 1.25 - 1.5, fill=-1.0))
        even = i % 2 == 0
        ctx.store(dst, np.where(even, i * 0.5, np.nan), i * 1.0, mask=even)

    kernel.sync_free = engine in ("map", "vector")
    alloc = nvidia.allocator
    src = np.arange(n) * 10.0
    d_src, d_out, d_dst = alloc.malloc(n * 8), alloc.malloc(n * 8), alloc.malloc(n * 8)
    try:
        alloc.memcpy_h2d(d_src, src)
        alloc.memset(d_dst, 0, n * 8)
        stats = launch_kernel(LaunchConfig.create(2, 32, engine=engine), kernel,
                              (d_src, d_out, d_dst), nvidia)
        assert stats.engine == engine
        out, dst = np.zeros(n), np.zeros(n)
        alloc.memcpy_d2h(out, d_out)
        alloc.memcpy_d2h(dst, d_dst)
        want = [src[int(f)] if 0 <= int(f) < n else -1.0
                for f in np.arange(n) * 1.25 - 1.5]
        assert np.array_equal(out, want)
        assert np.array_equal(dst, np.append(np.arange(0.0, n, 2), np.zeros(n // 2)))
    finally:
        for ptr in (d_src, d_out, d_dst):
            alloc.free(ptr)


@pytest.mark.parametrize("engine", ["map", "block-thread", "vector", "wave"])
@pytest.mark.parametrize("bad,error", [(np.nan, ValueError), (np.inf, OverflowError)],
                         ids=["nan", "inf"])
def test_a_non_finite_float_index_fails_like_int(nvidia, engine, bad, error):
    """Lane 5 loading at NaN or infinity fails the launch with the error
    ``int()`` raises, on every engine."""

    def kernel(ctx, d_src):
        src = ctx.deref(d_src, 4, np.float64)
        i = ctx.global_flat_id
        ctx.load(src, np.where(i == 5, bad, 0.0))

    kernel.sync_free = engine in ("map", "vector")
    d_src = nvidia.allocator.malloc(32)
    try:
        with pytest.raises(LaunchError) as failure:
            launch_kernel(LaunchConfig.create(2, 32, engine=engine), kernel,
                          (d_src,), nvidia)
        assert isinstance(failure.value.__cause__, error)
    finally:
        nvidia.allocator.free(d_src)
