"""The lowering pass: per-thread kernel bodies run on lane batches, exactly.

Each lowering rule gets a kernel that runs once on a scalar engine (one
simulated thread at a time) and once lowered on a lane-batched engine;
the outputs must be byte-identical (``tobytes``, so signed zeros and NaN
payloads count) and the ``KernelStats`` counters equal.  Each construct
the pass declines gets a kernel that must stay on its scalar engine.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from repro import faults, trace
from repro.compiler.lower import lower_kernel
from repro.errors import KernelFault, LaunchError
from repro.gpu import LaunchConfig, launch_kernel
from repro.gpu.engine import select_engine

_COUNTERS = (
    "threads_run", "blocks_run", "barriers", "warp_collectives",
    "global_derefs", "shared_declarations",
)


def _launch(device, kernel, grid, block, inputs, outputs, scalars, engine):
    """Upload ``inputs``, launch on ``engine``, return (outputs, stats)."""
    alloc = device.allocator
    ptrs = []
    for host in list(inputs) + list(outputs):
        ptr = alloc.malloc(max(host.nbytes, 1))
        alloc.memcpy_h2d(ptr, np.ascontiguousarray(host))
        ptrs.append(ptr)
    try:
        stats = launch_kernel(
            LaunchConfig.create(grid, block, engine=engine), kernel,
            (*ptrs, *scalars), device,
        )
        results = []
        for ptr, host in zip(ptrs[len(inputs):], outputs):
            out = np.empty_like(host)
            alloc.memcpy_d2h(out, ptr)
            results.append(out)
        return results, stats
    finally:
        for ptr in ptrs:
            alloc.free(ptr)


def _agree(device, kernel, grid, block, inputs, outputs, scalars=(),
           scalar="map", lanes="vector"):
    """Run scalar and lowered; require byte-identical outputs and stats."""
    assert lower_kernel(kernel).entry is not None, lower_kernel(kernel).reason
    ref, ref_stats = _launch(device, kernel, grid, block, inputs, outputs, scalars, scalar)
    got, got_stats = _launch(device, kernel, grid, block, inputs, outputs, scalars, lanes)
    for r, g in zip(ref, got):
        assert r.dtype == g.dtype
        assert r.tobytes() == g.tobytes(), f"{lanes} output differs from {scalar}"
    assert got_stats.engine == lanes
    assert [getattr(ref_stats, c) for c in _COUNTERS] == [
        getattr(got_stats, c) for c in _COUNTERS
    ]
    return got, got_stats


# --- lowering rules -------------------------------------------------------------

def guarded(ctx, d_src, d_out, n):
    i = ctx.global_flat_id
    if i >= n:
        return
    src = ctx.deref(d_src, n, np.float64)
    ctx.deref(d_out, n + 8, np.float64)[i] = src[i] * 2.0


guarded.sync_free = True


def test_guard_becomes_a_mask_and_dead_lanes_never_read_write_or_raise(nvidia):
    n = 70  # 96 lanes: lanes 70..95 would index src out of range
    src = np.arange(n, dtype=np.float64)
    out = np.full(n + 8, -1.0)
    (got,), stats = _agree(nvidia, guarded, 3, 32, [src], [out], (n,))
    assert np.array_equal(got[:n], src * 2.0)
    assert np.array_equal(got[n:], np.full(8, -1.0))  # dead lanes wrote nothing
    assert stats.global_derefs == 2 * n  # dead lanes dereference nothing
    assert select_engine(guarded).name == "vector"
    assert "_lw_andnot" in lower_kernel(guarded).source  # the guard's mask


def branchy(ctx, d_src, d_out, n):
    i = ctx.global_flat_id
    if i >= n:
        return
    v = ctx.deref(d_src, n, np.float64)[i]
    if v > 0.0:
        r = math.sqrt(v)  # raises on the else-lanes' negatives if unmasked
        k = 1
    else:
        r = -v
        k = 2
    out = ctx.deref(d_out, (n, 2), np.float64)
    out[i, 0] = r
    out[i, 1] = k


branchy.sync_free = True


def test_divergent_if_else_runs_both_sides_under_masks(nvidia):
    n = 50
    src = np.random.default_rng(1).standard_normal(n)
    (got,), _ = _agree(nvidia, branchy, 2, 32, [src], [np.zeros((n, 2))], (n,))
    assert np.array_equal(got[:, 1], np.where(src > 0.0, 1.0, 2.0))


def lookahead(ctx, d_src, d_out, n):
    i = ctx.global_flat_id
    if i >= n:
        return
    src = ctx.deref(d_src, n, np.float64)
    ctx.deref(d_out, n, np.float64)[i] = src[i + 1] - src[i] if i + 1 < n else -1.0


lookahead.sync_free = True


def test_conditional_expression_evaluates_each_side_for_its_lanes(nvidia):
    n = 40
    src = np.random.default_rng(2).random(n)
    (got,), _ = _agree(nvidia, lookahead, 2, 32, [src], [np.zeros(n)], (n,))
    assert got[-1] == -1.0


def ragged(ctx, d_counts, d_vals, d_out, d_last, n, width):
    i = ctx.global_flat_id
    if i >= n:
        return
    counts = ctx.deref(d_counts, n, np.int32)
    vals = ctx.deref(d_vals, (n, width), np.float64)
    acc = 0.0
    for j in range(counts[i]):
        acc += vals[i, j]  # j >= width raises: dead iterations must not read
    ctx.deref(d_out, n, np.float64)[i] = acc
    ctx.deref(d_last, n, np.int64)[i] = j


ragged.sync_free = True


def test_lane_varying_range_runs_masked_to_the_live_maximum(nvidia):
    n, width = 45, 7
    rng = np.random.default_rng(3)
    counts = rng.integers(1, width + 1, n).astype(np.int32)
    vals = rng.random((n, width))
    (acc, last), _ = _agree(
        nvidia, ragged, 2, 32, [counts, vals], [np.zeros(n), np.zeros(n, np.int64)],
        (n, width),
    )
    assert np.array_equal(last, counts - 1)  # the loop variable's final value


def _scale_row(row_in, row_out, factor):
    for c in range(3):
        row_out[c] = row_in[c] * factor


def _low_high(a, b):
    return min(a, b), max(a, b)


def inlined(ctx, d_m, d_out, d_lohi, n):
    i = ctx.global_flat_id
    if i >= n:
        return
    m = ctx.deref(d_m, (n, 3), np.float64)
    out = ctx.deref(d_out, (n, 3), np.float64)
    _scale_row(m[i], out[i], 2.0)
    lo, hi = _low_high(m[i, 0], m[i, 1])
    lohi = ctx.deref(d_lohi, (n, 2), np.float64)
    lohi[i, 0] = lo
    lohi[i, 1] = hi


inlined.sync_free = True


def test_device_functions_inline_with_stores_through_parameters(nvidia):
    n = 33
    m = np.random.default_rng(4).random((n, 3))
    (out, lohi), _ = _agree(nvidia, inlined, 2, 32, [m], [np.zeros((n, 3)), np.zeros((n, 2))],
                            (n,))
    assert np.array_equal(out, m * 2.0)  # c_site[r, c] = v landed in the caller's array
    assert np.array_equal(lohi[:, 0], np.minimum(m[:, 0], m[:, 1]))


def cmul(ctx, d_a, d_b, d_out, n):
    i = ctx.global_flat_id
    if i >= n:
        return
    a = ctx.deref(d_a, n, np.complex128)
    b = ctx.deref(d_b, n, np.complex128)
    ctx.deref(d_out, n, np.complex128)[i] = a[i] * b[i] * 0.5


cmul.sync_free = True


def test_complex_product_expands_to_the_scalar_real_plane_form(nvidia):
    n = 2048
    rng = np.random.default_rng(5)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    (got,), _ = _agree(nvidia, cmul, 64, 32, [a, b], [np.zeros(n, np.complex128)], (n,))
    # The test has teeth: NumPy's array multiply differs from the
    # per-thread scalar products the lowered body reproduces.
    assert not np.array_equal(a * b * 0.5, got)


def libm(ctx, d_x, d_out, n):
    i = ctx.global_flat_id
    if i >= n:
        return
    x = ctx.deref(d_x, n, np.float64)[i]
    out = ctx.deref(d_out, (n, 4), np.float64)
    out[i, 0] = math.sqrt(x)
    out[i, 1] = math.pow(x, -3.5)
    out[i, 2] = math.cos(x * 7.0)
    out[i, 3] = math.exp(-x) ** 1.5


libm.sync_free = True


def test_libm_calls_run_per_live_lane(nvidia):
    n = 500
    x = np.random.default_rng(6).random(n) * 40.0 + 1e-3
    _agree(nvidia, libm, 16, 32, [x], [np.zeros((n, 4))], (n,))


def test_math_domain_error_in_a_live_lane_raises(nvidia):
    x = np.array([4.0, -1.0, 9.0])
    with pytest.raises(LaunchError) as info:
        _launch(nvidia, libm, 1, 32, [x], [np.zeros((3, 4))], (3,), "vector")
    assert isinstance(info.value.__cause__, ValueError)


def min_max(ctx, d_a, d_b, d_out, n):
    i = ctx.global_flat_id
    if i >= n:
        return
    a = ctx.deref(d_a, n, np.float64)[i]
    b = ctx.deref(d_b, n, np.float64)[i]
    out = ctx.deref(d_out, (n, 2), np.float64)
    out[i, 0] = min(a, b)
    out[i, 1] = max(a, b)


min_max.sync_free = True


def test_min_max_keep_pythons_tie_and_nan_rule(nvidia):
    a = np.array([0.0, -0.0, np.nan, 1.0, 2.0, -3.0])
    b = np.array([-0.0, 0.0, 1.0, np.nan, 2.0, 4.0])
    (got,), _ = _agree(nvidia, min_max, 1, 32, [a, b], [np.zeros((6, 2))], (6,))
    assert np.signbit(got[0, 0]) == np.signbit(0.0)  # ties keep the first


def truncate(ctx, d_x, d_out, n):
    i = ctx.global_flat_id
    if i >= n:
        return
    ctx.deref(d_out, n, np.int64)[i] = int(ctx.deref(d_x, n, np.float64)[i])


truncate.sync_free = True


def test_int_truncates_toward_zero_and_raises_on_nan(nvidia):
    x = np.array([-2.7, -0.5, 0.5, 2.7, 1e10, -1e10])
    (got,), _ = _agree(nvidia, truncate, 1, 32, [x], [np.zeros(6, np.int64)], (6,))
    assert got.tolist() == [-2, 0, 0, 2, 10**10, -(10**10)]
    with pytest.raises(LaunchError) as info:
        _launch(nvidia, truncate, 1, 32, [np.array([1.0, np.nan])],
                [np.zeros(2, np.int64)], (2,), "vector")
    assert isinstance(info.value.__cause__, ValueError)


def build_complex(ctx, d_re, d_im, d_out, n):
    i = ctx.global_flat_id
    if i >= n:
        return
    re = ctx.deref(d_re, n, np.float64)[i]
    im = ctx.deref(d_im, n, np.float64)[i]
    ctx.deref(d_out, n, np.complex128)[i] = complex(re, -im)


build_complex.sync_free = True


def test_complex_is_built_from_its_parts(nvidia):
    re = np.array([0.0, -0.0, np.inf, 1.0, np.nan])
    im = np.array([0.0, -0.0, np.nan, np.inf, 2.0])
    _agree(nvidia, build_complex, 1, 32, [re, im], [np.zeros(5, np.complex128)], (5,))


def unguarded(ctx, d_src, d_out, n):
    i = ctx.global_flat_id
    if i >= n:
        return
    ctx.deref(d_out, n, np.float64)[i] = ctx.deref(d_src, n, np.float64)[i + 1]


unguarded.sync_free = True


def test_live_lane_out_of_range_raises_index_error(nvidia):
    src = np.arange(10, dtype=np.float64)
    for engine in ("map", "vector"):
        with pytest.raises(LaunchError) as info:
            _launch(nvidia, unguarded, 1, 32, [src], [np.zeros(10)], (10,), engine)
        assert isinstance(info.value.__cause__, IndexError)
        assert info.value.engine == engine


def tiled_sum(ctx, d_x, d_out, n):
    tile = ctx.block_dim.x
    stage = ctx.shared_array("stage", tile, np.float64)
    x = ctx.deref(d_x, n, np.float64)
    gid = ctx.global_flat_id
    mine = x[gid] if gid < n else 0.0
    acc = 0.0
    for start in range(0, n, tile):
        j = start + ctx.thread_idx.x
        stage[ctx.thread_idx.x] = x[j] if j < n else 0.0
        ctx.sync_threads()
        for k in range(min(tile, n - start)):
            acc += stage[k] * mine
        ctx.sync_threads()
    if gid < n:
        ctx.deref(d_out, n, np.float64)[gid] = acc


def test_barriers_and_shared_memory_lower_to_wave(nvidia):
    n = 45
    x = np.random.default_rng(7).random(n)
    assert lower_kernel(tiled_sum).cooperative
    assert select_engine(tiled_sum).name == "wave"
    _agree(nvidia, tiled_sum, 3, 16, [x], [np.zeros(n)], (n,),
           scalar="block-thread", lanes="wave")


def odd_blocks_flag(ctx, d_out, n):
    flag = ctx.shared_array("flag", 1, np.float64)
    if ctx.flat_block_id % 2 == 1:
        flag[0] = 7.0
    ctx.sync_threads()
    ctx.deref(d_out, n, np.float64)[ctx.global_flat_id] = flag[0]


def block_rows(ctx, d_out, n):
    rows = ctx.shared_array("rows", (2, 8), np.float64)
    t = ctx.thread_idx.x
    rows[0][t] = ctx.flat_block_id * 1.0
    rows[1][t] = t * 1.0
    ctx.sync_threads()
    acc = 0.0
    for k in range(8):
        acc += rows[0][k] * 10.0 + rows[1][k]
    ctx.deref(d_out, n, np.float64)[ctx.global_flat_id] = acc


@pytest.mark.parametrize("kernel", [odd_blocks_flag, block_rows],
                         ids=lambda k: k.__name__)
def test_each_block_of_a_wave_batch_keeps_its_own_shared_memory(nvidia, kernel):
    # A uniform store under a lane mask lands only in the blocks with a
    # live lane, and a row of a 2-D shared array is the lane's own block's.
    (got,), _ = _agree(nvidia, kernel, 5, 8, [], [np.zeros(40)], (40,),
                       scalar="block-thread", lanes="wave")
    assert len(np.unique(got)) > 1


def test_pinned_vector_runs_the_lowered_body_and_traces_it(nvidia):
    src = np.arange(20, dtype=np.float64)
    tracer = trace.enable()
    try:
        _launch(nvidia, guarded, 1, 32, [src], [np.zeros(28)], (20,), "vector")
        _launch(nvidia, guarded, 1, 32, [src], [np.zeros(28)], (20,), "map")
    finally:
        trace.disable()
    spans = [s for s in tracer.spans if s.cat == "kernel"]
    assert [(s.args["engine"], s.args["lowered"]) for s in spans] == [
        ("vector", True), ("map", False),
    ]


def guard_only(ctx, n):
    if ctx.global_flat_id >= n:
        return


guard_only.sync_free = True


def test_injected_kernel_fault_still_fires_on_a_lowered_body(nvidia):
    nvidia.reset()
    try:
        with faults.inject("launch:kernel_fault,kernel=guard_only"):
            with pytest.raises(LaunchError) as info:
                launch_kernel(LaunchConfig.create(1, 32), guard_only, (4,), nvidia)
        assert isinstance(info.value.__cause__, KernelFault)
        assert info.value.engine == "vector"
    finally:
        nvidia.reset()


def test_kernel_source_is_left_untouched():
    before = guarded.__code__
    lower_kernel(guarded)
    assert guarded.__code__ is before


# --- per-thread source reaches the lane engines only through the pass --------------

def lane_sum(ctx, d_c, d_out, n):
    i = ctx.global_flat_id
    ctx.deref(d_out, n, np.int64)[i] = np.sum(i)


def lane_max(ctx, d_c, d_out, n):
    i = ctx.global_flat_id
    ctx.deref(d_out, n, np.int64)[i] = max(i, 7)


def loop_max_value(ctx, d_c, d_out, n):
    i = ctx.global_flat_id
    ctx.deref(d_out, n, np.int64)[i] = ctx.loop_max(ctx.deref(d_c, n, np.int64)[i])


def loop_max_trips(ctx, d_c, d_out, n):
    i = ctx.global_flat_id
    acc = 0
    for _j in range(ctx.loop_max(ctx.deref(d_c, n, np.int64)[i])):
        acc += 1
    ctx.deref(d_out, n, np.int64)[i] = acc


for _kernel in (lane_sum, lane_max, loop_max_value, loop_max_trips):
    _kernel.sync_free = True


@pytest.mark.parametrize("kernel,engine", [
    # Per thread np.sum(i) is i; run on a lane batch as written it sums
    # the whole batch.
    (lane_sum, "map"),
    # As written, max() of a lane array raises on a batch.
    (lane_max, "vector"),
    # Per thread loop_max(c) is int(c); on a lane batch it is the batch's
    # maximum, so passing it through gives every lane the maximum.
    (loop_max_value, "map"),
    (loop_max_trips, "map"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_per_thread_source_computes_what_map_computes(nvidia, kernel, engine):
    counts = np.arange(256, dtype=np.int64) % 5
    out = np.zeros(256, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (got,), stats = _launch(nvidia, kernel, 2, 128, [counts], [out], (256,), None)
    (ref,), _ = _launch(nvidia, kernel, 2, 128, [counts], [out], (256,), "map")
    assert stats.engine == engine
    assert np.array_equal(got, ref)


def reverse_tile(ctx, d_in, d_out, n, block):
    tile = ctx.shared_array("tile", block, np.float64)
    vin = ctx.deref(d_in, n, np.float64)
    ctx.store(tile, ctx.flat_thread_id, ctx.load(vin, ctx.global_flat_id))
    ctx.sync_threads()
    rev = block - 1 - ctx.flat_thread_id
    vout = ctx.deref(d_out, n, np.float64)
    ctx.store(vout, ctx.global_flat_id, ctx.load(tile, rev))


def test_bounds_guarded_intrinsics_lower_where_every_lane_is_live(nvidia):
    grid, block = 4, 16
    n = grid * block
    data = np.arange(n, dtype=np.float64)
    assert lower_kernel(reverse_tile).cooperative
    (got,), got_stats = _launch(nvidia, reverse_tile, grid, block, [data],
                                [np.zeros(n)], (n, block), None)
    (ref,), ref_stats = _launch(nvidia, reverse_tile, grid, block, [data],
                                [np.zeros(n)], (n, block), "block-thread")
    assert got.tobytes() == ref.tobytes()
    assert got_stats.engine == "wave"
    assert dataclasses.replace(got_stats, engine="") == dataclasses.replace(ref_stats, engine="")


# --- declined constructs ----------------------------------------------------------

def with_while(ctx, n):
    i = ctx.global_flat_id
    while i < n:
        i += 32


def with_break(ctx, n):
    for j in range(n):
        if j > ctx.global_flat_id:
            break


def with_continue(ctx, n):
    for j in range(n):
        if j > ctx.global_flat_id:
            continue


def with_inner_return(ctx, n):
    for j in range(n):
        if j > ctx.global_flat_id:
            return


def with_return_value(ctx, n):
    return ctx.global_flat_id


def with_try(ctx, n):
    try:
        ctx.global_flat_id / n
    except ZeroDivisionError:
        pass


def with_with(ctx, n):
    with np.errstate(all="ignore"):
        ctx.global_flat_id / n


def with_raise(ctx, n):
    if ctx.global_flat_id > n:
        raise ValueError("too far")


def _knn_like(best, d):
    best[0] = d


def with_thread_array(ctx, n):
    best = np.full(n, np.inf)
    _knn_like(best, float(ctx.global_flat_id))


def with_list(ctx, n):
    acc = [0.0] * n
    acc[0] = ctx.global_flat_id


def with_warp_collective(ctx, n):
    ctx.shfl_sync(ctx.global_flat_id, 0)


def with_atomic(ctx, n):
    ctx.atomic.add(ctx.deref(n, 1, np.int64), 0, 1)


def with_python_complex_quotient(ctx, n):
    i = ctx.global_flat_id
    z = complex(i, 1.0) / complex(1.0, i)
    ctx.deref(n, 1, np.complex128)[0] = z


def with_divergent_barrier(ctx, n):
    if ctx.global_flat_id < n:
        ctx.sync_threads()


def with_bool_op(ctx, n):
    i = ctx.global_flat_id
    if i < n and i > 0:
        pass


def with_store_after_guard(ctx, n):
    i = ctx.global_flat_id
    if i >= n:
        return
    ctx.store(ctx.deref(n, n, np.float64), i, 1.0)


@pytest.mark.parametrize("kernel,reason", [
    (with_while, "while"),
    (with_break, "break"),
    (with_continue, "continue"),
    (with_inner_return, "return"),
    (with_return_value, "return"),
    (with_try, "try"),
    (with_with, "with"),
    (with_raise, "raise"),
    (with_thread_array, "np.full"),
    (with_list, "container"),
    (with_warp_collective, "shfl_sync"),
    (with_atomic, "atomic"),
    (with_python_complex_quotient, "complex"),
    (with_divergent_barrier, "barrier"),
    (with_bool_op, "and"),
    (with_store_after_guard, "lane mask"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_declined_construct_stays_on_its_scalar_engine(kernel, reason):
    lowering = lower_kernel(kernel)
    assert lowering.entry is None
    assert reason in lowering.reason
    # Per-thread source reaches a lane engine only as the pass lowers
    # it, so only the (declined) lowered body could have taken the
    # kernel off ``map``.
    kernel.sync_free = True
    kernel.vectorize = False
    try:
        assert select_engine(kernel).name == "map"
    finally:
        del kernel.sync_free, kernel.vectorize
