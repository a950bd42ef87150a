"""One kernel object under every front end.

``@cuda.kernel``, ``@hip.kernel``, ``@ompx.bare_kernel`` and the region
``target_teams_parallel`` launches are all :class:`repro.gpu.kernel.Kernel`
objects, which ``launch_kernel`` and the engines take as they are.  An
undecorated region becomes one kernel per function, so the lowering memo
keeps it, and an OpenMP SIMT region lowers like its ompx twin.
"""

import numpy as np
import pytest

import repro.gpu.launch as launch_mod
from repro import cuda, hip, ompx
from repro.compiler.lower import _LOWER_CACHE
from repro.cuda import CudaThread
from repro.gpu import Kernel, LaunchConfig, launch_kernel
from repro.gpu.engine import _ENGINES_BY_NAME
from repro.gpu.kernel import kernel_name
from repro.ompx.device import OmpxThread
from repro.openmp import target_teams_parallel
from repro.openmp.runtime import OmpThread

GRID, BLOCK = 2, 32
N = GRID * BLOCK - 5  # the last block's tail is masked off

_COUNTERS = (
    "threads_run", "blocks_run", "barriers", "warp_collectives",
    "global_derefs", "shared_declarations",
)


@cuda.kernel(sync_free=True)
def cuda_iota(t, d_out, n):
    i = t.blockIdx.x * t.blockDim.x + t.threadIdx.x
    if i < n:
        t.array(d_out, n, np.float64)[i] = i


@hip.kernel(sync_free=True)
def hip_iota(t, d_out, n):
    i = t.blockIdx.x * t.blockDim.x + t.threadIdx.x
    if i < n:
        t.array(d_out, n, np.float64)[i] = i


@ompx.bare_kernel(sync_free=True)
def bare_iota(x, d_out, n):
    i = x.block_id_x() * x.block_dim_x() + x.thread_id_x()
    if i < n:
        x.array(d_out, n, np.float64)[i] = i


def omp_iota(omp, d_out, n):
    i = omp.omp_get_team_num() * omp.omp_get_team_size() + omp.omp_get_thread_num()
    if i < n:
        omp.deref(d_out, n, np.float64)[i] = i


def _vendor_launch(launch, kernel):
    def run(device, d_out):
        launch(kernel, GRID, BLOCK, (d_out, N), device=device)
        device.synchronize()

    return run


#: front end -> (its launch, the object it was given, the body, façade, language)
FRONT_ENDS = {
    "cuda": (_vendor_launch(cuda.launch, cuda_iota), cuda_iota,
             cuda_iota.fn, CudaThread, "cuda"),
    "hip": (_vendor_launch(hip.launch, hip_iota), hip_iota,
            hip_iota.fn, CudaThread, "hip"),
    "ompx": (lambda dev, d: ompx.target_teams_bare(dev, GRID, BLOCK, bare_iota, (d, N)),
             bare_iota, bare_iota.fn, OmpxThread, "ompx"),
    "omp": (lambda dev, d: target_teams_parallel(dev, GRID, BLOCK, omp_iota, (d, N)),
            None, omp_iota, OmpThread, "omp"),
}


def _output(device, run):
    """Run ``run(device, d_out)`` and return the ``N`` values it wrote."""
    d_out = device.allocator.malloc(N * 8)
    try:
        device.allocator.memset(d_out, 0, N * 8)
        run(device, d_out)
        out = np.zeros(N)
        device.allocator.memcpy_d2h(out, d_out)
        return out
    finally:
        device.allocator.free(d_out)


@pytest.fixture
def launched(monkeypatch):
    """The kernel objects ``launch_kernel`` receives, in launch order."""
    kernels = []
    select = launch_mod.select_engine

    def spy(kernel, **kwargs):
        kernels.append(kernel)
        return select(kernel, **kwargs)

    monkeypatch.setattr(launch_mod, "select_engine", spy)
    return kernels


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_every_front_end_launches_one_kernel_object(nvidia, launched, front_end):
    launch, given, fn, facade, language = FRONT_ENDS[front_end]
    assert np.array_equal(_output(nvidia, launch), np.arange(N))
    [kernel] = launched
    assert isinstance(kernel, Kernel)
    if given is not None:
        assert kernel is given  # the decorated object itself, no adapter
    assert (kernel.fn, kernel.facade, kernel.language) == (fn, facade, language)
    assert kernel_name(kernel) == fn.__name__

    # launch_kernel takes the same object as is, on every engine it fits.
    for engine in ("map", "block-thread", None):
        config = LaunchConfig.create(GRID, BLOCK, engine=engine)
        out = _output(nvidia, lambda dev, d: launch_kernel(config, kernel, (d, N), dev))
        assert np.array_equal(out, np.arange(N)), engine


def test_kernel_name_reads_the_body_of_a_kernel_and_a_raw_function():
    def raw(ctx):
        pass

    assert kernel_name(raw) == "raw"
    assert kernel_name(Kernel(raw, OmpThread, language="omp")) == "raw"
    assert kernel_name(object()) == "kernel"


# --- the lowering memo keeps an undecorated region ---------------------------

def bare_tile_sum(x, d_out):
    tid = x.thread_id_x()
    tile = x.groupprivate("tile", 32, np.float64)
    tile[tid] = tid
    x.sync_thread_block()
    x.array(d_out, 32, np.float64)[tid] = tile[tid] + tile[31 - tid]


def omp_tile_sum(omp, d_out):
    tid = omp.omp_get_thread_num()
    tile = omp.groupprivate("tile", 32, np.float64)
    tile[tid] = tid
    omp.barrier()
    omp.deref(d_out, 32, np.float64)[tid] = tile[tid] + tile[31 - tid]


REGIONS = {
    "bare": lambda dev, d: ompx.target_teams_bare(dev, 1, 32, bare_tile_sum, (d,)),
    "simt": lambda dev, d: target_teams_parallel(dev, 1, 32, omp_tile_sum, (d,)),
}


@pytest.mark.parametrize("construct", sorted(REGIONS))
def test_an_undecorated_region_is_lowered_once_per_function(nvidia, construct):
    launch = REGIONS[construct]
    d_out = nvidia.allocator.malloc(32 * 8)
    try:
        before = len(_LOWER_CACHE)
        reports = [launch(nvidia, d_out) for _ in range(100)]
        assert len(_LOWER_CACHE) - before <= 1
        assert {report.stats.engine for report in reports} == {"wave"}
        out = np.zeros(32)
        nvidia.allocator.memcpy_d2h(out, d_out)
        assert np.array_equal(out, np.full(32, 31.0))
    finally:
        nvidia.allocator.free(d_out)


# --- an OpenMP SIMT region lowers like its ompx twin ----------------------------

def omp_reverse_tile(omp, d_src, d_out, n):
    tid = omp.omp_get_thread_num()
    size = omp.omp_get_team_size()
    i = omp.omp_get_team_num() * size + tid
    tile = omp.groupprivate("tile", 32, np.float64)
    tile[tid] = omp.deref(d_src, n, np.float64)[i] * 0.5
    omp.barrier()
    omp.deref(d_out, n, np.float64)[i] = tile[size - 1 - tid] - tile[tid]


def _reverse_tiles(device, src):
    n = src.size
    alloc = device.allocator
    d_src, d_out = alloc.malloc(src.nbytes), alloc.malloc(src.nbytes)
    try:
        alloc.memcpy_h2d(d_src, src)
        report = target_teams_parallel(device, n // 32, 32, omp_reverse_tile,
                                       (d_src, d_out, n))
        out = np.empty_like(src)
        alloc.memcpy_d2h(out, d_out)
        return out, report.stats
    finally:
        alloc.free(d_src)
        alloc.free(d_out)


def test_a_simt_region_with_a_barrier_runs_lowered_on_wave(nvidia, monkeypatch):
    src = np.random.default_rng(7).standard_normal(96)
    out, stats = _reverse_tiles(nvidia, src)
    assert stats.engine == "wave"

    monkeypatch.setattr(launch_mod, "select_engine",
                        lambda kernel, hint=None: _ENGINES_BY_NAME["block-thread"])
    ref, ref_stats = _reverse_tiles(nvidia, src)
    assert ref_stats.engine == "block-thread"
    assert out.tobytes() == ref.tobytes()
    assert [getattr(stats, c) for c in _COUNTERS] == [
        getattr(ref_stats, c) for c in _COUNTERS
    ]
    tiles = src.reshape(3, 32) * 0.5
    assert np.array_equal(ref, (tiles[:, ::-1] - tiles).reshape(-1))
