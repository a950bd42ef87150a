"""AIDW: adaptive inverse distance weighting interpolation (§4.2.4, 8d/8j).

Command line (Figure 6): ``100 0 100`` — a point-scale factor of 100
(=> 25 600 data points and as many interpolation targets), weighting mode
0 (full brute-force accumulation, no kNN pruning), 100 repetitions.

Every thread interpolates one target: the block cooperatively stages
tiles of data points in shared memory, and each thread accumulates
``w = d^-alpha`` weights over the tile — the classic tiled n-body shape
(Mei et al., the paper's ref [15]).

Paper results: near-parity everywhere, except the CUDA version compiled
with *Clang* is ~5% faster on the A100 because Clang demoted the kernel's
shared variables while the prototype (and nvcc) did not.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence, Tuple

import numpy as np

from .. import cuda, ompx
from ..errors import AppError
from ..gpu.device import Device
from ..openmp import target_teams_distribute_parallel_for
from ..openmp.codegen import RegionTraits
from ..perf.roofline import Footprint
from .common import BenchmarkApp, FunctionalResult, VersionLabel, checksum

__all__ = [
    "AIDW",
    "aidw_cuda_kernel",
    "aidw_ompx_kernel",
    "aidw_knn_cuda_kernel",
    "aidw_knn_ompx_kernel",
]

_BLOCK = 256
_ALPHA = 3.5       # non-integer power: the weight needs a real pow()
_POINTS_PER_SCALE = 256


def idw_weight(dist: float) -> float:
    """The adaptive IDW weight — a __device__ helper with a pow() inside."""
    return math.pow(dist, -_ALPHA)


@cuda.kernel
def aidw_cuda_kernel(t, d_dx, d_dy, d_dz, d_ix, d_iy, d_out, dnum, inum):
    tile_size = t.blockDim.x
    sx = t.shared("sx", tile_size, np.float64)
    sy = t.shared("sy", tile_size, np.float64)
    sz = t.shared("sz", tile_size, np.float64)
    dx = t.array(d_dx, dnum, np.float64)
    dy = t.array(d_dy, dnum, np.float64)
    dz = t.array(d_dz, dnum, np.float64)
    gid = t.blockIdx.x * tile_size + t.threadIdx.x
    if gid < inum:
        xi = t.array(d_ix, inum, np.float64)[gid]
        yi = t.array(d_iy, inum, np.float64)[gid]
    else:
        xi = 0.0
        yi = 0.0
    num = 0.0
    den = 0.0
    for tile_start in range(0, dnum, tile_size):
        j = tile_start + t.threadIdx.x
        sx[t.threadIdx.x] = dx[j] if j < dnum else 0.0
        sy[t.threadIdx.x] = dy[j] if j < dnum else 0.0
        sz[t.threadIdx.x] = dz[j] if j < dnum else 0.0
        t.syncthreads()
        limit = min(tile_size, dnum - tile_start)
        for k in range(limit):
            ddx = xi - sx[k]
            ddy = yi - sy[k]
            dist = math.sqrt(ddx * ddx + ddy * ddy)
            w = idw_weight(dist)
            num += w * sz[k]
            den += w
        t.syncthreads()
    if gid < inum:
        t.array(d_out, inum, np.float64)[gid] = num / den


@ompx.bare_kernel
def aidw_ompx_kernel(x, d_dx, d_dy, d_dz, d_ix, d_iy, d_out, dnum, inum):
    tile_size = x.block_dim_x()
    sx = x.groupprivate("sx", tile_size, np.float64)
    sy = x.groupprivate("sy", tile_size, np.float64)
    sz = x.groupprivate("sz", tile_size, np.float64)
    dx = x.array(d_dx, dnum, np.float64)
    dy = x.array(d_dy, dnum, np.float64)
    dz = x.array(d_dz, dnum, np.float64)
    gid = x.block_id_x() * tile_size + x.thread_id_x()
    if gid < inum:
        xi = x.array(d_ix, inum, np.float64)[gid]
        yi = x.array(d_iy, inum, np.float64)[gid]
    else:
        xi = 0.0
        yi = 0.0
    num = 0.0
    den = 0.0
    for tile_start in range(0, dnum, tile_size):
        j = tile_start + x.thread_id_x()
        sx[x.thread_id_x()] = dx[j] if j < dnum else 0.0
        sy[x.thread_id_x()] = dy[j] if j < dnum else 0.0
        sz[x.thread_id_x()] = dz[j] if j < dnum else 0.0
        x.sync_thread_block()
        limit = min(tile_size, dnum - tile_start)
        for k in range(limit):
            ddx = xi - sx[k]
            ddy = yi - sy[k]
            dist = math.sqrt(ddx * ddx + ddy * ddy)
            w = idw_weight(dist)
            num += w * sz[k]
            den += w
        x.sync_thread_block()
    if gid < inum:
        x.array(d_out, inum, np.float64)[gid] = num / den


_KNN_K = 16


def knn_insert(best_d: np.ndarray, best_z: np.ndarray, dist: float, z: float) -> None:
    """Insert (dist, z) into the per-thread sorted k-best arrays.

    The __device__ helper of the kNN mode (Mei et al.'s fast kNN keeps a
    small sorted buffer per query point).
    """
    k = best_d.shape[0]
    if dist >= best_d[k - 1]:
        return
    pos = k - 1
    while pos > 0 and best_d[pos - 1] > dist:
        best_d[pos] = best_d[pos - 1]
        best_z[pos] = best_z[pos - 1]
        pos -= 1
    best_d[pos] = dist
    best_z[pos] = z


@cuda.kernel
def aidw_knn_cuda_kernel(t, d_dx, d_dy, d_dz, d_ix, d_iy, d_out, dnum, inum, k):
    """Mode 1: interpolate from the k nearest neighbours only."""
    tile_size = t.blockDim.x
    sx = t.shared("sx", tile_size, np.float64)
    sy = t.shared("sy", tile_size, np.float64)
    sz = t.shared("sz", tile_size, np.float64)
    dx = t.array(d_dx, dnum, np.float64)
    dy = t.array(d_dy, dnum, np.float64)
    dz = t.array(d_dz, dnum, np.float64)
    gid = t.blockIdx.x * tile_size + t.threadIdx.x
    if gid < inum:
        xi = t.array(d_ix, inum, np.float64)[gid]
        yi = t.array(d_iy, inum, np.float64)[gid]
    else:
        xi = 0.0
        yi = 0.0
    best_d = np.full(k, np.inf)
    best_z = np.zeros(k)
    for tile_start in range(0, dnum, tile_size):
        j = tile_start + t.threadIdx.x
        sx[t.threadIdx.x] = dx[j] if j < dnum else 0.0
        sy[t.threadIdx.x] = dy[j] if j < dnum else 0.0
        sz[t.threadIdx.x] = dz[j] if j < dnum else 0.0
        t.syncthreads()
        limit = min(tile_size, dnum - tile_start)
        for idx in range(limit):
            ddx = xi - sx[idx]
            ddy = yi - sy[idx]
            dist = math.sqrt(ddx * ddx + ddy * ddy)
            knn_insert(best_d, best_z, dist, sz[idx])
        t.syncthreads()
    if gid < inum:
        num = 0.0
        den = 0.0
        for idx in range(k):
            w = idw_weight(best_d[idx])
            num += w * best_z[idx]
            den += w
        t.array(d_out, inum, np.float64)[gid] = num / den


@ompx.bare_kernel
def aidw_knn_ompx_kernel(x, d_dx, d_dy, d_dz, d_ix, d_iy, d_out, dnum, inum, k):
    """Mode 1, ompx port: the CUDA body with spellings swapped."""
    tile_size = x.block_dim_x()
    sx = x.groupprivate("sx", tile_size, np.float64)
    sy = x.groupprivate("sy", tile_size, np.float64)
    sz = x.groupprivate("sz", tile_size, np.float64)
    dx = x.array(d_dx, dnum, np.float64)
    dy = x.array(d_dy, dnum, np.float64)
    dz = x.array(d_dz, dnum, np.float64)
    gid = x.block_id_x() * tile_size + x.thread_id_x()
    if gid < inum:
        xi = x.array(d_ix, inum, np.float64)[gid]
        yi = x.array(d_iy, inum, np.float64)[gid]
    else:
        xi = 0.0
        yi = 0.0
    best_d = np.full(k, np.inf)
    best_z = np.zeros(k)
    for tile_start in range(0, dnum, tile_size):
        j = tile_start + x.thread_id_x()
        sx[x.thread_id_x()] = dx[j] if j < dnum else 0.0
        sy[x.thread_id_x()] = dy[j] if j < dnum else 0.0
        sz[x.thread_id_x()] = dz[j] if j < dnum else 0.0
        x.sync_thread_block()
        limit = min(tile_size, dnum - tile_start)
        for idx in range(limit):
            ddx = xi - sx[idx]
            ddy = yi - sy[idx]
            dist = math.sqrt(ddx * ddx + ddy * ddy)
            knn_insert(best_d, best_z, dist, sz[idx])
        x.sync_thread_block()
    if gid < inum:
        num = 0.0
        den = 0.0
        for idx in range(k):
            w = idw_weight(best_d[idx])
            num += w * best_z[idx]
            den += w
        x.array(d_out, inum, np.float64)[gid] = num / den


def aidw_omp_body(indices: np.ndarray, acc, h_dx, h_dy, h_dz, h_ix, h_iy, h_out):
    """Worksharing body: full-broadcast weight accumulation per chunk."""
    dx = acc.mapped(h_dx)
    dy = acc.mapped(h_dy)
    dz = acc.mapped(h_dz)
    xi = acc.mapped(h_ix)[indices][:, None]
    yi = acc.mapped(h_iy)[indices][:, None]
    dist = np.sqrt((xi - dx[None, :]) ** 2 + (yi - dy[None, :]) ** 2)
    w = dist ** (-_ALPHA)
    acc.mapped(h_out)[indices] = (w @ dz) / w.sum(axis=1)


def aidw_knn_omp_body(indices, acc, h_dx, h_dy, h_dz, h_ix, h_iy, h_out, k):
    """Mode 1 worksharing body: np.partition selects each row's k nearest."""
    dx = acc.mapped(h_dx)
    dy = acc.mapped(h_dy)
    dz = acc.mapped(h_dz)
    xi = acc.mapped(h_ix)[indices][:, None]
    yi = acc.mapped(h_iy)[indices][:, None]
    dist = np.sqrt((xi - dx[None, :]) ** 2 + (yi - dy[None, :]) ** 2)
    nearest = np.argpartition(dist, k - 1, axis=1)[:, :k]
    rows = np.arange(len(indices))[:, None]
    dk = dist[rows, nearest]
    order = np.argsort(dk, axis=1)
    dk = dk[rows, order]
    zk = dz[nearest][rows, order]
    w = dk ** (-_ALPHA)
    acc.mapped(h_out)[indices] = (w * zk).sum(axis=1) / w.sum(axis=1)


class AIDW(BenchmarkApp):
    name = "AIDW"
    description = "Adaptive inverse distance weighting"
    command_line = "100 0 100"
    reports = "total"
    perf_hints = {"shared_demotable": True}

    @classmethod
    def parse_args(cls, argv: Sequence[str]) -> Mapping[str, object]:
        if len(argv) != 3:
            raise AppError(f"aidw expects '<scale> <mode> <repeat>', got {argv!r}")
        scale, mode, repeat = (int(a) for a in argv)
        if scale <= 0 or repeat <= 0:
            raise AppError("scale and repeat must be positive")
        if mode not in (0, 1):
            raise AppError(f"mode must be 0 (brute force) or 1 (kNN), got {mode}")
        n = scale * _POINTS_PER_SCALE
        return {"dnum": n, "inum": n, "mode": mode, "repeat": repeat,
                "block": _BLOCK, "knn_k": _KNN_K}

    @classmethod
    def paper_params(cls) -> Mapping[str, object]:
        return cls.parse_args(cls.command_line.split())

    @classmethod
    def functional_params(cls) -> Mapping[str, object]:
        return {"dnum": 96, "inum": 80, "mode": 0, "repeat": 1, "block": 32,
                "knn_k": 8}

    # --- golden reference -------------------------------------------------------
    def _inputs(self, params):
        pre = params.get("_prebuilt")
        if pre is not None:
            return pre
        rng = np.random.default_rng(11)
        dnum, inum = params["dnum"], params["inum"]
        return (
            rng.random(dnum) * 100.0,   # data x
            rng.random(dnum) * 100.0,   # data y
            rng.standard_normal(dnum),  # data values
            rng.random(inum) * 100.0,   # interp x
            rng.random(inum) * 100.0,   # interp y
        )

    def reference(self, params) -> np.ndarray:
        dx, dy, dz, ix, iy = self._inputs(params)
        dist = np.sqrt((ix[:, None] - dx[None, :]) ** 2 + (iy[:, None] - dy[None, :]) ** 2)
        if params.get("mode", 0) == 1:
            k = params["knn_k"]
            nearest = np.argpartition(dist, k - 1, axis=1)[:, :k]
            rows = np.arange(dist.shape[0])[:, None]
            dk = np.sort(dist[rows, nearest], axis=1)
            order = np.argsort(dist[rows, nearest], axis=1)
            zk = dz[nearest][rows, order]
            w = dk ** (-_ALPHA)
            return (w * zk).sum(axis=1) / w.sum(axis=1)
        w = dist ** (-_ALPHA)
        return (w @ dz) / w.sum(axis=1)

    def shard_functional_params(self, params, n):
        """Shard the interpolation points; the data points are broadcast."""
        from ..sched import shard

        dx, dy, dz, ix, iy = self._inputs(params)
        subs = []
        for x_i, y_i in zip(shard(ix, n), shard(iy, n)):
            sub = dict(params)
            sub["inum"] = int(x_i.shape[0])
            sub["_prebuilt"] = (dx, dy, dz, x_i, y_i)
            subs.append(sub)
        return subs

    # --- functional execution --------------------------------------------------------
    def run_single(self, variant: str, params, device: Device) -> FunctionalResult:
        dnum, inum, block = params["dnum"], params["inum"], params["block"]
        dx, dy, dz, ix, iy = self._inputs(params)
        out = np.zeros(inum)
        teams = (inum + block - 1) // block

        mode = params.get("mode", 0)
        k = params.get("knn_k", _KNN_K)
        if variant == VersionLabel.OMP:
            if mode == 1:
                body = lambda idx, acc: aidw_knn_omp_body(idx, acc, dx, dy, dz, ix, iy, out, k)
            else:
                body = lambda idx, acc: aidw_omp_body(idx, acc, dx, dy, dz, ix, iy, out)
            target_teams_distribute_parallel_for(
                device,
                inum,
                vector_body=body,
                thread_limit=block,
                maps=[(dx, "to"), (dy, "to"), (dz, "to"), (ix, "to"), (iy, "to"), (out, "from")],
                traits=self.omp_region_traits(params),
            )
            result = out
        else:
            if mode == 1:
                kernel = aidw_knn_ompx_kernel if variant == VersionLabel.OMPX else aidw_knn_cuda_kernel
            else:
                kernel = aidw_ompx_kernel if variant == VersionLabel.OMPX else aidw_cuda_kernel
            alloc = device.allocator
            hosts = (dx, dy, dz, ix, iy)
            ptrs = []
            for host in hosts:
                ptr = alloc.malloc(host.nbytes)
                alloc.memcpy_h2d(ptr, host)
                ptrs.append(ptr)
            d_out = alloc.malloc(out.nbytes)
            args = (*ptrs, d_out, dnum, inum) if mode == 0 else (*ptrs, d_out, dnum, inum, k)
            if variant == VersionLabel.OMPX:
                ompx.target_teams_bare(device, teams, block, kernel, args)
            else:
                cuda.launch(kernel, teams, block, args, device=device)
                device.synchronize()
            result = np.zeros(inum)
            alloc.memcpy_d2h(result, d_out)
            for ptr in (*ptrs, d_out):
                alloc.free(ptr)

        return FunctionalResult(variant=variant, output=result, checksum=checksum(result), valid=False)

    # --- performance model ---------------------------------------------------------------
    def footprint(self, params, label: str = VersionLabel.OMPX) -> Footprint:
        pairs = float(params["dnum"]) * params["inum"]
        blocks = (params["inum"] + params["block"] - 1) // params["block"]
        return Footprint(
            flops_fp32=pairs * 16.0,
            special_ops=pairs * 3.0,   # sqrt + a two-op pow per pair
            global_read_bytes=blocks * params["dnum"] * 3 * 4.0,
            global_write_bytes=params["inum"] * 4.0,
            shared_bytes=pairs * 3 * 4.0,
        )

    def transfer_plan(self, params):
        """Data and query points up, interpolated values down."""
        from ..perf.transfer import TransferPlan

        return TransferPlan(
            h2d_bytes=params["dnum"] * 3 * 8.0 + params["inum"] * 2 * 8.0,
            d2h_bytes=params["inum"] * 8.0,
            h2d_transfers=5, d2h_transfers=1,
        )

    def launch_geometry(self, params) -> Tuple[int, int]:
        inum, block = params["inum"], params["block"]
        return ((inum + block - 1) // block, block)

    def launches(self, params) -> int:
        return params["repeat"]

    def kernel_for(self, label: str):
        if label == VersionLabel.OMPX:
            return aidw_ompx_kernel
        if label == VersionLabel.OMP:
            return aidw_omp_body
        return aidw_cuda_kernel

    def omp_region_traits(self, params) -> RegionTraits:
        # A clean `target teams distribute parallel for` — SPMD-izable.
        return RegionTraits(
            style="worksharing",
            spmd_amenable=True,
            requested_thread_limit=params["block"],
        )

    def static_shared_bytes(self, params) -> int:
        return params["block"] * 3 * 8
