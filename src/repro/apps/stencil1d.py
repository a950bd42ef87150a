"""Stencil-1D: shared-memory 1-D stencil (paper §4.2.6, Figures 8f/8l).

Command line (Figure 6): ``134217728 1000`` — a 134M-element array updated
for 1000 iterations.  The CUDA version (adapted from a CUDA tutorial on
shared memory) stages a block tile plus halos into shared memory, syncs,
and sums a ``2*RADIUS + 1`` window per element.

Paper results: the ompx version beats the natives on both systems; the
classic ``omp`` version is ~100x slower because the generic-mode state
machine cannot be rewritten (and a worksharing loop cannot stage the tile,
so every output re-reads its window from global memory).
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from .. import cuda, ompx
from ..errors import AppError
from ..gpu.device import Device
from ..openmp import target_teams_distribute_parallel_for
from ..openmp.codegen import RegionTraits
from ..perf.roofline import Footprint
from .common import BenchmarkApp, FunctionalResult, VersionLabel, checksum

__all__ = ["Stencil1D", "stencil_cuda_kernel", "stencil_ompx_kernel"]

_RADIUS = 7
_BLOCK = 256
_DTYPE = np.float64


def apply_boundary(value, in_range):
    """The stencil's zero boundary — kept as a device function so the
    toolchain models see a call in the hot loop (the tutorial code has an
    equivalent helper).  ``np.where`` keeps it polymorphic over scalar
    threads and lane batches."""
    return np.where(in_range, value, 0.0)


@cuda.kernel(vectorize=True)
def stencil_cuda_kernel(t, d_in, d_out, n, r):
    """The CUDA tutorial kernel: tile + halo staging, sync, windowed sum."""
    bdim = t.blockDim.x
    tile = t.shared("tile", bdim + 2 * r, _DTYPE)
    gid = t.blockIdx.x * bdim + t.threadIdx.x
    lid = t.threadIdx.x + r
    vin = t.array(d_in, n, _DTYPE)
    t.store(tile, lid, apply_boundary(t.load(vin, gid), gid < n))
    halo = t.threadIdx.x < r
    left = gid - r
    t.store(tile, lid - r, apply_boundary(t.load(vin, left), left >= 0), mask=halo)
    right = gid + bdim
    t.store(tile, lid + bdim, apply_boundary(t.load(vin, right), right < n), mask=halo)
    t.syncthreads()
    result = 0.0
    for offset in range(-r, r + 1):
        result = result + t.load(tile, lid + offset)
    vout = t.array(d_out, n, _DTYPE)
    t.store(vout, gid, result, mask=gid < n)


@ompx.bare_kernel(vectorize=True)
def stencil_ompx_kernel(x, d_in, d_out, n, r):
    """The ompx port: the CUDA body with spellings swapped (paper §3.1)."""
    bdim = x.block_dim_x()
    tile = x.groupprivate("tile", bdim + 2 * r, _DTYPE)
    gid = x.block_id_x() * bdim + x.thread_id_x()
    lid = x.thread_id_x() + r
    vin = x.array(d_in, n, _DTYPE)
    x.store(tile, lid, apply_boundary(x.load(vin, gid), gid < n))
    halo = x.thread_id_x() < r
    left = gid - r
    x.store(tile, lid - r, apply_boundary(x.load(vin, left), left >= 0), mask=halo)
    right = gid + bdim
    x.store(tile, lid + bdim, apply_boundary(x.load(vin, right), right < n), mask=halo)
    x.sync_thread_block()
    result = 0.0
    for offset in range(-r, r + 1):
        result = result + x.load(tile, lid + offset)
    vout = x.array(d_out, n, _DTYPE)
    x.store(vout, gid, result, mask=gid < n)


def stencil_omp_body(indices: np.ndarray, acc, h_in: np.ndarray, h_out: np.ndarray, r: int):
    """The classic-OpenMP worksharing body: windowed sum from global memory.

    No tile is possible from a ``distribute parallel for``; each iteration
    reads its whole window — the traffic difference the footprint prices.
    """
    vin = acc.mapped(h_in)
    vout = acc.mapped(h_out)
    n = vin.shape[0]
    padded = np.zeros(n + 2 * r, dtype=vin.dtype)
    padded[r : r + n] = vin
    acc_sum = np.zeros(len(indices), dtype=vin.dtype)
    for offset in range(2 * r + 1):
        acc_sum += padded[indices + offset]
    vout[indices] = acc_sum


class Stencil1D(BenchmarkApp):
    name = "Stencil 1D"
    description = "1D version of stencil computation"
    command_line = "134217728 1000"
    reports = "per_launch"
    perf_hints = {"lto_inlining": True}

    # --- parameters ---------------------------------------------------------
    @classmethod
    def parse_args(cls, argv: Sequence[str]) -> Mapping[str, object]:
        if len(argv) != 2:
            raise AppError(f"stencil1d expects '<length> <iterations>', got {argv!r}")
        n, iterations = int(argv[0]), int(argv[1])
        if n <= 0 or iterations <= 0:
            raise AppError("length and iterations must be positive")
        return {"n": n, "iterations": iterations, "radius": _RADIUS, "block": _BLOCK}

    @classmethod
    def paper_params(cls) -> Mapping[str, object]:
        return cls.parse_args(cls.command_line.split())

    @classmethod
    def functional_params(cls) -> Mapping[str, object]:
        # Three iterations, not one: the reduced problem still exercises
        # the ping-pong buffers and (sharded) the per-iteration halo
        # exchange, and gives mid-run fault plans ('kernel_fault@3')
        # later launches to fire on.
        return {"n": 1000, "iterations": 3, "radius": 3, "block": 64}

    # --- golden reference ------------------------------------------------------
    def _input(self, params) -> np.ndarray:
        rng = np.random.default_rng(42)
        return rng.random(params["n"]).astype(_DTYPE)

    def reference(self, params) -> np.ndarray:
        data = self._input(params)
        r = params["radius"]
        out = data
        for _ in range(params["iterations"]):
            padded = np.zeros(len(out) + 2 * r, dtype=_DTYPE)
            padded[r : r + len(out)] = out
            windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * r + 1)
            out = windows.sum(axis=1)
        return out

    # --- functional execution ------------------------------------------------------
    def run_single(self, variant: str, params, device: Device) -> FunctionalResult:
        n, r, block = params["n"], params["radius"], params["block"]
        iterations = params["iterations"]
        h_in = params.get("_prebuilt")
        if h_in is None:
            h_in = self._input(params)
        h_out = np.zeros(n, dtype=_DTYPE)
        teams = (n + block - 1) // block

        if variant == VersionLabel.OMP:
            cur = h_in.copy()
            for _ in range(iterations):
                target_teams_distribute_parallel_for(
                    device,
                    n,
                    vector_body=lambda idx, acc: stencil_omp_body(idx, acc, cur, h_out, r),
                    num_teams=teams,
                    thread_limit=block,
                    maps=[(cur, "to"), (h_out, "from")],
                    traits=self.omp_region_traits(params),
                )
                cur, h_out = h_out.copy(), h_out
            result = cur
        else:
            kernel = stencil_ompx_kernel if variant == VersionLabel.OMPX else stencil_cuda_kernel
            alloc = device.allocator
            d_a = alloc.malloc(n * 8)
            d_b = alloc.malloc(n * 8)
            alloc.memcpy_h2d(d_a, h_in)
            for _ in range(iterations):
                if variant == VersionLabel.OMPX:
                    ompx.target_teams_bare(device, teams, block, kernel, (d_a, d_b, n, r))
                else:
                    cuda.launch(kernel, teams, block, (d_a, d_b, n, r), device=device)
                    device.synchronize()
                d_a, d_b = d_b, d_a
            result = np.zeros(n, dtype=_DTYPE)
            alloc.memcpy_d2h(result, d_a)
            alloc.free(d_a)
            alloc.free(d_b)

        trim = params.get("_trim")
        if trim is not None:
            left, right = trim
            result = result[left : len(result) - right if right else None]
        return FunctionalResult(variant=variant, output=result, checksum=checksum(result), valid=False)

    # --- multi-device execution ---------------------------------------------------
    def shard_functional_params(self, params, n_shards: int):
        """Deep-ghost decomposition for self-contained shards.

        The in-process :meth:`run_sharded` exchanges ``radius`` halo
        cells per iteration over the peer interconnect; across process
        boundaries there is no interconnect, and a checkpointed wave must
        not leave device-resident state behind, so each shard instead
        carries ``radius * iterations`` ghost cells per interior side —
        enough true data for the full dependency cone of every kept cell
        over the whole iteration loop — and trims the ghosts off after
        running all iterations locally.  Bit-identical to the
        single-device run: every kept output's window sums the same
        values in the same order, and a zero local boundary only ever
        coincides with the true global boundary.
        """
        from ..sched import shard

        n, r = params["n"], params["radius"]
        iterations = params["iterations"]
        ghost = r * iterations
        full = self._input(params)
        sizes = [int(c.shape[0]) for c in shard(full, n_shards)]
        if min(sizes) < 1:
            raise AppError(
                f"stencil cannot split {n} cells across {n_shards} shards"
            )
        subs = []
        start = 0
        for size in sizes:
            lo = max(start - ghost, 0)
            hi = min(start + size + ghost, n)
            sub = dict(params)
            sub["n"] = hi - lo
            sub["_prebuilt"] = full[lo:hi].copy()
            sub["_trim"] = (start - lo, hi - (start + size))
            subs.append(sub)
            start += size
        return subs

    def run_sharded(
        self, variant: str, params, pool, session=None, *,
        resume: bool = False, shards=None,
    ) -> FunctionalResult:
        """True domain decomposition: per-iteration halo exchange over peers.

        Unlike the embarrassingly parallel apps, a stencil window crosses
        shard boundaries, so each device owns a contiguous chunk padded by
        ``radius`` halo cells per side.  Every iteration the devices trade
        freshly computed edge cells over the peer interconnect
        (``ompx_memcpy_peer`` enqueued on the destination device's default
        stream), gated on the neighbours' kernel events — the cross-device
        :meth:`~repro.gpu.stream.Stream.wait_event` idiom.  All ordering
        lives in streams and events; the host never synchronizes inside
        the iteration loop.

        The exchange needs peer links inside one process and keeps state
        on the devices between iterations, so it runs only in process and
        never checkpointed: with a ``session`` or on a cluster pool
        (``pool.is_cluster``) the run goes through the base executor with
        the deep-ghost shards of :meth:`shard_functional_params`.  So
        does the ``omp`` variant, which the base executor refuses.
        """
        if (session is not None or getattr(pool, "is_cluster", False)
                or variant == VersionLabel.OMP):
            return super().run_sharded(
                variant, params, pool, session, resume=resume, shards=shards
            )
        from ..gpu.launch import LaunchConfig, launch_kernel
        from ..ompx.host import ompx_memcpy_peer
        from ..sched import gather, shard

        kernel = stencil_ompx_kernel if variant == VersionLabel.OMPX else stencil_cuda_kernel
        n, r, block = params["n"], params["radius"], params["block"]
        iterations = params["iterations"]
        full = self._input(params)
        chunks = shard(full, len(pool))
        sizes = [int(c.shape[0]) for c in chunks]
        if min(sizes) < r:
            raise AppError(
                f"stencil shards must hold at least radius={r} cells "
                f"(smallest shard has {min(sizes)}); use fewer devices"
            )
        ndev = len(chunks)
        devices = pool.devices[:ndev]
        starts = [0]
        for size in sizes[:-1]:
            starts.append(starts[-1] + size)

        # Direct links between neighbours: the copies would still succeed
        # staged through host memory, but the modeled cost (and the trace's
        # path= annotation) should ride the peer interconnect.
        for left, right in zip(devices, devices[1:]):
            left.enable_peer_access(right)
            right.enable_peer_access(left)

        # Per-device padded double buffers, uploaded with their true halos
        # so the first kernel launch needs no exchange.
        def make_setup(d):
            def setup(device):
                start, size = starts[d], sizes[d]
                padded = np.zeros(size + 2 * r, dtype=_DTYPE)
                lo, hi = max(start - r, 0), min(start + size + r, n)
                padded[lo - start + r : hi - start + r] = full[lo:hi]
                alloc = device.allocator
                front, back = alloc.malloc(padded.nbytes), alloc.malloc(padded.nbytes)
                alloc.memcpy_h2d(front, padded)
                return [front, back]
            return setup

        bufs = gather([
            pool.submit_call(make_setup(d), device=d, label=f"stencil-setup{d}")
            for d in range(ndev)
        ])

        streams = [dev.default_stream for dev in devices]
        kern_ev = [None] * ndev
        halo_ev = [None] * ndev
        for it in range(iterations):
            prev_halo = list(halo_ev)
            for d in range(ndev):
                s = streams[d]
                # The neighbours' previous halo copies read this device's
                # buffers; wait for them before the kernel overwrites one.
                for nb in (d - 1, d + 1):
                    if 0 <= nb < ndev and prev_halo[nb] is not None:
                        s.wait_event(prev_halo[nb])
                npad = sizes[d] + 2 * r
                config = LaunchConfig.create(
                    (npad + block - 1) // block, block, stream=s
                )
                launch_kernel(
                    config, kernel, (bufs[d][0], bufs[d][1], npad, r),
                    devices[d], synchronous=False,
                )
                kern_ev[d] = s.record_event()
            if it + 1 == iterations:
                break
            for d in range(ndev):
                s, dev = streams[d], devices[d]
                out = bufs[d][1]
                for nb in (d - 1, d + 1):
                    if 0 <= nb < ndev:
                        s.wait_event(kern_ev[nb])
                if d > 0:
                    # Left halo <- left neighbour's last r interior cells.
                    src = bufs[d - 1][1] + sizes[d - 1] * 8
                    ompx_memcpy_peer(out, dev, src, devices[d - 1], r * 8, stream=s)
                else:
                    s.enqueue(
                        lambda dev=dev, ptr=out: dev.allocator.memset(ptr, 0, r * 8),
                        label="halo-zero:left",
                    )
                if d + 1 < ndev:
                    # Right halo <- right neighbour's first r interior cells.
                    src = bufs[d + 1][1] + r * 8
                    ompx_memcpy_peer(
                        out + (r + sizes[d]) * 8, dev, src, devices[d + 1],
                        r * 8, stream=s,
                    )
                else:
                    s.enqueue(
                        lambda dev=dev, ptr=out + (r + sizes[d]) * 8:
                            dev.allocator.memset(ptr, 0, r * 8),
                        label="halo-zero:right",
                    )
                halo_ev[d] = s.record_event()
            for d in range(ndev):
                bufs[d].reverse()
        for s in streams:
            s.synchronize()

        def make_download(d):
            def download(device):
                out = np.zeros(sizes[d], dtype=_DTYPE)
                alloc = device.allocator
                alloc.memcpy_d2h(out, bufs[d][1] + r * 8)
                for ptr in bufs[d]:
                    alloc.free(ptr)
                return out
            return download

        parts = gather([
            pool.submit_call(make_download(d), device=d, label=f"stencil-gather{d}")
            for d in range(ndev)
        ])
        result = np.concatenate(parts)
        return FunctionalResult(
            variant=variant, output=result, checksum=checksum(result), valid=False
        )

    # --- performance model -----------------------------------------------------------
    def footprint(self, params, label: str = VersionLabel.OMPX) -> Footprint:
        n, r = params["n"], params["radius"]
        if label == VersionLabel.OMP:
            # No shared tile: every output re-reads its (2r+1)-wide window,
            # and generic-mode's strided per-thread chunks defeat the
            # coalescing the cache hierarchy would otherwise recover.
            reads = n * 8.0 * (2 * r + 1)
            shared = 0.0
        else:
            reads = n * 8.0
            shared = n * 8.0 * (2 * r + 2)
        return Footprint(
            flops_fp64=n * (2 * r + 1),
            global_read_bytes=reads,
            global_write_bytes=n * 8.0,
            shared_bytes=shared,
        )

    def transfer_plan(self, params):
        """One array up before the iteration loop, one down after."""
        from ..perf.transfer import TransferPlan

        n = params["n"]
        return TransferPlan(h2d_bytes=n * 8.0, d2h_bytes=n * 8.0)

    def launch_geometry(self, params) -> Tuple[int, int]:
        n, block = params["n"], params["block"]
        return ((n + block - 1) // block, block)

    def launches(self, params) -> int:
        return params["iterations"]

    def kernel_for(self, label: str):
        if label == VersionLabel.OMPX:
            return stencil_ompx_kernel
        if label == VersionLabel.OMP:
            return stencil_omp_body
        return stencil_cuda_kernel

    def omp_region_traits(self, params) -> RegionTraits:
        # The HeCBench OpenMP port keeps serial team code around the loop,
        # so SPMD-ization fails and the state machine survives — the §4.2.6
        # explanation for the ~100x collapse.
        return RegionTraits(
            style="simt",
            spmd_amenable=False,
            state_machine_rewritable=False,
            requested_thread_limit=params["block"],
        )

    def static_shared_bytes(self, params) -> int:
        return (params["block"] + 2 * params["radius"]) * 8
