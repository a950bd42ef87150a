"""SU3: lattice QCD SU(3) matrix-matrix multiply (§4.2.3, Figures 8c/8i).

Command line (Figure 6): ``-i 1000 -l 32 -t 128 -v 3 -w 1`` — 1000 timed
iterations over a 32^4 lattice (1 048 576 sites) with 128-thread blocks,
verification level 3, one warmup.  Derived from the MILC lattice-QCD code
(the paper's ref [3]): for each site and each of the four link directions,
``C[site][dir] = A[site][dir] x B[dir]`` with 3x3 complex matrices.

Paper results — the profiling-richest case:

* A100: ompx ~9% *slower* than Clang CUDA; the CUDA build uses 24
  registers vs the prototype's 26, and the prototype's device binary is
  29 KB vs 3.9 KB because inlined device functions are retained.
* MI250: ompx 28% *faster* than HIP — the AMDGPU backend spills this
  temporary-heavy kernel to scratch; the prototype's pipeline does not.
* Both: ompx consistently beats classic ``omp`` (whose collapsed
  worksharing loop re-reads A instead of register-tiling the site).
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

__all__ = ["SU3", "su3_cuda_kernel", "su3_ompx_kernel"]

_DIRS = 4


def complex_mul_add(acc: complex, a: complex, b: complex) -> complex:
    """``acc += a * b`` for one complex pair — MILC's CMULSUM macro."""
    return acc + a * b


def su3_matmul_site(a_site: np.ndarray, b_dir: np.ndarray, c_site: np.ndarray) -> None:
    """C = A x B for one site/direction pair of 3x3 complex matrices.

    The explicit triple loop with a scalar accumulator mirrors the MILC
    kernel; the accumulators are the temporaries that spill on AMD.
    """
    for row in range(3):
        for col in range(3):
            acc = 0.0 + 0.0j
            for k in range(3):
                acc = complex_mul_add(acc, a_site[row, k], b_dir[k, col])
            c_site[row, col] = acc


@cuda.kernel(sync_free=True)
def su3_cuda_kernel(t, d_a, d_b, d_c, sites):
    site = t.blockIdx.x * t.blockDim.x + t.threadIdx.x
    if site >= sites:
        return
    a = t.array(d_a, (sites, _DIRS, 3, 3), np.complex128)
    b = t.array(d_b, (_DIRS, 3, 3), np.complex128)
    c = t.array(d_c, (sites, _DIRS, 3, 3), np.complex128)
    # The four directions are unrolled, as in the MILC original — four
    # distinct inlined call sites (which the prototype's cleanup retains,
    # hence its 29 KB device binary).
    su3_matmul_site(a[site, 0], b[0], c[site, 0])
    su3_matmul_site(a[site, 1], b[1], c[site, 1])
    su3_matmul_site(a[site, 2], b[2], c[site, 2])
    su3_matmul_site(a[site, 3], b[3], c[site, 3])


@ompx.bare_kernel(sync_free=True)
def su3_ompx_kernel(x, d_a, d_b, d_c, sites):
    site = x.block_id_x() * x.block_dim_x() + x.thread_id_x()
    if site >= sites:
        return
    a = x.array(d_a, (sites, _DIRS, 3, 3), np.complex128)
    b = x.array(d_b, (_DIRS, 3, 3), np.complex128)
    c = x.array(d_c, (sites, _DIRS, 3, 3), np.complex128)
    su3_matmul_site(a[site, 0], b[0], c[site, 0])
    su3_matmul_site(a[site, 1], b[1], c[site, 1])
    su3_matmul_site(a[site, 2], b[2], c[site, 2])
    su3_matmul_site(a[site, 3], b[3], c[site, 3])


def su3_omp_body(indices: np.ndarray, acc, h_a, h_b, h_c):
    """Worksharing body: batched complex matmul over the team's site chunk."""
    a = acc.mapped(h_a)[indices]            # (chunk, 4, 3, 3)
    b = acc.mapped(h_b)                     # (4, 3, 3)
    acc.mapped(h_c)[indices] = np.einsum("sdij,djk->sdik", a, b)


class SU3(BenchmarkApp):
    name = "SU3"
    description = "Lattice QCD SU3 matrix multiply"
    command_line = "-i 1000 -l 32 -t 128 -v 3 -w 1"
    reports = "total"
    perf_hints = {"amd_scratch_spills": True}

    @classmethod
    def parse_args(cls, argv: Sequence[str]) -> Mapping[str, object]:
        args = list(argv)
        parsed = {}
        flags = {"-i": "iterations", "-l": "ldim", "-t": "threads", "-v": "verify", "-w": "warmups"}
        i = 0
        while i < len(args):
            flag = args[i]
            if flag not in flags:
                raise AppError(f"su3: unknown flag {flag!r}")
            if i + 1 >= len(args):
                raise AppError(f"su3: flag {flag!r} needs a value")
            parsed[flags[flag]] = int(args[i + 1])
            i += 2
        iterations = parsed.get("iterations", 1000)
        ldim = parsed.get("ldim", 32)
        threads = parsed.get("threads", 128)
        if min(iterations, ldim, threads) <= 0:
            raise AppError("su3 arguments must be positive")
        return {
            "iterations": iterations,
            "sites": ldim**4,
            "block": threads,
            "verify": parsed.get("verify", 3),
            "warmups": parsed.get("warmups", 1),
        }

    @classmethod
    def paper_params(cls) -> Mapping[str, object]:
        return cls.parse_args(cls.command_line.split())

    @classmethod
    def functional_params(cls) -> Mapping[str, object]:
        return {"iterations": 1, "sites": 48, "block": 16, "verify": 3, "warmups": 0}

    # --- golden reference ---------------------------------------------------------
    def _inputs(self, params):
        pre = params.get("_prebuilt")
        if pre is not None:
            return pre
        rng = np.random.default_rng(99)
        sites = params["sites"]
        a = (rng.standard_normal((sites, _DIRS, 3, 3))
             + 1j * rng.standard_normal((sites, _DIRS, 3, 3)))
        b = (rng.standard_normal((_DIRS, 3, 3))
             + 1j * rng.standard_normal((_DIRS, 3, 3)))
        return a.astype(np.complex128), b.astype(np.complex128)

    def reference(self, params) -> np.ndarray:
        a, b = self._inputs(params)
        return np.einsum("sdij,djk->sdik", a, b)

    def verify(self, result, params) -> bool:
        """Honour the benchmark's ``-v`` verification levels.

        0 = none (trust the run), 1 = checksum comparison only,
        2+ = full element-wise comparison against the reference (the
        paper ran ``-v 3``).
        """
        level = int(params.get("verify", 3))
        if level <= 0:
            result.valid = True
            return True
        expected = self.reference(params)
        if level == 1:
            expected_sum = checksum(expected.real, expected.imag)
            ok = np.isclose(result.checksum, expected_sum, rtol=1e-9)
        else:
            ok = np.allclose(result.output, expected, rtol=1e-10, atol=1e-12)
        result.valid = bool(ok)
        return result.valid

    def shard_functional_params(self, params, n):
        """Shard the lattice sites; the link matrices ``b`` are broadcast."""
        from ..sched import shard

        a, b = self._inputs(params)
        subs = []
        for a_i in shard(a, n):
            sub = dict(params)
            sub["sites"] = int(a_i.shape[0])
            sub["_prebuilt"] = (a_i, b)
            subs.append(sub)
        return subs

    def result_checksum(self, output) -> float:
        return checksum(output.real, output.imag)

    # --- functional execution ----------------------------------------------------------
    def run_single(self, variant: str, params, device: Device) -> FunctionalResult:
        sites, block = params["sites"], params["block"]
        h_a, h_b = self._inputs(params)
        h_c = np.zeros_like(h_a)
        teams = (sites + block - 1) // block

        if variant == VersionLabel.OMP:
            target_teams_distribute_parallel_for(
                device,
                sites,
                vector_body=lambda idx, acc: su3_omp_body(idx, acc, h_a, h_b, h_c),
                thread_limit=block,
                maps=[(h_a, "to"), (h_b, "to"), (h_c, "from")],
                traits=self.omp_region_traits(params),
            )
            result = h_c
        else:
            kernel = su3_ompx_kernel if variant == VersionLabel.OMPX else su3_cuda_kernel
            alloc = device.allocator
            d_a = alloc.malloc(h_a.nbytes)
            d_b = alloc.malloc(h_b.nbytes)
            d_c = alloc.malloc(h_a.nbytes)
            alloc.memcpy_h2d(d_a, h_a)
            alloc.memcpy_h2d(d_b, h_b)
            args = (d_a, d_b, d_c, sites)
            if variant == VersionLabel.OMPX:
                ompx.target_teams_bare(device, teams, block, kernel, args)
            else:
                cuda.launch(kernel, teams, block, args, device=device)
                device.synchronize()
            result = np.zeros_like(h_a)
            alloc.memcpy_d2h(result, d_c)
            for ptr in (d_a, d_b, d_c):
                alloc.free(ptr)

        return FunctionalResult(
            variant=variant,
            output=result,
            checksum=checksum(result.real, result.imag),
            valid=False,
        )

    # --- performance model --------------------------------------------------------------
    def footprint(self, params, label: str = VersionLabel.OMPX) -> Footprint:
        sites = params["sites"]
        matrix_bytes = 9 * 16.0
        reads = sites * _DIRS * matrix_bytes      # stream A
        writes = sites * _DIRS * matrix_bytes     # stream C
        if label == VersionLabel.OMP:
            # The collapsed worksharing loop assigns one (site, row, col)
            # triple per thread, so each A row is re-read per output
            # column instead of being register-tiled.
            reads *= 1.5
        return Footprint(
            flops_fp64=sites * _DIRS * 27 * 8.0,  # 27 complex FMAs per matmul
            global_read_bytes=reads,
            global_write_bytes=writes,
        )

    def transfer_plan(self, params):
        """The link fields up, the products down (once, around the loop)."""
        from ..perf.transfer import TransferPlan

        sites = params["sites"]
        matrix_bytes = sites * _DIRS * 9 * 16.0
        return TransferPlan(h2d_bytes=matrix_bytes + _DIRS * 9 * 16.0,
                            d2h_bytes=matrix_bytes,
                            h2d_transfers=2, d2h_transfers=1)

    def launch_geometry(self, params) -> Tuple[int, int]:
        sites, block = params["sites"], params["block"]
        return ((sites + block - 1) // block, block)

    def launches(self, params) -> int:
        return params["iterations"]

    def kernel_for(self, label: str):
        if label == VersionLabel.OMPX:
            return su3_ompx_kernel
        if label == VersionLabel.OMP:
            return su3_omp_body
        return su3_cuda_kernel

    def omp_region_traits(self, params) -> RegionTraits:
        return RegionTraits(
            style="worksharing",
            spmd_amenable=True,
            requested_thread_limit=params["block"],
        )
