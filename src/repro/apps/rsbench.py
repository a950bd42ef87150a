"""RSBench: multipole cross-section lookup (§4.2.2, Figures 8b/8h).

Command line (Figure 6): ``-m event``.  RSBench (Tramm et al., the
paper's ref [27]) is the *compute-bound* OpenMC proxy: instead of reading
tabulated cross sections, each lookup reconstructs them from resonance
poles — windowed multipole data with complex arithmetic per pole.

Materials and sampling match XSBench; each nuclide carries 100 windows of
10 poles.

Paper results: ompx beats the LLVM-compiled native on both systems, and —
the interesting one — classic ``omp`` beats CUDA on the A100: the
kernel's per-thread scratch (~2 KB) spills to local memory in the CUDA
build, while OpenMP's heap-to-shared optimization (Huber et al. CGO'22)
parks it in shared memory.  We model the spill as extra global traffic
paid only where the register file is tight (the A100, not the MI250 with
its doubled register file), converted to shared-memory traffic for the
omp version.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, Sequence, Tuple

import numpy as np

from .. import cuda, ompx
from ..errors import AppError
from ..gpu.device import Device
from ..openmp import target_teams_distribute_parallel_for
from ..openmp.codegen import RegionTraits
from ..perf.roofline import Footprint
from ..perf.timing import SystemConfig
from .common import BenchmarkApp, FunctionalResult, VersionLabel, checksum
from .xsbench import _MAT_COUNTS, _MAT_PROBS

__all__ = ["RSBench", "rsbench_cuda_kernel", "rsbench_ompx_kernel"]

_BLOCK = 256
_N_L_VALUES = 4
#: Per-thread scratch of the lookup (the 2 KB the paper's profiling saw).
_SCRATCH_BYTES = 2048


def sig_t_factor(pseudo_k: float, sqrt_e: float) -> complex:
    """The angular sigT phase factor for one l-value (has sin/cos inside)."""
    phi = pseudo_k * sqrt_e
    return complex(math.cos(phi), -math.sin(phi))


def pole_contribution(ea: complex, rt: complex, ra: complex, sqrt_e: float, factor: complex):
    """One pole's (sigT, sigA) contribution: a complex division + products."""
    psi = 1.0 / (ea - sqrt_e)
    sig_t = (rt * psi * factor).real
    sig_a = (ra * psi).real
    return sig_t, sig_a


@cuda.kernel(sync_free=True)
def rsbench_cuda_kernel(
    t, d_ea, d_rt, d_ra, d_lval, d_pseudo, d_nucs, d_dens, d_offsets, d_counts,
    d_energies, d_mats, d_out, n_iso, n_win, ppw, n_lookups, total_nucs,
):
    i = t.blockIdx.x * t.blockDim.x + t.threadIdx.x
    if i >= n_lookups:
        return
    ea = t.array(d_ea, (n_iso, n_win, ppw), np.complex128)
    rt = t.array(d_rt, (n_iso, n_win, ppw), np.complex128)
    ra = t.array(d_ra, (n_iso, n_win, ppw), np.complex128)
    lval = t.array(d_lval, (n_iso, n_win, ppw), np.int32)
    pseudo = t.array(d_pseudo, (n_iso, _N_L_VALUES), np.float64)
    nucs = t.array(d_nucs, total_nucs, np.int32)
    dens = t.array(d_dens, total_nucs, np.float64)
    offsets = t.array(d_offsets, len(_MAT_COUNTS), np.int32)
    counts = t.array(d_counts, len(_MAT_COUNTS), np.int32)
    energy = t.array(d_energies, n_lookups, np.float64)[i]
    mat = t.array(d_mats, n_lookups, np.int32)[i]

    sqrt_e = math.sqrt(energy)
    window = min(int(energy * n_win), n_win - 1)
    macro = 0.0
    base = offsets[mat]
    for j in range(counts[mat]):
        nuc = nucs[base + j]
        sig_t = 0.0
        sig_a = 0.0
        for p in range(ppw):
            factor = sig_t_factor(pseudo[nuc, lval[nuc, window, p]], sqrt_e)
            dt, da = pole_contribution(
                ea[nuc, window, p], rt[nuc, window, p], ra[nuc, window, p],
                sqrt_e, factor,
            )
            sig_t += dt
            sig_a += da
        macro += dens[base + j] * (sig_t + sig_a)
    t.array(d_out, n_lookups, np.float64)[i] = macro


@ompx.bare_kernel(sync_free=True)
def rsbench_ompx_kernel(
    x, d_ea, d_rt, d_ra, d_lval, d_pseudo, d_nucs, d_dens, d_offsets, d_counts,
    d_energies, d_mats, d_out, n_iso, n_win, ppw, n_lookups, total_nucs,
):
    i = x.block_id_x() * x.block_dim_x() + x.thread_id_x()
    if i >= n_lookups:
        return
    ea = x.array(d_ea, (n_iso, n_win, ppw), np.complex128)
    rt = x.array(d_rt, (n_iso, n_win, ppw), np.complex128)
    ra = x.array(d_ra, (n_iso, n_win, ppw), np.complex128)
    lval = x.array(d_lval, (n_iso, n_win, ppw), np.int32)
    pseudo = x.array(d_pseudo, (n_iso, _N_L_VALUES), np.float64)
    nucs = x.array(d_nucs, total_nucs, np.int32)
    dens = x.array(d_dens, total_nucs, np.float64)
    offsets = x.array(d_offsets, len(_MAT_COUNTS), np.int32)
    counts = x.array(d_counts, len(_MAT_COUNTS), np.int32)
    energy = x.array(d_energies, n_lookups, np.float64)[i]
    mat = x.array(d_mats, n_lookups, np.int32)[i]

    sqrt_e = math.sqrt(energy)
    window = min(int(energy * n_win), n_win - 1)
    macro = 0.0
    base = offsets[mat]
    for j in range(counts[mat]):
        nuc = nucs[base + j]
        sig_t = 0.0
        sig_a = 0.0
        for p in range(ppw):
            factor = sig_t_factor(pseudo[nuc, lval[nuc, window, p]], sqrt_e)
            dt, da = pole_contribution(
                ea[nuc, window, p], rt[nuc, window, p], ra[nuc, window, p],
                sqrt_e, factor,
            )
            sig_t += dt
            sig_a += da
        macro += dens[base + j] * (sig_t + sig_a)
    x.array(d_out, n_lookups, np.float64)[i] = macro


class RSBench(BenchmarkApp):
    name = "RSBench"
    description = "Monte Carlo neutron transport algorithm"
    command_line = "-m event"
    reports = "total"
    perf_hints = {"lto_inlining": True}

    @classmethod
    def parse_args(cls, argv: Sequence[str]) -> Mapping[str, object]:
        if list(argv)[:2] != ["-m", "event"]:
            raise AppError(f"rsbench expects '-m event', got {argv!r}")
        return {
            "n_isotopes": 355,
            "n_windows": 100,
            "poles_per_window": 10,
            "lookups": 17_000_000,
            "block": _BLOCK,
            "mat_counts": _MAT_COUNTS,
        }

    @classmethod
    def paper_params(cls) -> Mapping[str, object]:
        return cls.parse_args(cls.command_line.split())

    @classmethod
    def functional_params(cls) -> Mapping[str, object]:
        return {
            "n_isotopes": 18,
            "n_windows": 6,
            "poles_per_window": 3,
            "lookups": 160,
            "block": 32,
            "mat_counts": (12, 3, 2, 2, 6, 5, 5, 5, 5, 5, 3, 3),
        }

    # --- problem construction ----------------------------------------------------
    def _build(self, params):
        pre = params.get("_prebuilt")
        if pre is not None:
            return pre
        rng = np.random.default_rng(4321)
        n_iso = params["n_isotopes"]
        n_win = params["n_windows"]
        ppw = params["poles_per_window"]
        counts = np.asarray(params["mat_counts"], dtype=np.int32)
        shape = (n_iso, n_win, ppw)
        # Pole positions live off the real axis so 1/(EA - sqrt_e) is tame.
        ea = (rng.random(shape) + 1j * (0.5 + rng.random(shape))).astype(np.complex128)
        rt = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex128)
        ra = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex128)
        lval = rng.integers(0, _N_L_VALUES, size=shape).astype(np.int32)
        pseudo = rng.random((n_iso, _N_L_VALUES)) * 2.0
        nucs = np.concatenate(
            [rng.choice(n_iso, size=c, replace=False) for c in counts]
        ).astype(np.int32)
        dens = rng.random(nucs.shape[0]) * 10.0
        offsets = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(np.int32)
        probs = np.asarray(_MAT_PROBS)
        probs = probs / probs.sum()
        lookups = params["lookups"]
        energies = rng.random(lookups)
        mats = rng.choice(len(counts), size=lookups, p=probs).astype(np.int32)
        return ea, rt, ra, lval, pseudo, nucs, dens, offsets, counts, energies, mats

    def reference(self, params) -> np.ndarray:
        ea, rt, ra, lval, pseudo, nucs, dens, offsets, counts, energies, mats = self._build(params)
        n_win = params["n_windows"]
        ppw = params["poles_per_window"]
        sqrt_e = np.sqrt(energies)
        windows = np.minimum((energies * n_win).astype(np.int64), n_win - 1)
        out = np.zeros(len(energies))
        for m in range(len(counts)):
            sel = np.flatnonzero(mats == m)
            if sel.size == 0:
                continue
            se = sqrt_e[sel]
            win = windows[sel]
            macro = np.zeros(sel.size)
            base = offsets[m]
            for j in range(counts[m]):
                nuc = nucs[base + j]
                sig = np.zeros(sel.size)
                for p in range(ppw):
                    lv = lval[nuc, win, p]
                    phi = pseudo[nuc, lv] * se
                    factor = np.cos(phi) - 1j * np.sin(phi)
                    psi = 1.0 / (ea[nuc, win, p] - se)
                    sig += (rt[nuc, win, p] * psi * factor).real
                    sig += (ra[nuc, win, p] * psi).real
                macro += dens[base + j] * sig
            out[sel] = macro
        return out

    def shard_functional_params(self, params, n):
        """Shard the lookup events; the pole/window tables are broadcast."""
        from ..sched import shard

        ea, rt, ra, lval, pseudo, nucs, dens, offsets, counts, energies, mats = (
            self._build(params)
        )
        subs = []
        for e, m in zip(shard(energies, n), shard(mats, n)):
            sub = dict(params)
            sub["lookups"] = int(e.shape[0])
            sub["_prebuilt"] = (
                ea, rt, ra, lval, pseudo, nucs, dens, offsets, counts, e, m,
            )
            subs.append(sub)
        return subs

    # --- functional execution --------------------------------------------------------
    def run_single(self, variant: str, params, device: Device) -> FunctionalResult:
        data = self._build(params)
        ea, rt, ra, lval, pseudo, nucs, dens, offsets, counts, energies, mats = data
        n_iso = params["n_isotopes"]
        n_win = params["n_windows"]
        ppw = params["poles_per_window"]
        lookups, block = params["lookups"], params["block"]
        out = np.zeros(lookups)
        teams = (lookups + block - 1) // block

        if variant == VersionLabel.OMP:
            def body(idx, acc):
                e = acc.mapped(energies)[idx]
                m = acc.mapped(mats)[idx]
                eav = acc.mapped(ea)
                rtv = acc.mapped(rt)
                rav = acc.mapped(ra)
                lvv = acc.mapped(lval)
                psv = acc.mapped(pseudo)
                nv = acc.mapped(nucs)
                dv = acc.mapped(dens)
                ov = acc.mapped(offsets)
                cv = acc.mapped(counts)
                res = acc.mapped(out)
                for pos, (ei, mi) in enumerate(zip(e, m)):
                    sqrt_e = math.sqrt(ei)
                    window = min(int(ei * n_win), n_win - 1)
                    macro = 0.0
                    base = ov[mi]
                    for j in range(cv[mi]):
                        nuc = nv[base + j]
                        sig_t = 0.0
                        sig_a = 0.0
                        for p in range(ppw):
                            factor = sig_t_factor(psv[nuc, lvv[nuc, window, p]], sqrt_e)
                            dt, da = pole_contribution(
                                eav[nuc, window, p], rtv[nuc, window, p],
                                rav[nuc, window, p], sqrt_e, factor,
                            )
                            sig_t += dt
                            sig_a += da
                        macro += dv[base + j] * (sig_t + sig_a)
                    res[idx[pos]] = macro

            target_teams_distribute_parallel_for(
                device,
                lookups,
                vector_body=body,
                thread_limit=block,
                maps=[(a, "to") for a in (ea, rt, ra, lval, pseudo, nucs, dens,
                                           offsets, counts, energies, mats)]
                + [(out, "from")],
                traits=self.omp_region_traits(params),
            )
            result = out
        else:
            kernel = rsbench_ompx_kernel if variant == VersionLabel.OMPX else rsbench_cuda_kernel
            alloc = device.allocator
            hosts = (ea, rt, ra, lval, pseudo, nucs, dens, offsets, counts, energies, mats)
            ptrs = []
            for host in hosts:
                ptr = alloc.malloc(host.nbytes)
                alloc.memcpy_h2d(ptr, np.ascontiguousarray(host))
                ptrs.append(ptr)
            d_out = alloc.malloc(out.nbytes)
            args = (*ptrs, d_out, n_iso, n_win, ppw, lookups, int(nucs.shape[0]))
            if variant == VersionLabel.OMPX:
                ompx.target_teams_bare(device, teams, block, kernel, args)
            else:
                cuda.launch(kernel, teams, block, args, device=device)
                device.synchronize()
            result = np.zeros(lookups)
            alloc.memcpy_d2h(result, d_out)
            for ptr in (*ptrs, d_out):
                alloc.free(ptr)

        return FunctionalResult(variant=variant, output=result, checksum=checksum(result), valid=False)

    # --- performance model ---------------------------------------------------------------
    @staticmethod
    def _avg_nuclides(params) -> float:
        counts = np.asarray(params["mat_counts"], dtype=np.float64)
        probs = np.asarray(_MAT_PROBS)
        return float(counts @ (probs / probs.sum()))

    def footprint(self, params, label: str = VersionLabel.OMPX) -> Footprint:
        lookups = params["lookups"]
        ppw = params["poles_per_window"]
        nuc_lookups = lookups * self._avg_nuclides(params)
        # One window of poles per nuclide: ppw * (3 complex + 1 int) values
        # at a random window — ~5 cache lines.
        return Footprint(
            flops_fp64=nuc_lookups * ppw * 35.0,
            special_ops=nuc_lookups * (2.0 + ppw * 2.0),  # sqrt + sin/cos per pole
            int_ops=nuc_lookups * 20.0,
            global_read_bytes=nuc_lookups * 5 * 128.0,
            global_write_bytes=lookups * 8.0,
            warp_efficiency=0.30,
        )

    def footprint_ex(self, params, label: str, system: SystemConfig) -> Footprint:
        fp = self.footprint(params, label)
        if system.gpu.vendor != "nvidia":
            # The MI250's doubled register file absorbs the scratch; no
            # spill on AMD (hence no omp advantage there, Figure 8h).
            return fp
        # A100: ~2 KB of per-lookup scratch traffic.  Native and ompx
        # builds pay it as local-memory (global) traffic; the omp build's
        # heap-to-shared optimization turns it into shared-memory traffic.
        spill = params["lookups"] * float(_SCRATCH_BYTES) * 0.25
        if label == VersionLabel.OMP:
            return Footprint(
                **{**fp.__dict__, "shared_bytes": fp.shared_bytes + spill}
            )
        return fp.with_extra_global_bytes(spill)

    def transfer_plan(self, params):
        """Pole tables and event arrays up, macro XS results down."""
        from ..perf.transfer import TransferPlan

        n_iso = params["n_isotopes"]
        n_win = params["n_windows"]
        ppw = params["poles_per_window"]
        lookups = params["lookups"]
        h2d = n_iso * n_win * ppw * (3 * 16.0 + 4.0) + lookups * 12.0
        return TransferPlan(h2d_bytes=h2d, d2h_bytes=lookups * 8.0,
                            h2d_transfers=11, d2h_transfers=1)

    def launch_geometry(self, params) -> Tuple[int, int]:
        lookups, block = params["lookups"], params["block"]
        return ((lookups + block - 1) // block, block)

    def kernel_for(self, label: str):
        if label == VersionLabel.OMPX:
            return rsbench_ompx_kernel
        return rsbench_cuda_kernel

    def omp_region_traits(self, params) -> RegionTraits:
        # SPMD-amenable worksharing with ~2 KB of escaping locals — the
        # heap-to-shared candidate the paper's profiling identified.
        return RegionTraits(
            style="worksharing",
            spmd_amenable=True,
            requested_thread_limit=params["block"],
            escaping_local_bytes=_SCRATCH_BYTES,
        )
