"""Shared framework for the six evaluated applications (paper Figure 6).

Each application module provides:

* parameter parsing for the exact command line the paper used (Figure 6),
* a NumPy host reference producing the golden output/checksum,
* kernels in the CUDA DSL and their ompx ports (the paper's point: the
  port is a renaming), plus a classic-OpenMP variant,
* a workload :class:`~repro.perf.Footprint` derived analytically from the
  parameters, feeding the Figure 8 harness,
* functional runners that execute each variant on the virtual GPU at a
  reduced problem size and verify the checksum.

The four *version labels* of Figure 8 (``ompx``, ``omp``, ``cuda``/
``hip``, ``cuda-nvcc``/``hip-hipcc``) are combinations of a variant and a
toolchain; :meth:`BenchmarkApp.compiled_for` resolves them.
"""

from __future__ import annotations

import abc
import functools
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..compiler.compile import CompiledKernel, compile_kernel
from ..compiler.toolchain import HIPCC, LLVM_CLANG, NVCC, OMP_LLVM, OMPX_PROTO, Toolchain
from ..errors import AppError
from ..gpu.device import Device
from ..openmp.codegen import RegionTraits
from ..perf.roofline import Footprint
from ..perf.timing import SystemConfig, TimeBreakdown, estimate_time
from ..perf.transfer import TransferPlan

__all__ = [
    "VersionLabel",
    "FunctionalResult",
    "BenchmarkApp",
    "ExecutionConfig",
    "run",
    "checksum",
]


class VersionLabel:
    """The bar labels of Figure 8."""

    OMPX = "ompx"
    OMP = "omp"
    NATIVE_LLVM = "native-llvm"     # 'cuda' on NVIDIA, 'hip' on AMD
    NATIVE_VENDOR = "native-vendor"  # 'cuda-nvcc' / 'hip-hipcc'

    ALL = (OMPX, OMP, NATIVE_LLVM, NATIVE_VENDOR)

    @staticmethod
    def display(label: str, system: SystemConfig) -> str:
        """The exact bar label the paper prints for a system."""
        if label == VersionLabel.NATIVE_LLVM:
            return system.native_language
        if label == VersionLabel.NATIVE_VENDOR:
            return f"{system.native_language}-{system.vendor_compiler}"
        return label


def checksum(*arrays: np.ndarray) -> float:
    """Order-independent output digest used for cross-variant verification."""
    total = 0.0
    for arr in arrays:
        arr = np.asarray(arr, dtype=np.float64)
        total += float(np.sum(arr)) + float(np.sum(np.abs(arr))) * 0.5
    return total


@dataclass
class FunctionalResult:
    """Output of one functional (simulated) run of a variant."""

    variant: str
    output: np.ndarray
    checksum: float
    valid: bool


@dataclass
class ExecutionConfig:
    """Everything :func:`run` needs to know about *how* to execute an app.

    One submission surface replaces the old
    ``run_functional``/``run_functional_sharded``/
    ``run_functional_resilient`` trio: pick a variant and a scale, and
    :func:`run` builds (or reuses) the right execution substrate.

    * ``variant``/``params`` — what to run; ``params=None`` means the
      app's reduced :meth:`BenchmarkApp.functional_params`.
    * ``device`` — single-device target (an ordinal or a
      :class:`~repro.gpu.device.Device`; ``None`` is the thread-current
      device).  Only a run that is not :attr:`pooled` reads it, so a
      pooled run refuses it.
    * ``devices`` — size of the :class:`~repro.sched.DevicePool`
      :func:`run` creates for sharded execution (round-robin placement);
      refused above 1 with ``cluster``, which runs one device per worker.
    * ``pool`` — an externally owned backend satisfying
      :class:`~repro.sched.PoolProtocol`; :func:`run` will not close it.
      A :class:`~repro.resilience.ResilientPool` routes through
      :meth:`~repro.resilience.ResilientPool.run_to_completion`
      automatically.  The backend is used as built, so ``pool`` is
      refused with the axes that would build a different one
      (``devices > 1``, ``cluster``, ``resilient``, ``seed``,
      ``report``); for another placement policy pass
      ``pool=DevicePool(n, placement=...)``.
    * ``cluster`` — shard across that many supervised worker OS
      processes instead of in-process pool threads (see
      :mod:`repro.cluster`); degrades to an in-process pool with a
      :class:`RuntimeWarning` when no worker can be spawned.  Composes
      with ``resilient`` (device healing inside each worker) and an
      active fault plan (shipped to and re-bound inside the workers —
      trigger counters then count per worker process).
    * ``resilient``/``verify``/``seed``/``report`` — wrap the pool in
      :class:`~repro.resilience.ResilientPool` (``verify=2`` adds the
      dual-device cross-check, so it needs ``devices >= 2``, or two
      devices per cluster worker; a smaller pool is refused with
      :class:`~repro.errors.SchedulerError`); ``seed=None`` inherits the
      active fault plan's seed so chaos replays stay deterministic.
      Pass a :class:`~repro.resilience.RecoveryReport` to observe
      recovery actions even when the run ultimately fails.  Only a
      resilient pool or a cluster reads ``seed`` and ``report``, so
      either one without ``resilient`` or ``cluster`` is refused.
    * ``trace`` — install a process tracer for the duration when none is
      active; the tracer is attached to the result as ``result.tracer``.
    * ``checkpoint_dir``/``checkpoint_every``/``checkpoint_shards``/
      ``resume`` — hand :meth:`BenchmarkApp.run_sharded` a
      :class:`~repro.ckpt.CheckpointSession`: the run is sharded into
      waves of ``checkpoint_every`` shards with a crash-consistent
      snapshot (completed shards + fault-plan replay cursor) after each
      wave.  ``resume=True`` restores the newest
      valid snapshot from ``checkpoint_dir`` and re-executes only the
      unfinished tail — bit-identical to an uninterrupted run.
      Composes with every other axis: under ``resilient`` the retry
      loop re-enters from the last checkpoint instead of step zero;
      under ``cluster`` the chain survives SIGKILL of the supervisor
      process itself.  The session is attached to the result as
      ``result.checkpoint``.

    A config that cannot be honoured is refused at construction with an
    :class:`~repro.errors.AppError`, before any pool or worker exists
    (see :meth:`__post_init__`).
    """

    variant: str = VersionLabel.OMPX
    params: Optional[Mapping[str, object]] = None
    device: object = None
    devices: int = 1
    cluster: int = 0
    pool: Optional[object] = None
    resilient: bool = False
    verify: int = 1
    seed: Optional[int] = None
    report: Optional[object] = None
    trace: bool = False
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1
    checkpoint_shards: Optional[int] = None
    resume: bool = False

    def __post_init__(self) -> None:
        """Refuse axes that contradict each other or cannot be honoured."""
        if self.devices < 1:
            raise AppError(f"devices must be >= 1, got {self.devices}")
        if self.cluster < 0:
            raise AppError(f"cluster must be >= 0 worker processes, got {self.cluster}")
        if self.verify not in (1, 2):
            raise AppError(f"verify must be 1 or 2, got {self.verify!r}")
        if self.verify == 2 and not self.resilient:
            raise AppError(
                "verify=2 is the resilient pool's dual-device cross-check; "
                "it needs resilient=True (--resilient)"
            )
        if self.checkpoint_every < 1:
            raise AppError(
                f"checkpoint_every must be >= 1 shard, got {self.checkpoint_every}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise AppError("resume=True requires checkpoint_dir (--checkpoint DIR)")
        if self.pool is not None:
            ignored = [
                axis for axis, on in (
                    (f"devices={self.devices}", self.devices > 1),
                    (f"cluster={self.cluster}", self.cluster > 0),
                    ("resilient", self.resilient),
                    (f"seed={self.seed}", self.seed is not None),
                    ("report", self.report is not None),
                ) if on
            ]
            if ignored:
                raise AppError(
                    "pool= runs on the given backend, so "
                    + ", ".join(ignored) + " would be ignored; build the "
                    "backend with them, or pass them instead of pool="
                )
        if self.device is not None and self.pooled:
            raise AppError(
                f"device={self.device!r} targets a single-device run, but this "
                "run is pooled and places its shards on the pool's own "
                "devices; drop device= or the pooling axes"
            )
        if not (self.resilient or self.cluster > 0):
            unread = [
                axis for axis, on in (
                    (f"seed={self.seed}", self.seed is not None),
                    ("report", self.report is not None),
                ) if on
            ]
            if unread:
                raise AppError(
                    ", ".join(unread) + " would be ignored: only a resilient "
                    "pool or a cluster reads them; pass resilient=True or "
                    "cluster=N, or drop them"
                )
        if self.cluster > 0 and self.devices > 1:
            raise AppError(
                f"devices={self.devices} would be ignored: cluster="
                f"{self.cluster} runs one device per worker process; pass "
                "one of devices= or cluster="
            )
        if self.variant == VersionLabel.OMP:
            sharded = [
                axis for axis, on in (
                    (f"devices={self.devices}", self.devices > 1),
                    (f"cluster={self.cluster}", self.cluster > 0),
                    ("pool", self.pool is not None),
                    ("checkpoint_dir", self.checkpoint_dir is not None),
                ) if on
            ]
            if sharded:
                raise AppError(
                    "the classic-OpenMP variant offloads through host mapping "
                    "tables and cannot be sharded (" + ", ".join(sharded)
                    + "); use the ompx or native variant"
                )

    @property
    def pooled(self) -> bool:
        """Whether :func:`run` shards over a pool instead of running on
        ``device``: any of ``pool``, ``cluster``, ``devices > 1``,
        ``resilient`` or ``checkpoint_dir``."""
        return (self.pool is not None or self.cluster > 0 or self.devices > 1
                or self.resilient or self.checkpoint_dir is not None)


def run(app: "BenchmarkApp", config: Optional[ExecutionConfig] = None,
        **overrides) -> FunctionalResult:
    """Run one app functionally — the unified submission entry point.

    ``run(app)`` executes the ompx variant on the current device at the
    app's functional scale.  Keyword overrides are applied on top of
    ``config`` (``run(app, devices=4, resilient=True)`` works without
    building an :class:`ExecutionConfig` by hand).  The CLI
    (``python -m repro.apps``) and the serving tier (:mod:`repro.serve`)
    both route through here.
    """
    config = config or ExecutionConfig()
    if overrides:
        config = replace(config, **overrides)
    params = config.params if config.params is not None else app.functional_params()
    variant = config.variant
    if variant == VersionLabel.NATIVE_VENDOR:
        variant = VersionLabel.NATIVE_LLVM  # same sources, different toolchain

    tracer = None
    if config.trace:
        from .. import trace as trace_mod

        if trace_mod.get_tracer() is None:
            tracer = trace_mod.enable()
    try:
        result = _run_with_config(app, variant, params, config)
    finally:
        if tracer is not None:
            from .. import trace as trace_mod

            trace_mod.disable()
    result.tracer = tracer
    return result


def _run_with_config(app, variant, params, config: ExecutionConfig) -> FunctionalResult:
    """Run on one device, or shard through :meth:`BenchmarkApp.run_sharded`.

    Every pooled backend — external pool, cluster, resilient, plain —
    runs the same body, checkpointed when ``checkpoint_dir`` is set.  A
    backend with a ``run_to_completion`` loop (a resilient pool) wraps
    the body in it; because a re-entered session restores the latest
    snapshot first, each retry of a checkpointed run replays only the
    unfinished tail.
    """
    if not config.pooled:
        from ..gpu.device import resolve_placement

        return app.run_single(variant, params, resolve_placement(config.device))
    session = shards = None
    label = f"{app.name}:{variant}"
    if config.checkpoint_dir is not None:
        from ..ckpt import CheckpointSession

        session = CheckpointSession(
            config.checkpoint_dir, every=config.checkpoint_every
        )
        label, shards = f"{label}:ckpt", config.checkpoint_shards

    def body(pool) -> FunctionalResult:
        return app.run_sharded(
            variant, params, pool, session, resume=config.resume, shards=shards
        )

    from ..backend import open_pool

    # An external pool is the caller's to close; open_pool closes its own.
    backend = nullcontext(config.pool) if config.pool is not None else open_pool(
        config.devices, cluster=config.cluster, resilient=config.resilient,
        verify=config.verify, seed=config.seed, report=config.report,
    )
    with backend as pool:
        # getattr, not isinstance: benchmark harnesses wrap pools in
        # attribute-forwarding proxies.
        run_to_completion = getattr(pool, "run_to_completion", None)
        if run_to_completion is not None:
            result = run_to_completion(body, label=label)
        else:
            result = body(pool)
    if session is not None:
        result.checkpoint = session
    return result


#: The pre-1.2 runner trio, removed after its DeprecationWarning cycle;
#: looked up by ``BenchmarkApp.__getattr__`` to raise a pointed error.
_REMOVED_RUNNERS = {
    "run_functional": "repro.apps.run(app, variant=..., device=...)",
    "run_functional_sharded":
        "repro.apps.run(app, devices=N) or run(app, pool=...)",
    "run_functional_resilient": "repro.apps.run(app, resilient=True)",
}


class BenchmarkApp(abc.ABC):
    """One of the six HeCBench applications."""

    #: Figure 6 columns.
    name: str = ""
    description: str = ""
    command_line: str = ""

    #: Whether Figure 8 reports the whole measured section or a
    #: per-iteration time (the stencil/Adam plots are per launch).
    reports: str = "total"

    #: Perf hints established by the paper's profiling (see
    #: repro.compiler.toolchain); keyed by version label when they differ.
    perf_hints: Mapping[str, bool] = {}

    # --- parameters --------------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def parse_args(cls, argv: Sequence[str]) -> Mapping[str, object]:
        """Parse the Figure 6 command line into parameters."""

    @classmethod
    @abc.abstractmethod
    def paper_params(cls) -> Mapping[str, object]:
        """The exact parameters of the paper's runs."""

    @classmethod
    @abc.abstractmethod
    def functional_params(cls) -> Mapping[str, object]:
        """A reduced problem the thread-level simulator can execute."""

    # --- golden reference -----------------------------------------------------
    @abc.abstractmethod
    def reference(self, params: Mapping[str, object]) -> np.ndarray:
        """Vectorized NumPy host reference (the verification oracle)."""

    # --- functional execution ----------------------------------------------------
    @abc.abstractmethod
    def run_single(
        self, variant: str, params: Mapping[str, object], device: Device
    ) -> FunctionalResult:
        """Run one variant on one virtual GPU — the per-app primitive.

        This is the hook each application implements; callers go through
        :func:`run` (or the serving tier), which handles device
        resolution, sharding and resilience around it.
        """

    #: Variants the app implements functionally; NATIVE_VENDOR shares the
    #: NATIVE_LLVM sources (only the toolchain differs).
    functional_variants: Tuple[str, ...] = (
        VersionLabel.OMPX,
        VersionLabel.OMP,
        VersionLabel.NATIVE_LLVM,
    )

    # --- multi-device execution ---------------------------------------------------
    def shard_functional_params(
        self, params: Mapping[str, object], n: int
    ) -> Sequence[Mapping[str, object]]:
        """Split one functional problem into per-device parameter dicts.

        Each returned mapping must be runnable by :meth:`run_single`
        on its own device, and concatenating the per-shard outputs in
        submission order must reproduce the single-device output exactly.
        Apps implement this by building the full problem once (so the RNG
        stream is identical to a single-device run), slicing the problem
        axis with :func:`repro.sched.shard`, and passing the slices back
        through the ``_prebuilt`` parameter their builders honour.
        """
        raise AppError(f"{self.name} does not support sharded execution")

    def result_checksum(self, output: np.ndarray) -> float:
        """Checksum of a gathered output (su3 overrides for complex data)."""
        return checksum(output)

    def run_sharded(
        self,
        variant: str,
        params: Mapping[str, object],
        pool,
        session=None,
        *,
        resume: bool = False,
        shards: Optional[int] = None,
    ) -> FunctionalResult:
        """Run one variant data-parallel across a pool — the one sharded executor.

        Shards the problem axis with :meth:`shard_functional_params`,
        runs each shard's :meth:`run_single` on a pool worker, gathers
        the futures, and concatenates the outputs in shard order —
        bit-identical to the single-device run for any shard count,
        because the per-element computation never crosses shard
        boundaries.  ``pool`` is any :class:`~repro.sched.PoolProtocol`
        backend: in-process, resilient or a process cluster.

        With no ``session`` the run is ``shards`` (default ``len(pool)``)
        shards in one wave.  With a
        :class:`~repro.ckpt.CheckpointSession` the default is
        ``max(len(pool), 4)`` shards, so even a narrow pool gets a chain
        worth resuming; they run in waves of ``session.every`` with a
        snapshot after each, and ``resume=True`` restores the newest
        valid snapshot and runs only the unfinished tail (see
        :meth:`~repro.ckpt.CheckpointSession.open_shards`).

        Stencil-1D overrides this with an in-process halo exchange (its
        windows *do* cross shard boundaries) and falls back here under a
        session or a cluster.
        """
        from ..sched import gather

        if variant == VersionLabel.OMP:
            raise AppError(
                "the classic-OpenMP variant offloads through host mapping "
                "tables and cannot be sharded across a DevicePool; use the "
                "ompx or native variant"
            )
        nshards = int(shards) if shards else (
            len(pool) if session is None else max(len(pool), 4)
        )
        done: Dict[int, np.ndarray] = {}
        if session is not None:
            nshards, done = session.open_shards(
                self, variant, params, nshards, resume=resume
            )
        subs = self.shard_functional_params(params, nshards)
        # Empty chunks are dropped by repro.sched.shard, so a tiny
        # problem can realize fewer shards than requested.
        pending = [i for i in range(len(subs)) if i not in done]
        size = session.every if session is not None else max(len(pending), 1)
        # A fully restored run still commits once (one empty wave): it
        # re-publishes its terminal snapshot.
        waves = [pending[s : s + size] for s in range(0, len(pending), size)]
        for wave in waves or [[]]:
            # Shards are self-contained (each run_single call allocates,
            # computes and downloads on whatever device it is handed), so
            # they are submitted *unpinned*: round-robin placement spreads
            # them one per device, a resilient pool may re-place a retried
            # shard on a surviving device, and a cluster redispatches a
            # lost worker's shards.  ``shard=True`` makes resilient pools
            # count retries of these jobs as re-executed shards.
            futures = [
                pool.submit_call(
                    functools.partial(self.run_single, variant, subs[i]),
                    label=f"{self.name}:shard{i}",
                    shard=True,
                )
                for i in wave
            ]
            for i, result in zip(wave, gather(futures)):
                done[i] = result.output
            if session is not None:
                session.commit_shards(done, len(subs))
        output = np.concatenate([done[i] for i in range(len(subs))])
        return FunctionalResult(
            variant=variant,
            output=output,
            checksum=self.result_checksum(output),
            valid=False,
        )

    # --- removed pre-1.2 entry points ----------------------------------------------
    def __getattr__(self, name: str):
        if name in _REMOVED_RUNNERS:
            raise AttributeError(
                f"BenchmarkApp.{name} was removed in release 1.2 at the "
                f"end of its deprecation cycle; use "
                f"{_REMOVED_RUNNERS[name]} instead (see the README "
                f"migration table for the unified run() API)"
            )
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # --- performance-model inputs ---------------------------------------------------
    @abc.abstractmethod
    def footprint(
        self, params: Mapping[str, object], label: str = "ompx"
    ) -> Footprint:
        """Bytes/flops of ONE kernel launch at these parameters.

        ``label`` matters when the versions are *algorithmically* different
        — e.g. the classic OpenMP Stencil cannot stage a shared tile from a
        worksharing loop, so it re-reads the halo from global memory.
        """

    @abc.abstractmethod
    def launch_geometry(self, params: Mapping[str, object]) -> Tuple[int, int]:
        """(teams, threads_per_team) requested by the host code."""

    def launches(self, params: Mapping[str, object]) -> int:
        """Kernel launches in the measured section (default: one)."""
        return 1

    @abc.abstractmethod
    def kernel_for(self, label: str):
        """The kernel object compiled for a version label."""

    def omp_region_traits(self, params: Mapping[str, object]) -> RegionTraits:
        """How the classic OpenMP version's region lowers (per app)."""
        _, block = self.launch_geometry(params)
        return RegionTraits(style="worksharing", requested_thread_limit=block)

    def static_shared_bytes(self, params: Mapping[str, object]) -> int:
        """Static ``__shared__`` usage per block (0 for most apps)."""
        return 0

    # --- version resolution -----------------------------------------------------------
    def _toolchain_for(self, label: str, system: SystemConfig) -> Tuple[str, Toolchain]:
        if label == VersionLabel.OMPX:
            return "ompx", OMPX_PROTO
        if label == VersionLabel.OMP:
            return "omp", OMP_LLVM
        language = system.native_language
        if label == VersionLabel.NATIVE_LLVM:
            return language, LLVM_CLANG
        if label == VersionLabel.NATIVE_VENDOR:
            return language, NVCC if language == "cuda" else HIPCC
        raise AppError(f"unknown version label {label!r}; expected {VersionLabel.ALL}")

    def compiled_for(
        self, label: str, system: SystemConfig, params: Mapping[str, object]
    ) -> CompiledKernel:
        """Compile the app's kernel as one of the Figure 8 versions."""
        language, toolchain = self._toolchain_for(label, system)
        region_traits = self.omp_region_traits(params) if label == VersionLabel.OMP else None
        return compile_kernel(
            self.kernel_for(label),
            system.gpu,
            language=language,
            toolchain=toolchain,
            shared_bytes=self.static_shared_bytes(params),
            region_traits=region_traits,
            hints=dict(self.perf_hints),
        )

    def footprint_ex(
        self, params: Mapping[str, object], label: str, system: SystemConfig
    ) -> Footprint:
        """System-aware footprint hook.

        Most apps delegate to :meth:`footprint`; RSBench overrides it
        because its register-spill traffic exists only where the register
        file is tight (the A100, not the MI250).
        """
        return self.footprint(params, label)

    def estimate(
        self,
        label: str,
        system: SystemConfig,
        params: Optional[Mapping[str, object]] = None,
    ) -> TimeBreakdown:
        """Price one Figure 8 cell: (this app, this version, this system)."""
        params = params or self.paper_params()
        compiled = self.compiled_for(label, system, params)
        teams, block = self.launch_geometry(params)
        return estimate_time(
            compiled,
            self.footprint_ex(params, label, system),
            block_threads=block,
            teams=teams,
            launches=self.launches(params),
        )

    def reported_seconds(self, tb: TimeBreakdown) -> float:
        """Map a TimeBreakdown onto what the benchmark itself reports."""
        return tb.per_launch_s if self.reports == "per_launch" else tb.total_s

    def transfer_plan(self, params: Mapping[str, object]) -> TransferPlan:
        """Host<->device data movement around the measured section.

        Default: no movement (the Figure 8 timings are device-side only);
        apps override with their Figure 1-style upload/download sizes.
        """
        return TransferPlan(h2d_bytes=0.0, d2h_bytes=0.0,
                            h2d_transfers=0, d2h_transfers=0)

    def estimate_end_to_end(
        self,
        label: str,
        system: SystemConfig,
        params: Optional[Mapping[str, object]] = None,
    ) -> float:
        """Measured section plus the host<->device transfers, in seconds."""
        params = params or self.paper_params()
        tb = self.estimate(label, system, params)
        return tb.total_s + self.transfer_plan(params).seconds(system.host_link)

    # --- verification helper -------------------------------------------------------------
    def verify(self, result: FunctionalResult, params: Mapping[str, object]) -> bool:
        """Compare a functional result against the NumPy golden reference."""
        expected = self.reference(params)
        ok = np.allclose(result.output, expected, rtol=1e-10, atol=1e-12)
        result.valid = bool(ok)
        return result.valid
