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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

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
      device), used when ``devices == 1`` and no pool is given.
    * ``devices``/``placement`` — size and placement policy of the
      :class:`~repro.sched.DevicePool` :func:`run` creates for sharded
      execution.
    * ``pool`` — an externally owned backend satisfying
      :class:`~repro.sched.PoolProtocol`; :func:`run` will not close it.
      A :class:`~repro.resilience.ResilientPool` routes through
      :meth:`~repro.resilience.ResilientPool.run_to_completion`
      automatically.
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
      recovery actions even when the run ultimately fails.
    * ``trace`` — install a process tracer for the duration when none is
      active; the tracer is attached to the result as ``result.tracer``.
    * ``checkpoint_dir``/``checkpoint_every``/``checkpoint_shards``/
      ``resume`` — execute through :func:`repro.ckpt.run_checkpointed`:
      the run is sharded into waves of ``checkpoint_every`` shards with
      a crash-consistent snapshot (completed shards + fault-plan replay
      cursor) after each wave.  ``resume=True`` restores the newest
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
    placement: object = "round_robin"
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
        if self.pool is not None and (self.devices > 1 or self.cluster):
            raise AppError(
                "pool= runs on the given backend, so devices > 1 and cluster "
                "would be ignored; pass the pool or those axes, not both"
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


def run(app: "BenchmarkApp", config: Optional[ExecutionConfig] = None,
        **overrides) -> FunctionalResult:
    """Run one app functionally — the unified submission entry point.

    ``run(app)`` executes the ompx variant on the current device at the
    app's functional scale.  Keyword overrides are applied on top of
    ``config`` (``run(app, devices=4, resilient=True)`` works without
    building an :class:`ExecutionConfig` by hand).  The CLI
    (``python -m repro.apps``), the serving tier (:mod:`repro.serve`)
    and the deprecated ``run_functional*`` shims all route through here.
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
    if config.checkpoint_dir is not None:
        return _run_checkpointed(app, variant, params, config)
    if (config.pool is None and config.cluster <= 0
            and config.devices <= 1 and not config.resilient):
        from ..gpu.device import resolve_placement

        return app.run_single(variant, params, resolve_placement(config.device))
    with _backend(config) as pool:
        return _run_on_pool(app, variant, params, pool)


@contextmanager
def _backend(config: ExecutionConfig):
    """Yield the pool a sharded or checkpointed run executes on.

    An external ``config.pool`` is yielded as is and never closed.  A
    ``cluster`` is built by :func:`repro.cluster.cluster_pool` (which may
    degrade to an in-process pool) and closed on exit.  Otherwise a fresh
    :class:`~repro.sched.DevicePool` gets the active fault plan bound to
    its devices and, when ``resilient``, is wrapped in a
    :class:`~repro.resilience.ResilientPool`.
    """
    if config.pool is not None:
        yield config.pool
        return
    seed = config.seed if config.seed is not None else _active_plan_seed()
    if config.cluster > 0:
        from ..cluster import cluster_pool
        from ..faults import active_plan

        pool = cluster_pool(
            config.cluster,
            resilient=config.resilient,
            verify=config.verify,
            seed=seed,
            report=config.report,
            plan=active_plan(),
        )
        try:
            yield pool
        finally:
            pool.close()
        return
    from ..sched import DevicePool

    with DevicePool(config.devices, placement=config.placement) as pool:
        _bind_fault_plan(pool)
        if not config.resilient:
            yield pool
            return
        from ..resilience import ResilientPool

        with ResilientPool(
            pool, verify=config.verify, seed=seed, report=config.report
        ) as rpool:
            yield rpool


def _run_checkpointed(app, variant, params, config: ExecutionConfig) -> FunctionalResult:
    """Execute through the ckpt runner on the configured backend.

    The checkpoint strategy subsumes the plain sharded/clustered paths
    (same shard contract, plus snapshots), so every backend — external
    pool, cluster, resilient, plain — funnels into
    :func:`repro.ckpt.run_checkpointed`.  A resilient backend wraps the
    whole body in ``run_to_completion``; because a re-entered session
    restores the latest snapshot first, each retry replays only the
    unfinished tail.
    """
    from ..ckpt import CheckpointSession, run_checkpointed

    session = CheckpointSession(
        config.checkpoint_dir, every=config.checkpoint_every
    )

    def body(pool) -> FunctionalResult:
        return run_checkpointed(
            app, variant, params, pool, session,
            resume=config.resume, shards=config.checkpoint_shards,
        )

    with _backend(config) as pool:
        if hasattr(pool, "run_to_completion"):
            result = pool.run_to_completion(
                body, label=f"{app.name}:{variant}:ckpt"
            )
        else:
            result = body(pool)
    result.checkpoint = session
    return result


def _run_on_pool(app, variant, params, pool) -> FunctionalResult:
    """Dispatch onto an already-built backend (plain/resilient/cluster)."""
    if getattr(pool, "is_cluster", False):
        return app.run_clustered(variant, params, pool)
    if hasattr(pool, "run_to_completion"):
        return pool.run_to_completion(
            lambda rp: app.run_sharded(variant, params, rp),
            label=f"{app.name}:{variant}",
        )
    return app.run_sharded(variant, params, pool)


def _bind_fault_plan(pool) -> None:
    """Re-map ``device=`` fault selectors onto the pool's live ordinals.

    Spec-level selectors mean *pool indices* whenever a pool is in play
    (the CLI contract since PR 5), so the same spec kills a plain pooled
    run and is survived by a resilient one.
    """
    from ..faults import active_plan

    plan = active_plan()
    if plan is not None:
        plan.bind_devices({i: d.ordinal for i, d in enumerate(pool.devices)})


def _active_plan_seed() -> int:
    from ..faults import active_plan

    plan = active_plan()
    return plan.seed if plan is not None else 0


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
        self, variant: str, params: Mapping[str, object], pool
    ) -> FunctionalResult:
        """Run one variant data-parallel across a :class:`~repro.sched.DevicePool`.

        The default strategy shards the problem axis with
        :meth:`shard_functional_params`, runs each shard's
        :meth:`run_single` on its own pool worker, gathers the
        futures, and concatenates the outputs — bit-identical to the
        single-device run because the per-element computation never
        crosses shard boundaries.  Stencil-1D overrides this with a true
        halo-exchange decomposition (its windows *do* cross boundaries).
        """
        from ..sched import gather

        if variant == VersionLabel.OMP:
            raise AppError(
                "the classic-OpenMP variant offloads through host mapping "
                "tables and cannot be sharded across a DevicePool; use the "
                "ompx or native variant"
            )
        shards = self.shard_functional_params(params, len(pool))
        # Shards are self-contained (each run_single call allocates,
        # computes and downloads on whatever device it is handed), so
        # they are submitted *unpinned*: round-robin placement spreads
        # them one per device exactly as pinning did, but a resilient
        # pool is free to re-place a retried shard on a surviving device.
        # ``shard=True`` is part of the PoolProtocol signature: resilient
        # pools count retries of these jobs as re-executed shards, plain
        # pools accept and ignore it.
        futures = [
            pool.submit_call(
                functools.partial(self.run_single, variant, sub),
                label=f"{self.name}:shard{i}",
                shard=True,
            )
            for i, sub in enumerate(shards)
        ]
        results = gather(futures)
        output = np.concatenate([r.output for r in results])
        return FunctionalResult(
            variant=variant,
            output=output,
            checksum=self.result_checksum(output),
            valid=False,
        )

    def run_clustered(
        self, variant: str, params: Mapping[str, object], pool
    ) -> FunctionalResult:
        """Run one variant across a :class:`~repro.cluster.ClusterPool`.

        Always uses the *generic* self-contained shard strategy — the
        base :meth:`run_sharded` — never an app's in-process override:
        Stencil-1D's halo exchange rides streams, events and peer copies
        that cannot cross process boundaries, so under a cluster it
        decomposes with deep ghost cells instead (see its
        ``shard_functional_params``).  Shards are submitted unpinned, so
        a worker lost mid-run redispatches its shards to the survivors
        and the gathered output stays bit-identical.
        """
        return BenchmarkApp.run_sharded(self, variant, params, pool)

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
