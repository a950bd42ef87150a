"""Kernel launch: geometry validation + engine dispatch + stream routing.

This is the one choke point every language layer calls:  CUDA's chevron
launch, HIP's ``hipLaunchKernelGGL``, OpenMP's ``target teams`` lowering
and ompx's ``target teams ompx_bare`` all build a :class:`LaunchConfig`
and call :func:`launch_kernel`.

The canonical signature is config-first::

    launch_kernel(config, kernel, args, device=None, synchronous=True)

A launch runs once, on the engine :func:`~repro.gpu.engine.select_engine`
picks; nothing re-runs a kernel that raised, so a body whose writes have
landed is never executed a second time.

The pre-redesign kernel-first order is still accepted as a thin shim that
emits :class:`DeprecationWarning`; it will be removed two releases after
the :class:`LaunchConfig` consolidation (see the README's deprecation
timeline).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import KernelFault, LaunchError
from ..faults.inject import active_plan as _fault_plan
from ..trace import get_tracer
from .dim import Dim3, DimLike, as_dim3, delinearize
from .engine import KernelStats, describe_plan_key, lane_entry, select_engine
from .kernel import kernel_name
from .stream import Stream

__all__ = ["LaunchConfig", "launch_kernel"]

def _with_injected_fault(kernel: Callable, name: str, spec: dict) -> Callable:
    """Wrap ``kernel`` so the planned :class:`KernelFault` fires in-flight.

    ``spec`` comes from a ``launch:kernel_fault`` rule: ``block`` restricts
    the fault to one flat block id (every thread of that block raises, so
    cooperative barriers cannot deadlock on divergence), ``after_barriers``
    delays it until that many barriers completed.
    """
    block_sel = spec.get("block")
    after = int(spec.get("after_barriers") or 0)
    message = spec.get("message", "injected kernel fault")

    def fault(ctx) -> None:
        # A lane batch reports its lowest block, as the scalar engines
        # report the first block they run: a plain Dim3 either way.
        block = block_sel
        if block is None:
            block = delinearize(int(np.min(ctx.flat_block_id)), ctx.grid_dim)
        raise KernelFault(message, kernel=name, block=block, injected=True)

    def wrapped(ctx, *args):
        flat_block = ctx.flat_block_id
        if block_sel is not None and not np.any(np.asarray(flat_block) == block_sel):
            return kernel(ctx, *args)
        if after <= 0:
            fault(ctx)
        return kernel(_BarrierFaultCtx(ctx, after, fault), *args)

    wrapped.__name__ = name
    return wrapped


class _BarrierFaultCtx:
    """Proxy around a thread context that faults after N completed barriers.

    The wrapped barrier finishes first (all threads of the block cross it
    together), *then* every thread raises — so the injected fault never
    manufactures barrier divergence on top of itself.
    """

    def __init__(self, ctx, after: int, fault) -> None:
        self._ctx = ctx
        self._after = after
        self._fault = fault
        self._count = 0

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def sync_threads(self) -> None:
        self._ctx.sync_threads()
        self._count += 1
        if self._count == self._after:
            self._fault(self._ctx)


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block geometry plus dynamic-shared size, stream and engine hint.

    Mirrors CUDA's ``<<<grid, block, sharedBytes, stream>>>`` and the ompx
    ``num_teams(...) thread_limit(...)`` clauses.  ``engine`` optionally
    pins the execution engine by name (``"block-thread"``, ``"map"``,
    ``"vector"``, ``"wave"``) instead of letting
    :func:`~repro.gpu.engine.select_engine` decide.
    """

    grid: Dim3
    block: Dim3
    shared_bytes: int = 0
    stream: Optional[Stream] = None
    engine: Optional[str] = None

    @classmethod
    def create(
        cls,
        grid: DimLike,
        block: DimLike,
        shared_bytes: int = 0,
        *legacy,
        stream: Optional[Stream] = None,
        engine: Optional[str] = None,
    ) -> "LaunchConfig":
        """Build a config, coercing int/tuple geometry into :class:`Dim3`.

        ``stream``/``engine`` are keyword-only.  The positional form left
        over from the PR-1 launch unification
        (``create(grid, block, shared, stream, engine)``) completed its
        documented deprecation timeline: it now raises
        :class:`~repro.errors.LaunchError` pointing at the keyword
        spelling instead of emitting :class:`DeprecationWarning`.
        """
        if legacy:
            raise LaunchError(
                "LaunchConfig.create takes at most (grid, block, "
                "shared_bytes) positionally; the deprecated positional "
                "stream/engine form was removed — write "
                "LaunchConfig.create(grid, block, shared_bytes, "
                "stream=..., engine=...) with keywords"
            )
        return cls(as_dim3(grid), as_dim3(block), int(shared_bytes), stream, engine)

    @property
    def total_threads(self) -> int:
        """Threads launched: grid volume times block volume."""
        return self.grid.volume * self.block.volume


def launch_kernel(
    config,
    kernel,
    args: Sequence = (),
    device=None,
    *,
    synchronous: bool = True,
) -> Optional[KernelStats]:
    """Validate and run a kernel described by a :class:`LaunchConfig`.

    ``kernel`` is a :class:`~repro.gpu.kernel.Kernel` (what every front
    end's kernel decorator returns) or a raw ``kernel(ctx, *args)``
    function.  ``device=`` accepts anything
    :func:`repro.gpu.device.resolve_placement` does — an ``int`` ordinal,
    a :class:`Device`, or ``None`` for the thread-current device.  With a stream and
    ``synchronous=False`` the launch is enqueued and ``None`` is returned
    (stats are unavailable until the stream drains) — the CUDA behaviour.
    Otherwise the kernel runs to completion and its :class:`KernelStats`
    are returned — the default OpenMP ``target`` behaviour the paper
    contrasts in §2.3.  A kernel that raises fails with the
    :class:`LaunchError` of the engine it ran on (``.engine``/``.key``
    name it); an in-flight :class:`KernelFault` also poisons ``device``.
    """
    if not isinstance(config, LaunchConfig):
        if isinstance(kernel, LaunchConfig) and callable(config):
            warnings.warn(
                "launch_kernel(kernel, config, ...) is deprecated; pass the "
                "LaunchConfig first: launch_kernel(config, kernel, ...)",
                DeprecationWarning,
                stacklevel=2,
            )
            config, kernel = kernel, config
        else:
            raise LaunchError(
                f"launch_kernel expects a LaunchConfig first, got "
                f"{type(config).__name__!s}"
            )
    from .device import resolve_placement

    device = resolve_placement(device)
    device.check_poison()
    device.spec.validate_launch(config.grid, config.block, config.shared_bytes)
    engine = select_engine(kernel, hint=config.engine)
    name = kernel_name(kernel)

    fault_spec = None
    plan = _fault_plan()
    if plan is not None:
        effects = plan.fire(
            "launch",
            kernel=name,
            device=device.ordinal,
            stream=config.stream.name if config.stream is not None else None,
        )
        fault_spec = effects.get("kernel_fault")
        delay_s = effects.get("delay_s")
        if delay_s:
            # A hung kernel: the sleep happens on whichever thread runs
            # the launch (a stream worker or a pool worker), where the
            # resilience watchdog can observe the stall.
            time.sleep(delay_s)

    def run() -> KernelStats:
        # A lane-batched engine runs the lowered body of per-thread source
        # (repro.compiler.lower); the planned fault wraps whichever body runs.
        lowered = lane_entry(kernel, engine)
        run_kernel = kernel if lowered is None else lowered
        if fault_spec is not None:
            run_kernel = _with_injected_fault(run_kernel, name, fault_spec)
        tracer = get_tracer()
        try:
            if tracer is None:
                return engine.run(
                    run_kernel, config.grid, config.block, tuple(args), device,
                    config.shared_bytes,
                )
            with tracer.span(
                f"kernel:{name}",
                cat="kernel",
                engine=engine.name,
                lowered=lowered is not None,
                grid=list(config.grid.as_tuple()),
                block=list(config.block.as_tuple()),
                shared_bytes=config.shared_bytes,
            ) as sp:
                stats = engine.run(
                    run_kernel, config.grid, config.block, tuple(args), device,
                    config.shared_bytes,
                )
                # Harvest the launch's observed-behaviour counters into
                # the span so trace consumers see what KernelStats saw.
                sp.args.update(
                    threads_run=stats.threads_run,
                    blocks_run=stats.blocks_run,
                    barriers=stats.barriers,
                    warp_collectives=stats.warp_collectives,
                    global_derefs=stats.global_derefs,
                    shared_declarations=stats.shared_declarations,
                )
                tracer.counter("launches")
                return stats
        except LaunchError as exc:
            if exc.engine is None:
                exc.engine = engine.name
            if exc.key is None:
                exc.key = describe_plan_key(
                    kernel, device, config.block, config.engine
                )
            cause = exc.__cause__
            if isinstance(cause, KernelFault):
                # CUDA sticky semantics: an in-flight kernel fault poisons
                # the whole device context, not just this launch.
                if cause.kernel is None:
                    cause.kernel = name
                device.poison(cause)
            raise

    if config.stream is not None and not synchronous:
        config.stream.enqueue(run, label=f"launch:{name}")
        return None
    if config.stream is not None:
        # Synchronous launch on a stream still respects stream ordering.
        result: list = []
        config.stream.enqueue(
            lambda: result.append(run()), label=f"launch:{name}"
        )
        config.stream.synchronize()
        return result[0]
    return run()
