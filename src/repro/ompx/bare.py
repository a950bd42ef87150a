"""The ``ompx_bare`` clause (§3.1) and multi-dimensional launches (§3.2).

``target_teams_bare`` is the Python rendering of

.. code-block:: c

    #pragma omp target teams ompx_bare num_teams(gx, gy, gz) \\
        thread_limit(bx, by, bz) [nowait] [depend(...)]
    { /* SIMT body, all threads of all teams active */ }

Semantics per the paper:

* the region runs in "bare metal" mode — no device runtime
  initialization, no state machine, no globalization of locals (the
  codegen lowering returns the BARE :class:`CodegenInfo`);
* ``num_teams``/``thread_limit`` accept multi-dimensional extents;
  dimensions exceeding the device's capability are *disregarded*
  (clamped), not rejected;
* the construct is synchronous by default (OpenMP semantics, §2.3) and
  becomes asynchronous with ``nowait``, ordered by ``depend`` — including
  the extended ``("interopobj", obj)`` dependence from §3.5.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import LaunchError
from ..gpu.device import Device, Placement, resolve_placement
from ..gpu.dim import DimLike, as_dim3
from ..gpu.launch import LaunchConfig, launch_kernel
from ..openmp.codegen import RegionTraits, lower_region
from ..openmp.target import (
    TargetAccessor, TargetRegionReport, _maybe_defer, _wants_acc, _with_maps,
)
from ..openmp.task import TaskRuntime
from .device import OmpxThread

__all__ = ["bare_kernel", "target_teams_bare", "BareKernel"]


class BareKernel:
    """A function usable as the body of a ``target teams ompx_bare`` region."""

    def __init__(
        self, fn: Callable, *, sync_free: bool = False, vectorize: bool = False
    ) -> None:
        functools.update_wrapper(self, fn)
        self.fn = fn
        self.language = "ompx"
        self.sync_free = sync_free
        self.vectorize = vectorize

        def with_body(body: Callable) -> Callable:
            def entry(ctx, *args):
                facade = OmpxThread(ctx)
                # Bind the C free-function API (repro.ompx.capi) to this
                # thread for the duration of the body.
                from .capi import bound

                with bound(facade):
                    return body(facade, *args)

            return entry

        adapter = with_body(fn)
        adapter.sync_free = sync_free
        adapter.vectorize = vectorize
        adapter.fn = fn  # what engine selection / compile analysis reads
        # The lowering pass (repro.compiler.lower) builds its lane-batched
        # entry from these: the same façade around a generated body.
        adapter.facade = OmpxThread
        adapter.with_body = with_body
        self._adapter = adapter

    @property
    def entry(self) -> Callable:
        return self._adapter

    def __call__(self, x, *args):
        return self.fn(x, *args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ompx bare kernel {self.fn.__name__}>"


def bare_kernel(
    fn: Optional[Callable] = None,
    *,
    sync_free: bool = False,
    vectorize: bool = False,
):
    """Decorator marking an ompx bare-region body (``x`` façade first arg).

    ``vectorize`` mirrors ``@cuda.kernel``: ``True`` runs a hand-batched
    body on the lane-batched WaveVectorEngine as written; the default,
    ``False``, runs per-thread source as :mod:`repro.compiler.lower`
    lowers it, else on a scalar engine.
    """
    if fn is None:
        return lambda f: BareKernel(f, sync_free=sync_free, vectorize=vectorize)
    return BareKernel(fn, sync_free=sync_free, vectorize=vectorize)


def target_teams_bare(
    device: Placement,
    num_teams: DimLike,
    thread_limit: DimLike,
    region: Callable,
    args: Sequence = (),
    *,
    shared_bytes: int = 0,
    engine: Optional[str] = None,
    maps: Sequence[Tuple[np.ndarray, str]] = (),
    nowait: bool = False,
    depend: Sequence[Tuple[str, object]] = (),
    task_runtime: Optional[TaskRuntime] = None,
):
    """Launch a bare-metal target region (paper Figure 4 / Figure 5).

    ``region`` may be a :class:`BareKernel` or a plain callable taking an
    :class:`OmpxThread` first.  Returns a :class:`TargetRegionReport`
    (synchronous) or the deferred :class:`~repro.openmp.task.Task`
    (``nowait=True``).
    """
    device = resolve_placement(device)
    if isinstance(region, BareKernel):
        fn, entry = region.fn, region.entry
        name = fn.__name__
    elif callable(region):
        fn, entry = region, BareKernel(region).entry
        name = getattr(region, "__name__", "bare_region")
    else:
        raise LaunchError(f"region must be callable, got {region!r}")

    # §3.2: multi-dimensional num_teams/thread_limit, with out-of-capability
    # dimensions disregarded rather than rejected.
    grid = device.spec.clamp_dims(as_dim3(num_teams), kind="grid")
    block = device.spec.clamp_dims(as_dim3(thread_limit), kind="block")
    # Per-axis excess is clamped (disregarded) above; an over-volume block
    # is *invalid* and is rejected by DeviceSpec.validate_launch inside
    # launch_kernel, with the same structured LaunchError every front end
    # reports.

    traits = RegionTraits(style="bare", requested_thread_limit=block.volume)
    codegen = lower_region(traits)

    def run():
        def body_fn(acc: TargetAccessor) -> TargetRegionReport:
            config = LaunchConfig.create(grid, block, shared_bytes, engine=engine)
            call_args = tuple(args) + ((acc,) if _wants_acc(fn, len(args)) else ())
            stats = launch_kernel(config, entry, call_args, device)
            return TargetRegionReport(
                codegen=codegen, grid=grid.volume, block=block.volume, stats=stats
            )

        return _with_maps(device, maps, body_fn)

    return _maybe_defer(nowait, depend, task_runtime, run, name)
