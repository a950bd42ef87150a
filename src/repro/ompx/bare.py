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
from ..gpu.device import Placement, resolve_placement
from ..gpu.dim import DimLike, as_dim3
from ..gpu.kernel import Kernel
from ..gpu.launch import LaunchConfig
from ..openmp.codegen import RegionTraits, lower_region
from ..openmp.target import _launch_region
from ..openmp.task import TaskRuntime
from .capi import bound
from .device import OmpxThread

__all__ = ["bare_kernel", "target_teams_bare", "BareKernel"]


class BareKernel(Kernel):
    """A ``target teams ompx_bare`` region body: the
    :class:`~repro.gpu.kernel.Kernel` over the :class:`OmpxThread` façade,
    run with the C API (:mod:`repro.ompx.capi`) bound to its thread."""

    def __init__(
        self, fn: Callable, *, sync_free: bool = False, vectorize: bool = False
    ) -> None:
        super().__init__(fn, OmpxThread, language="ompx",
                         sync_free=sync_free, vectorize=vectorize)

    def with_body(self, body: Callable) -> Callable:
        """Like :meth:`Kernel.with_body`, with the C API bound to the
        body's façade for the duration of the call."""
        def entry(ctx, *args):
            x = OmpxThread(ctx)
            with bound(x):
                return body(x, *args)

        return entry


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

    ``region`` is a :class:`BareKernel` (any
    :class:`~repro.gpu.kernel.Kernel` launches as is) or a plain callable
    taking an :class:`OmpxThread` first, which becomes one
    :class:`BareKernel` per function.  Returns a
    :class:`~repro.openmp.target.TargetRegionReport` (synchronous) or the
    deferred :class:`~repro.openmp.task.Task` (``nowait=True``).
    """
    device = resolve_placement(device)
    if not isinstance(region, Kernel):
        if not callable(region):
            raise LaunchError(f"region must be callable, got {region!r}")
        region = _undecorated(region)

    # §3.2: multi-dimensional num_teams/thread_limit, with out-of-capability
    # dimensions disregarded rather than rejected.
    grid = device.spec.clamp_dims(as_dim3(num_teams), kind="grid")
    block = device.spec.clamp_dims(as_dim3(thread_limit), kind="block")
    # Per-axis excess is clamped (disregarded) above; an over-volume block
    # is *invalid* and is rejected by DeviceSpec.validate_launch inside
    # launch_kernel, with the same structured LaunchError every front end
    # reports.

    traits = RegionTraits(style="bare", requested_thread_limit=block.volume)
    config = LaunchConfig.create(grid, block, shared_bytes, engine=engine)
    return _launch_region(device, region, config, args, lower_region(traits),
                          maps, nowait, depend, task_runtime)


# One BareKernel per undecorated region function, so the lowering memo keeps it.
_undecorated = functools.lru_cache(maxsize=256)(BareKernel)
