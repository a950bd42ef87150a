"""Classic OpenMP target offloading (the paper's ``omp`` baseline).

Two region shapes cover how HeCBench's OpenMP versions are written:

* :func:`target_teams_distribute_parallel_for` — the directive-based
  worksharing style of Figure 2: the runtime distributes a canonical loop
  over teams and threads.
* :func:`target_teams_parallel` — the SIMT style of Figure 3: an explicit
  ``parallel`` region in which every thread computes its own indices and
  may hit barriers; a :class:`~repro.gpu.kernel.Kernel` over the
  :class:`~repro.openmp.runtime.OmpThread` façade, selected and lowered
  like the other front ends' kernels.

Every execution is lowered through :func:`repro.openmp.codegen.lower_region`
first, and the resulting :class:`CodegenInfo` is returned in the
:class:`TargetRegionReport` — the performance model prices the region from
it, and tests assert on it (e.g. that the ``omp`` Stencil keeps its state
machine while ``ompx_bare`` has none).

``nowait=True`` defers the region as an OpenMP task through
:mod:`repro.openmp.task`; ``depend=...`` takes ``(type, item)`` pairs.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import OpenMPError
from ..gpu.device import Device, Placement, resolve_placement
from ..gpu.dim import DimLike, as_dim3
from ..gpu.engine import KernelStats
from ..gpu.kernel import Kernel, kernel_name
from ..gpu.launch import LaunchConfig, launch_kernel
from ..trace import get_tracer
from .codegen import CodegenInfo, RegionTraits, lower_region
from .data import DeviceDataEnvironment, data_environment
from .runtime import OmpThread
from .task import Task, TaskRuntime, default_task_runtime

__all__ = [
    "TargetAccessor",
    "TargetRegionReport",
    "target",
    "target_teams_distribute_parallel_for",
    "target_teams_distribute_parallel_for_collapse",
    "target_teams_parallel",
]


class TargetAccessor:
    """How a classic target-region body touches its mapped variables.

    ``acc.mapped(host_array)`` returns a NumPy view of the *device copy*
    of a mapped array — reads and writes go to device memory, and only a
    ``map(from:)``/``target update`` moves them back, so stale-host bugs
    reproduce faithfully.
    """

    def __init__(self, env: DeviceDataEnvironment) -> None:
        self._env = env

    def mapped(self, host_array: np.ndarray) -> np.ndarray:
        """NumPy view of the device copy of a mapped host array."""
        ptr = self._env.lookup(host_array)
        return self._env.device.allocator.view(ptr, host_array.shape, host_array.dtype)

    def device_ptr(self, host_array: np.ndarray):
        """Device pointer of a mapped host array."""
        return self._env.lookup(host_array)


@dataclass
class TargetRegionReport:
    """What one target-region execution did and how it was lowered."""

    codegen: CodegenInfo
    grid: int
    block: int
    stats: Optional[KernelStats] = None


def _with_maps(device: Device, maps, run: Callable[[TargetAccessor], TargetRegionReport]):
    # Every target construct (worksharing, SIMT, bare) funnels through
    # here, so this is where a poisoned device context refuses new work.
    device.check_poison()
    env = data_environment(device)
    maps = list(maps)
    env.begin(maps)
    try:
        return run(TargetAccessor(env))
    finally:
        env.end(maps)


def _maybe_defer(nowait: bool, depend, runtime: Optional[TaskRuntime], run: Callable[[], object], name: str):
    if not nowait:
        if depend:
            # A synchronous construct with depend still orders against tasks.
            (runtime or default_task_runtime()).taskwait(depend)
        return run()
    rt = runtime or default_task_runtime()
    return rt.submit(lambda: run(), depends=tuple(depend or ()), name=name)


def _launch_region(device: Device, kernel: Kernel, config: LaunchConfig, args,
                   codegen: CodegenInfo, maps, nowait, depend, task_runtime):
    """Map, launch and report: the body the SIMT and bare constructs
    share once each has settled its geometry in ``config``."""
    def run():
        def body_fn(acc: TargetAccessor) -> TargetRegionReport:
            call_args = (*args, acc) if _wants_acc(kernel.fn, len(args)) else tuple(args)
            stats = launch_kernel(config, kernel, call_args, device)
            return TargetRegionReport(codegen=codegen, grid=config.grid.volume,
                                      block=config.block.volume, stats=stats)

        return _with_maps(device, maps, body_fn)

    return _maybe_defer(nowait, depend, task_runtime, run, kernel_name(kernel))


def target(
    device: Placement,
    region: Callable[[TargetAccessor], None],
    *,
    maps: Sequence[Tuple[np.ndarray, str]] = (),
    nowait: bool = False,
    depend: Sequence[Tuple[str, object]] = (),
    task_runtime: Optional[TaskRuntime] = None,
):
    """``#pragma omp target map(...)`` — a serial region on the device.

    ``device`` takes an ``int`` ordinal (the spec's ``device(n)`` clause
    form), a :class:`Device`, or ``None`` for the current default.
    """
    device = resolve_placement(device)
    traits = RegionTraits(style="worksharing", spmd_amenable=False,
                          state_machine_rewritable=True, requested_thread_limit=1)
    codegen = lower_region(traits)

    def run():
        def body(acc: TargetAccessor) -> TargetRegionReport:
            region(acc)
            return TargetRegionReport(codegen=codegen, grid=1, block=1)

        return _with_maps(device, maps, body)

    return _maybe_defer(nowait, depend, task_runtime, run, region.__name__)


def target_teams_distribute_parallel_for(
    device: Placement,
    trip_count: int,
    body: Optional[Callable] = None,
    *,
    vector_body: Optional[Callable] = None,
    num_teams: Optional[int] = None,
    thread_limit: Optional[int] = None,
    maps: Sequence[Tuple[np.ndarray, str]] = (),
    traits: Optional[RegionTraits] = None,
    nowait: bool = False,
    depend: Sequence[Tuple[str, object]] = (),
    task_runtime: Optional[TaskRuntime] = None,
):
    """``#pragma omp target teams distribute parallel for``.

    Functional semantics: every iteration in ``[0, trip_count)`` executes
    exactly once.  ``body(i, acc)`` is the per-iteration form;
    ``vector_body(indices, acc)`` receives each team's iteration chunk as
    an index array (the idiomatic NumPy fast path — identical semantics,
    far faster in a Python simulator).

    The team/thread geometry is taken from the clauses when present,
    otherwise from the runtime defaults, after codegen lowering has had
    its say (the Adam bug can shrink ``thread_limit`` to one warp).
    """
    if (body is None) == (vector_body is None):
        raise OpenMPError("provide exactly one of body= or vector_body=")
    if trip_count < 0:
        raise OpenMPError(f"negative trip count {trip_count}")
    device = resolve_placement(device)

    traits = traits or RegionTraits(
        style="worksharing", requested_thread_limit=thread_limit
    )
    codegen = lower_region(traits)
    block = codegen.effective_thread_limit or thread_limit or 256
    if num_teams is not None:
        teams = num_teams
    else:
        teams = max(1, (trip_count + block - 1) // block)
    # The worksharing path executes as a host-side loop rather than going
    # through launch_kernel, but its geometry obeys the same device limits
    # (and reports the same structured LaunchError) as every other front
    # end.
    device.spec.validate_launch(as_dim3(teams), as_dim3(block))

    def run():
        def body_fn(acc: TargetAccessor) -> TargetRegionReport:
            def execute() -> None:
                if not trip_count:
                    return
                # Block-cyclic distribution over teams, like LLVM's
                # distribute schedule; functionally a permutation of the
                # iteration space, executed team by team.
                per_team = (trip_count + teams - 1) // teams
                for team in range(teams):
                    lb = team * per_team
                    ub = min(lb + per_team, trip_count)
                    if lb >= ub:
                        break
                    if vector_body is not None:
                        vector_body(np.arange(lb, ub), acc)
                    else:
                        for i in range(lb, ub):
                            body(i, acc)

            tracer = get_tracer()
            if tracer is None:
                execute()
            else:
                with tracer.span("region:target_teams_loop", cat="region",
                                 teams=teams, block=block,
                                 trip_count=trip_count):
                    execute()
            return TargetRegionReport(codegen=codegen, grid=teams, block=block)

        return _with_maps(device, maps, body_fn)

    return _maybe_defer(nowait, depend, task_runtime, run, "target_teams_loop")


def target_teams_distribute_parallel_for_collapse(
    device: Device,
    extents: Sequence[int],
    body: Optional[Callable] = None,
    *,
    vector_body: Optional[Callable] = None,
    num_teams: Optional[int] = None,
    thread_limit: Optional[int] = None,
    maps: Sequence[Tuple[np.ndarray, str]] = (),
    traits: Optional[RegionTraits] = None,
    nowait: bool = False,
    depend: Sequence[Tuple[str, object]] = (),
    task_runtime: Optional[TaskRuntime] = None,
):
    """``target teams distribute parallel for collapse(n)``.

    The ``collapse`` clause fuses a perfect loop nest of the given
    ``extents`` into one iteration space before distribution — the OpenMP
    answer to CUDA's multi-dimensional grids for *loops* (as opposed to
    §3.2's multi-dimensional *launches*).  ``body(i0, i1, ..., acc)``
    receives one multi-index per iteration; ``vector_body(idx0, idx1,
    ..., acc)`` receives the chunk's unraveled index arrays.
    """
    extents = tuple(int(e) for e in extents)
    if not extents or any(e < 0 for e in extents):
        raise OpenMPError(f"collapse extents must be non-negative, got {extents!r}")
    if (body is None) == (vector_body is None):
        raise OpenMPError("provide exactly one of body= or vector_body=")
    total = 1
    for extent in extents:
        total *= extent

    if body is not None:
        def flat_body(flat_index, acc):
            multi = np.unravel_index(flat_index, extents)
            body(*(int(m) for m in multi), acc)

        return target_teams_distribute_parallel_for(
            device, total, flat_body,
            num_teams=num_teams, thread_limit=thread_limit, maps=maps,
            traits=traits, nowait=nowait, depend=depend, task_runtime=task_runtime,
        )

    def flat_vector_body(flat_indices, acc):
        multi = np.unravel_index(flat_indices, extents)
        vector_body(*multi, acc)

    return target_teams_distribute_parallel_for(
        device, total, vector_body=flat_vector_body,
        num_teams=num_teams, thread_limit=thread_limit, maps=maps,
        traits=traits, nowait=nowait, depend=depend, task_runtime=task_runtime,
    )


def target_teams_parallel(
    device: Device,
    num_teams: DimLike,
    thread_limit: DimLike,
    region: Callable,
    args: Sequence = (),
    *,
    maps: Sequence[Tuple[np.ndarray, str]] = (),
    traits: Optional[RegionTraits] = None,
    shared_bytes: int = 0,
    nowait: bool = False,
    depend: Sequence[Tuple[str, object]] = (),
    task_runtime: Optional[TaskRuntime] = None,
):
    """SIMT-style ``target teams`` + ``parallel`` (the paper's Figure 3).

    ``region(t, *args)`` runs once per device thread with ``t`` an
    :class:`OmpThread`.  Classic OpenMP rules apply: grid/block must be
    one-dimensional (multi-dimensional launches are the §3.2 *extension*,
    available only through :mod:`repro.ompx`), and the region is lowered
    with the full runtime (never bare).

    The region launches as one :class:`~repro.gpu.kernel.Kernel` per
    region function, so it is selected and lowered like an ompx kernel:
    with barriers and ``groupprivate`` arrays it runs on ``wave`` when
    :mod:`repro.compiler.lower` lowers it.
    """
    grid = as_dim3(num_teams)
    block = as_dim3(thread_limit)
    if grid.ndim != 1 or block.ndim != 1:
        raise OpenMPError(
            "classic OpenMP supports only one-dimensional num_teams/"
            "thread_limit (see paper §2.3); multi-dimensional launches need "
            "the ompx extension (repro.ompx.target_teams_bare)"
        )
    traits = traits or RegionTraits(
        style="simt", spmd_amenable=True, requested_thread_limit=block.x
    )
    if traits.style == "bare":
        raise OpenMPError("bare regions are an ompx extension; use repro.ompx")
    codegen = lower_region(traits)
    if codegen.effective_thread_limit is not None:
        block = as_dim3(min(block.x, codegen.effective_thread_limit))
    config = LaunchConfig.create(grid, block, shared_bytes)
    return _launch_region(device, _simt_kernel(region), config, args, codegen,
                          maps, nowait, depend, task_runtime)


@functools.lru_cache(maxsize=256)
def _simt_kernel(region: Callable) -> Kernel:
    # One kernel per region function, so the lowering memo keeps it.
    return Kernel(region, OmpThread, language="omp")


@functools.lru_cache(maxsize=256)
def _wants_acc(region: Callable, nargs: int) -> bool:
    """Pass the accessor as a trailing arg iff the region asks for one.

    Regions that only use explicit device pointers (API-style data
    management) don't need it; regions using map clauses take a final
    ``acc`` parameter after the thread handle and their ``nargs``
    arguments.  The signature is read once per region function and
    argument count (``target_teams_bare`` asks the same question).
    """
    try:
        params = list(inspect.signature(region).parameters)
    except (TypeError, ValueError):
        return False
    return bool(params) and params[-1] == "acc" and len(params) == nargs + 2
