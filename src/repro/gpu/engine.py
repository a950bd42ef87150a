"""Kernel execution engines.

Three functional engines execute kernels on the virtual GPU:

* :class:`BlockThreadEngine` — one cooperative OS thread per GPU thread of
  a block, blocks run one after another.  Honours barriers, warp
  collectives, shared memory.  This is the full-SIMT reference engine.
* :class:`MapEngine` — for kernels declared ``sync_free``: threads are
  independent, so they run as a plain sequential loop with no OS-thread
  overhead.  Calling any sync primitive under this engine raises
  :class:`~repro.errors.SyncError`.
* :class:`WaveVectorEngine` — lane-batched execution: sync-free kernels
  run as fused NumPy index vectors spanning many blocks (``"vector"``
  mode); barrier or shared-memory kernels run many whole blocks per batch
  in lockstep, each block with its own shared memory (``"wave"`` mode).
  It runs a hand-batched body
  (``vectorize=True``) as written, and per-thread source as the
  lane-batched body the lowering pass (:mod:`repro.compiler.lower`)
  derives from it.  This is what makes paper-scale problem sizes (§4's
  134M-element stencil) tractable on the simulated substrate.

:func:`select_engine` picks an engine from the kernel's declared flags
(``sync_free``/``vectorize``) and the lowering pass's verdict;
:func:`lane_entry` names the body a lane-batched engine runs.

Engines are deliberately *functional only*.  Timing comes from
:mod:`repro.perf`, which consumes the launch geometry and the compiled
kernel's resource usage instead of wall-clock measurements of the
interpreter (the interpreter's speed says nothing about a GPU).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import LaunchError
from .atomics import AtomicDomain
from .context import BlockState, ThreadCtx
from .dim import Dim3, delinearize
from .vector import VectorThreadCtx

__all__ = [
    "KernelStats",
    "Engine",
    "BlockThreadEngine",
    "MapEngine",
    "WaveVectorEngine",
    "select_engine",
    "lane_entry",
    "describe_plan_key",
]

# Guard rail: a full-SIMT simulation of a paper-scale launch (e.g. the
# 134M-element stencil) is not meaningful to attempt thread-by-thread.
_MAX_COOPERATIVE_THREADS = 2_000_000
#: The sequential map engine absorbs more threads, but still refuses a
#: paper-scale launch clearly instead of hanging for hours.
_MAX_MAP_THREADS = 20_000_000
#: Lane-batched execution is array-at-a-time, so it can absorb paper-scale
#: grids outright; the rail only catches pathological requests.
_MAX_VECTOR_THREADS = 1 << 28
#: Lane batches of both modes are chunked so gathers with a per-lane
#: inner dimension stay within a bounded memory footprint.
_VECTOR_CHUNK_THREADS = 1 << 16
#: A wave batch stacks one copy of shared memory per block; at the device's
#: per-block limit its blocks may hold at most this many bytes together.
_WAVE_CHUNK_SHARED_BYTES = 1 << 25


@dataclass
class KernelStats:
    """What a launch actually executed — consumed by tests and the perf model.

    The behavioural counters (barriers, warp collectives, global derefs,
    shared declarations) are summed over every thread of the launch; they
    give tests and the perf model an observed-behaviour cross-check
    against the static kernel analysis.
    """

    grid: Dim3 = field(default_factory=Dim3)
    block: Dim3 = field(default_factory=Dim3)
    threads_run: int = 0
    blocks_run: int = 0
    shared_bytes: int = 0
    engine: str = ""
    barriers: int = 0
    warp_collectives: int = 0
    global_derefs: int = 0
    shared_declarations: int = 0

    def absorb(self, ctx) -> None:
        """Accumulate one thread's counters (engines call this)."""
        self.barriers += ctx.n_barriers
        self.warp_collectives += ctx.n_warp_collectives
        self.global_derefs += ctx.n_global_derefs
        self.shared_declarations += ctx.n_shared_decls


class Engine:
    """Interface: run ``kernel(ctx, *args)`` over a grid of blocks."""

    name = "abstract"

    def run(
        self,
        kernel: Callable,
        grid: Dim3,
        block: Dim3,
        args: Sequence,
        device,
        shared_bytes: int = 0,
    ) -> KernelStats:
        """Execute ``kernel`` over the grid; returns the launch's KernelStats."""
        raise NotImplementedError


class BlockThreadEngine(Engine):
    """Full SIMT semantics via one OS thread per GPU thread of a block."""

    name = "block-thread"

    def run(
        self,
        kernel: Callable,
        grid: Dim3,
        block: Dim3,
        args: Sequence,
        device,
        shared_bytes: int = 0,
    ) -> KernelStats:
        """Execute ``kernel`` over the grid; returns the launch's KernelStats."""
        total = grid.volume * block.volume
        if total > _MAX_COOPERATIVE_THREADS:
            raise LaunchError(
                f"cooperative simulation of {total} threads exceeds the "
                f"{_MAX_COOPERATIVE_THREADS}-thread guard rail of the "
                f"'{self.name}' engine; declare the kernel sync_free=True "
                f"(or vectorize=True for a hand-batched body) so a "
                f"lane-batched engine can take it, or use a smaller "
                f"functional problem size",
                engine=self.name,
                cap=_MAX_COOPERATIVE_THREADS,
                requested=total,
                hint="declare sync_free=True (vectorize=True for a hand-batched body)",
            )
        atomics = AtomicDomain()
        stats = KernelStats(grid=grid, block=block, shared_bytes=shared_bytes, engine=self.name)
        for flat_block in range(grid.volume):
            block_idx = delinearize(flat_block, grid)
            self._run_block(
                kernel, block_idx, block, grid, args, device, shared_bytes,
                atomics, stats,
            )
            stats.blocks_run += 1
            stats.threads_run += block.volume
        return stats

    def _run_block(
        self,
        kernel: Callable,
        block_idx: Dim3,
        block_dim: Dim3,
        grid_dim: Dim3,
        args: Sequence,
        device,
        shared_bytes: int,
        atomics: AtomicDomain,
        stats: KernelStats,
    ) -> None:
        state = BlockState(block_idx, block_dim, grid_dim, device, shared_bytes, atomics)
        errors: List[Tuple[int, BaseException]] = []
        errors_lock = threading.Lock()

        def worker(flat_id: int) -> None:
            ctx = ThreadCtx(state, delinearize(flat_id, block_dim))
            try:
                kernel(ctx, *args)
            except BaseException as exc:  # noqa: BLE001 - must propagate to launcher
                with errors_lock:
                    errors.append((flat_id, exc))
            finally:
                state.live.mark_exited(flat_id)
                with errors_lock:
                    stats.absorb(ctx)

        threads = [
            threading.Thread(
                target=worker,
                args=(flat_id,),
                name=f"gpu-b{block_idx}-t{flat_id}",
                daemon=True,
            )
            for flat_id in range(block_dim.volume)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            flat_id, exc = min(errors, key=lambda e: e[0])
            raise LaunchError(
                f"kernel failed in block {block_idx}, thread {flat_id}: {exc!r}",
                engine=self.name,
            ) from exc


class MapEngine(Engine):
    """Fast path for sync-free kernels: a plain sequential thread loop."""

    name = "map"

    def run(
        self,
        kernel: Callable,
        grid: Dim3,
        block: Dim3,
        args: Sequence,
        device,
        shared_bytes: int = 0,
    ) -> KernelStats:
        """Execute ``kernel`` over the grid; returns the launch's KernelStats."""
        total = grid.volume * block.volume
        if total > _MAX_MAP_THREADS:
            raise LaunchError(
                f"sequential simulation of {total} threads exceeds the "
                f"{_MAX_MAP_THREADS}-thread guard rail of the '{self.name}' "
                f"engine; declare the kernel vectorize=True (and write it "
                f"against the select/load/store intrinsics) so the vector "
                f"engine can take it, or use a smaller functional problem size",
                engine=self.name,
                cap=_MAX_MAP_THREADS,
                requested=total,
                hint="declare vectorize=True",
            )
        atomics = AtomicDomain()
        stats = KernelStats(grid=grid, block=block, shared_bytes=shared_bytes, engine=self.name)
        for flat_block in range(grid.volume):
            block_idx = delinearize(flat_block, grid)
            state = BlockState(block_idx, block, grid, device, shared_bytes, atomics)
            for flat_id in range(block.volume):
                ctx = ThreadCtx(state, delinearize(flat_id, block), sync_free=True)
                try:
                    kernel(ctx, *args)
                except BaseException as exc:  # noqa: BLE001 - same surface as cooperative engine
                    raise LaunchError(
                        f"kernel failed in block {block_idx}, thread {flat_id}: {exc!r}",
                        engine=self.name,
                    ) from exc
                finally:
                    state.live.mark_exited(flat_id)
                    stats.absorb(ctx)
            stats.blocks_run += 1
            stats.threads_run += block.volume
        return stats


class WaveVectorEngine(Engine):
    """Lane-batched execution: whole blocks (or block ranges) per kernel call.

    One class, two modes (see :mod:`repro.gpu.vector`):

    * ``"vector"`` — sync-free kernels; lanes are fused across blocks into
      contiguous chunks of global flat thread ids.
    * ``"wave"`` — barrier-only cooperative kernels; each batch is a range
      of whole blocks with block-stacked shared memory and a lockstep
      (counting no-op) barrier.
    """

    def __init__(self, mode: str) -> None:
        if mode not in ("vector", "wave"):
            raise ValueError(f"unknown WaveVectorEngine mode {mode!r}")
        self._mode = mode
        self.name = mode

    def run(
        self,
        kernel: Callable,
        grid: Dim3,
        block: Dim3,
        args: Sequence,
        device,
        shared_bytes: int = 0,
    ) -> KernelStats:
        """Execute ``kernel`` over the grid; returns the launch's KernelStats."""
        total = grid.volume * block.volume
        if total > _MAX_VECTOR_THREADS:
            raise LaunchError(
                f"lane-batched simulation of {total} threads exceeds the "
                f"{_MAX_VECTOR_THREADS}-thread guard rail of the "
                f"'{self.name}' engine; shard the launch or use a smaller "
                f"problem size",
                engine=self.name,
                cap=_MAX_VECTOR_THREADS,
                requested=total,
                hint="shard the launch across multiple kernel invocations",
            )
        stats = KernelStats(grid=grid, block=block, shared_bytes=shared_bytes, engine=self.name)
        if self._mode == "wave":
            self._run_wave(kernel, grid, block, args, device, shared_bytes, stats)
        else:
            self._run_vector(kernel, grid, block, args, device, stats)
        return stats

    def _run_wave(
        self,
        kernel: Callable,
        grid: Dim3,
        block: Dim3,
        args: Sequence,
        device,
        shared_bytes: int,
        stats: KernelStats,
    ) -> None:
        per_batch = max(1, min(
            _VECTOR_CHUNK_THREADS // block.volume,
            _WAVE_CHUNK_SHARED_BYTES // device.spec.shared_mem_per_block,
        ))
        for start in range(0, grid.volume, per_batch):
            blocks = range(start, min(start + per_batch, grid.volume))
            ctx = VectorThreadCtx(
                device, grid, block, mode="wave",
                lanes=range(blocks.start * block.volume, blocks.stop * block.volume),
                shared_bytes=shared_bytes,
            )
            try:
                kernel(ctx, *args)
            except BaseException as exc:  # noqa: BLE001 - same surface as scalar engines
                raise LaunchError(
                    f"kernel failed in blocks [{blocks.start}, {blocks.stop}) "
                    f"(wave batch of {ctx.lanes} lanes): {exc!r}",
                    engine=self.name,
                ) from exc
            finally:
                stats.absorb(ctx)
            stats.blocks_run += len(blocks)
            stats.threads_run += ctx.lanes

    def _run_vector(
        self,
        kernel: Callable,
        grid: Dim3,
        block: Dim3,
        args: Sequence,
        device,
        stats: KernelStats,
    ) -> None:
        total = grid.volume * block.volume
        for start in range(0, total, _VECTOR_CHUNK_THREADS):
            stop = min(start + _VECTOR_CHUNK_THREADS, total)
            ctx = VectorThreadCtx(
                device, grid, block, mode="vector", lanes=range(start, stop),
            )
            try:
                kernel(ctx, *args)
            except BaseException as exc:  # noqa: BLE001 - same surface as scalar engines
                raise LaunchError(
                    f"kernel failed in vector lanes [{start}, {stop}): {exc!r}",
                    engine=self.name,
                ) from exc
            finally:
                stats.absorb(ctx)
            stats.threads_run += stop - start
        stats.blocks_run = grid.volume


_BLOCK_THREAD = BlockThreadEngine()
_MAP = MapEngine()
_VECTOR = WaveVectorEngine("vector")
_WAVE = WaveVectorEngine("wave")

_ENGINES_BY_NAME: Dict[str, Engine] = {
    "block-thread": _BLOCK_THREAD,
    "map": _MAP,
    "vector": _VECTOR,
    "wave": _WAVE,
}


def describe_plan_key(
    kernel: Callable,
    device=None,
    block: Optional[Dim3] = None,
    hint: Optional[str] = None,
) -> Tuple:
    """The ``(kernel name, device preset, block shape, hint)`` a failed
    launch's :class:`LaunchError` names as its ``key``.

    The kernel's ``__name__`` falls back through the wrapped ``fn`` the
    front-end adapters attach.
    """
    fn = getattr(kernel, "fn", None) or kernel
    name = getattr(fn, "__name__", None) or repr(kernel)
    device_name = getattr(getattr(device, "spec", None), "name", None)
    block_shape = block.as_tuple() if isinstance(block, Dim3) else block
    return (name, device_name, block_shape, hint)


def _legacy_engine(kernel: Callable) -> Engine:
    """The pre-vectorization rule: sync-free -> map, else full SIMT."""
    if getattr(kernel, "sync_free", False):
        return _MAP
    return _BLOCK_THREAD


def _analyze_or_none(kernel: Callable):
    """Static traits of ``kernel``, or ``None`` when analysis is impossible.

    Lambdas and exotic callables defeat source retrieval; selection then
    falls back to the declared-flags rule rather than failing the launch.
    """
    from ..compiler.analysis import analyze_kernel

    try:
        return analyze_kernel(kernel)
    except Exception:
        return None


def _lowering(kernel: Callable):
    from ..compiler.lower import lower_kernel

    return lower_kernel(kernel)


def lane_entry(kernel: Callable, engine) -> Optional[Callable]:
    """The lowered body a lane-batched ``engine`` runs instead of ``kernel``.

    ``None`` means run ``kernel`` itself: the engine is scalar, the body is
    hand-batched (``vectorize=True``), or the lowering pass declined it.
    """
    if engine.name not in ("vector", "wave") or getattr(kernel, "vectorize", False):
        return None
    return _lowering(kernel).entry


def _plan(kernel: Callable) -> Engine:
    """Decide the engine for one kernel from its flags and its lowering."""
    sync_free = bool(getattr(kernel, "sync_free", False))
    if getattr(kernel, "vectorize", False):
        # The author vouches the body batches as written; only pick the mode.
        traits = _analyze_or_none(kernel)
        cooperative = traits is not None and (traits.uses_barrier or traits.uses_shared)
        return _VECTOR if sync_free and not cooperative else _WAVE
    # Per-thread source: run the lowered body where the pass produced one.
    # A sync-free kernel that touches barriers or shared memory is
    # misdeclared; the map engine reports that, so it keeps it.
    lowering = _lowering(kernel)
    if lowering.entry is not None:
        if sync_free and not lowering.cooperative:
            return _VECTOR
        if not sync_free and lowering.cooperative:
            return _WAVE
    return _legacy_engine(kernel)


def select_engine(kernel: Callable, *, hint: Optional[str] = None) -> Engine:
    """Pick the engine for a kernel launch.

    An explicit ``hint`` (the :class:`LaunchConfig` engine field) wins.  A
    hand-batched body (``vectorize=True``) runs as written on the
    :class:`WaveVectorEngine`: ``vector`` when sync-free and free of
    barriers and shared memory, else ``wave``.  Per-thread source (the
    default, ``vectorize=False``) runs as the lowering pass
    (:mod:`repro.compiler.lower`) lowers it: on ``vector`` when sync-free
    and on ``wave`` when it uses barriers or shared memory.  Everything
    else keeps the legacy split: sync-free kernels on ``map``, the rest on
    ``block-thread``; ``lower_kernel(kernel).reason`` says why a kernel
    stayed there.  The launch runs on the engine chosen here and nowhere
    else: a kernel that raises on it fails with that engine's
    :class:`~repro.errors.LaunchError`.
    """
    if hint is None:
        return _plan(kernel)
    try:
        return _ENGINES_BY_NAME[hint]
    except KeyError:
        raise LaunchError(
            f"unknown engine hint {hint!r}; choose one of "
            f"{sorted(_ENGINES_BY_NAME)}",
            hint=hint,
        ) from None
