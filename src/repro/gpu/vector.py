"""Vectorized (lane-batched) kernel execution contexts.

The :class:`~repro.gpu.engine.WaveVectorEngine` evaluates many simulated
GPU threads at once: instead of one Python call per thread, a kernel is
called once per *lane batch* with a :class:`VectorThreadCtx` whose index
properties are NumPy arrays (one entry per lane).  Straight-line kernels
written against the portable intrinsics (``select``/``load``/``store``/
``loop_max``) then execute as whole-array operations, which is what makes
paper-scale problem sizes tractable on the simulated substrate.

Two lane-batching modes exist:

* ``"vector"`` — for ``sync_free`` kernels: lanes may span many blocks
  (the batch is a contiguous range of global flat thread ids).  Shared
  memory and barriers are unavailable, exactly like the MapEngine.
* ``"wave"`` — for barrier-only cooperative kernels: one batch is a range
  of whole blocks, executed in lockstep.  Because every NumPy statement
  completes for all lanes before the next begins, ``sync_threads`` is
  already satisfied structurally and only needs to count.  Each block
  keeps its own shared memory: a shared array is block-stacked storage
  (:class:`~repro.gpu.shared.BlockShared`) that every lane indexes in its
  own block's copy, so a hand-batched body indexes it per lane
  (``tile[i]``, ``load``/``store``) and never uses it as a whole array.

Both modes run a batch as one contiguous range of global flat ids, so its
index arrays need no per-lane division: the batch's few block ids and one
block's thread ids are decomposed once and laid out to lanes.  The arrays
are read-only, because equal indices share one array.  ``load``/``store``
check an index vector once (integer dtype, every lane in range, every
lane masked in) and then gather or scatter directly; any other index
takes the masked path that merges ``fill`` or drops lanes.

Behavioural counters are kept *exact*: every counted operation increments
its counter by the number of live lanes, so a launch reports the same
``barriers``/``global_derefs``/``shared_declarations`` totals the scalar
engines would.  All lanes are live unless a lowered body
(:mod:`repro.compiler.lower`) narrows them with :meth:`set_live`.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from ..errors import SyncError
from ..faults.memcheck import get_memcheck as _get_memcheck
from .dim import Dim3
from .memory import DevicePointer
from .shared import BlockShared, SharedMemory

__all__ = ["VecDim3", "VectorThreadCtx"]


class VecDim3:
    """An ``(x, y, z)`` index triple whose components are per-lane arrays.

    Drop-in stand-in for :class:`~repro.gpu.dim.Dim3` wherever kernels read
    ``.x``/``.y``/``.z`` or index with ``[0..2]`` — but each component is a
    NumPy array with one entry per active lane.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> None:
        self.x = x
        self.y = y
        self.z = z

    def as_tuple(self):
        """The ``(x, y, z)`` component arrays as a plain tuple."""
        return (self.x, self.y, self.z)

    def __getitem__(self, axis: int) -> np.ndarray:
        return self.as_tuple()[axis]

    def __iter__(self):
        return iter(self.as_tuple())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VecDim3(lanes={self.x.shape[0]})"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


#: Read-only zeros that the lane array of an extent-1 axis slices (the
#: engines' batches hold at most 65,536 lanes).
_ZEROS = _read_only(np.zeros(1 << 16, dtype=np.int64))


def _zeros(lanes: int) -> np.ndarray:
    if lanes <= _ZEROS.shape[0]:
        return _ZEROS[:lanes]
    return _read_only(np.zeros(lanes, dtype=np.int64))


@functools.lru_cache(maxsize=64)
def _thread_axes(bx: int, by: int, bz: int) -> tuple:
    """Flat, x, y and z thread ids of one block, in flat-id order (read-only)."""
    flat = np.arange(bx * by * bz, dtype=np.int64)
    rest = flat // bx
    return tuple(_read_only(a) for a in (flat, flat % bx, rest % by, rest // by))


@functools.lru_cache(maxsize=16)
def _warp_axes(volume: int, warp_size: int) -> tuple:
    """Lane-in-warp and warp ids of one block's threads (read-only)."""
    flat = np.arange(volume, dtype=np.int64)
    return _read_only(flat % warp_size), _read_only(flat // warp_size)


def _in_range(idx: np.ndarray, n: int):
    """Per-lane ``0 <= idx < n``: one unsigned compare for an integer index."""
    kind = idx.dtype.kind
    if kind == "i":
        return idx.view(idx.dtype.str.replace("i", "u")) < n
    if kind == "u":
        return idx < n
    return (idx >= 0) & (idx < n)


def _all(flags: np.ndarray) -> bool:
    # count_nonzero skips the ufunc-reduction set-up that all() pays per call.
    return np.count_nonzero(flags) == flags.size


def _all_lanes(mask, shape) -> bool:
    """Whether a store mask selects every lane of an index of ``shape``."""
    if mask is True:
        return True
    mask = np.asarray(mask, dtype=bool)
    return (mask.ndim == 0 or mask.shape == shape) and _all(mask)


class VectorThreadCtx:
    """A ThreadCtx-compatible context that stands for a whole batch of lanes.

    Index properties return read-only arrays; memory and counter semantics
    follow :class:`~repro.gpu.context.ThreadCtx` exactly, scaled by lane
    count.

    ``lanes`` is the batch's contiguous range of global flat thread ids; a
    ``wave`` batch covers whole blocks.  No index is divided per lane: the
    batch's few block ids and one block's thread ids are decomposed once,
    and every index array is their sum laid out as a ``(blocks, threads)``
    table, of which the batch is one contiguous slice.  Arrays are built
    on first use; an axis of extent 1 reads a shared zero array, and equal
    indices share one array (``thread_idx.x`` is ``flat_thread_id`` in a
    1-D block), which is why none of them is writable.
    """

    __slots__ = (
        "_device", "_mode", "_grid", "_bdim", "_start", "_lanes", "_live",
        "_b0", "_t0", "_nblocks", "_gflat", "_flat", "_bflat", "_block_axes",
        "_block_idx", "_thread_idx", "_shared",
        "n_barriers", "n_warp_collectives", "n_global_derefs", "n_shared_decls",
    )

    def __init__(
        self,
        device,
        grid_dim: Dim3,
        block_dim: Dim3,
        *,
        mode: str,
        lanes: range,
        shared_bytes: int = 0,
    ) -> None:
        if mode not in ("vector", "wave"):  # pragma: no cover - defensive
            raise ValueError(f"unknown vector mode {mode!r}")
        volume = block_dim.volume
        self._device = device
        self._mode = mode
        self._grid = grid_dim
        self._bdim = block_dim
        self._start = lanes.start
        self._lanes = len(lanes)
        self._live = self._lanes
        self._b0, self._t0 = divmod(lanes.start, volume)
        self._nblocks = (lanes.stop - 1) // volume - self._b0 + 1
        self._gflat = self._flat = self._bflat = self._block_axes = None
        self._block_idx = self._thread_idx = None
        self._shared: Optional[SharedMemory] = None
        if mode == "wave":
            if self._t0 or lanes.stop % volume:
                raise ValueError("a wave batch must cover whole blocks")
            rows = (_zeros(self._lanes) if self._nblocks == 1 else
                    self._expand(np.arange(self._nblocks, dtype=np.int64), None))
            self._shared = SharedMemory(
                device.spec.shared_mem_per_block, shared_bytes, rows=rows,
            )
        # Behavioural counters, harvested into KernelStats by the engines.
        # Each counted call adds one per lane so launch totals match the
        # per-thread sums the scalar engines report.
        self.n_barriers = 0
        self.n_warp_collectives = 0
        self.n_global_derefs = 0
        self.n_shared_decls = 0

    def _expand(self, per_block, per_thread) -> np.ndarray:
        """``per_block[b] + per_thread[t]`` for each lane of block ``b``, thread ``t``.

        Either side may be ``None`` (zero).  The ``(blocks, threads)``
        table is filled in one pass and the batch is its slice starting at
        the first lane's thread; a one-block batch slices ``per_thread``.
        """
        shape = (self._nblocks, self._bdim.volume)
        if per_block is None:
            if self._nblocks == 1:
                return per_thread[self._t0:self._t0 + self._lanes]
            table = np.empty(shape, dtype=np.int64)
            table[...] = per_thread
        elif per_thread is None:
            table = np.empty(shape, dtype=np.int64)
            table[...] = per_block[:, None]
        else:
            table = np.add(per_block[:, None], per_thread)
        return _read_only(table.reshape(-1)[self._t0:self._t0 + self._lanes])

    def _blocks(self) -> tuple:
        """The x, y and z ids of the batch's blocks, one entry per block."""
        if self._block_axes is None:
            grid = self._grid
            ids = np.arange(self._b0, self._b0 + self._nblocks, dtype=np.int64)
            rest = ids // grid.x
            self._block_axes = (ids % grid.x, rest % grid.y, rest // grid.y)
        return self._block_axes

    def _axis(self, axis: int, *, block: bool, thread: bool) -> np.ndarray:
        """Per-lane ``block_idx[axis] * block_dim[axis] + thread_idx[axis]``,
        keeping only the named terms."""
        extent = self._bdim[axis]
        per_block = per_thread = None
        if block and self._grid[axis] > 1:
            per_block = self._blocks()[axis]
            if thread:
                per_block = per_block * extent
        if thread and extent > 1:
            per_thread = _thread_axes(*self._bdim.as_tuple())[axis + 1]
        if per_block is None and per_thread is None:
            return _zeros(self._lanes)
        return self._expand(per_block, per_thread)

    # --- indexing ------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Lane-batching mode: ``"vector"`` (fused blocks) or ``"wave"``."""
        return self._mode

    @property
    def lanes(self) -> int:
        """Number of simulated threads evaluated by this batch."""
        return self._lanes

    def set_live(self, count: Optional[int]) -> None:
        """Count later calls for ``count`` live lanes (``None``: every lane).

        A lowered body calls this whenever its lane mask changes: a thread
        that returned at the guard, or sits out a branch, makes no call.
        """
        self._live = self._lanes if count is None else count

    @property
    def block_dim(self) -> Dim3:
        """Team extent (scalar — identical for every lane)."""
        return self._bdim

    @property
    def grid_dim(self) -> Dim3:
        """Grid extent (scalar — identical for every lane)."""
        return self._grid

    @property
    def block_idx(self) -> VecDim3:
        """Per-lane block index."""
        if self._block_idx is None:
            if self._grid.y == self._grid.z == 1:
                self._block_idx = VecDim3(
                    self.flat_block_id, _zeros(self._lanes), _zeros(self._lanes))
            else:
                self._block_idx = VecDim3(*(
                    self._axis(a, block=True, thread=False) for a in range(3)))
        return self._block_idx

    @property
    def thread_idx(self) -> VecDim3:
        """Per-lane thread index within the block."""
        if self._thread_idx is None:
            if self._bdim.y == self._bdim.z == 1:
                self._thread_idx = VecDim3(
                    self.flat_thread_id, _zeros(self._lanes), _zeros(self._lanes))
            else:
                self._thread_idx = VecDim3(*(
                    self._axis(a, block=False, thread=True) for a in range(3)))
        return self._thread_idx

    @property
    def flat_thread_id(self) -> np.ndarray:
        """Per-lane flat thread id within the block (x fastest)."""
        if self._flat is None:
            volume = self._bdim.volume
            self._flat = (_zeros(self._lanes) if volume == 1 else
                          self._expand(None, _thread_axes(*self._bdim.as_tuple())[0]))
        return self._flat

    @property
    def flat_block_id(self) -> np.ndarray:
        """Per-lane flat block id."""
        if self._bflat is None:
            if self._nblocks == 1 and self._b0 == 0:
                self._bflat = _zeros(self._lanes)
            else:
                ids = np.arange(self._b0, self._b0 + self._nblocks, dtype=np.int64)
                self._bflat = self._expand(ids, None)
        return self._bflat

    @property
    def global_id_x(self) -> np.ndarray:
        """``blockIdx.x * blockDim.x + threadIdx.x`` per lane."""
        if self._grid.y == self._grid.z == self._bdim.y == self._bdim.z == 1:
            return self.global_flat_id
        return self._axis(0, block=True, thread=True)

    @property
    def global_id_y(self) -> np.ndarray:
        """Per-lane global y index."""
        return self._axis(1, block=True, thread=True)

    @property
    def global_id_z(self) -> np.ndarray:
        """Per-lane global z index."""
        return self._axis(2, block=True, thread=True)

    @property
    def global_flat_id(self) -> np.ndarray:
        """Per-lane flat id across the whole launch (block-major, x fastest)."""
        if self._gflat is None:
            self._gflat = _read_only(np.arange(
                self._start, self._start + self._lanes, dtype=np.int64))
        return self._gflat

    @property
    def lane_id(self) -> np.ndarray:
        """Per-lane lane index within its warp."""
        return self._expand(None, _warp_axes(self._bdim.volume, self.warp_size)[0])

    @property
    def warp_id(self) -> np.ndarray:
        """Per-lane warp index within the block."""
        return self._expand(None, _warp_axes(self._bdim.volume, self.warp_size)[1])

    @property
    def warp_size(self) -> int:
        """Lanes per warp/wavefront on this device (32 or 64)."""
        return self._device.spec.warp_size

    @property
    def num_threads(self) -> int:
        """Threads per block (``blockDim`` volume)."""
        return self._bdim.volume

    @property
    def num_blocks(self) -> int:
        """Blocks in the launch (``gridDim`` volume)."""
        return self._grid.volume

    @property
    def device(self):
        """The device this batch executes on."""
        return self._device

    # --- memory ----------------------------------------------------------------
    def deref(self, ptr: DevicePointer, shape, dtype) -> np.ndarray:
        """View global memory at ``ptr`` (counted once per live lane)."""
        self.n_global_derefs += self._live
        return self._device.allocator.view(ptr, shape, dtype)

    def shared_array(self, name: str, shape, dtype) -> BlockShared:
        """Declare/get a ``__shared__`` array, one copy per block (wave mode only)."""
        if self._shared is None:
            raise SyncError(
                "shared memory requested from a kernel launched on the "
                "sync-free vector engine; launch it cooperatively "
                "(sync_free=False) instead"
            )
        self.n_shared_decls += self._live
        return self._shared.array(name, shape, dtype)

    def dynamic_shared(self, dtype) -> BlockShared:
        """The dynamic (``extern __shared__``) region per block (wave mode only)."""
        if self._shared is None:
            raise SyncError(
                "dynamic shared memory requested from a kernel launched on "
                "the sync-free vector engine; launch it cooperatively "
                "(sync_free=False) instead"
            )
        return self._shared.dynamic(dtype)

    def constant(self, name: str) -> np.ndarray:
        """Read a ``__constant__`` symbol (read-only device view)."""
        return self._device.read_constant(name)

    # --- synchronization --------------------------------------------------------
    def sync_threads(self) -> None:
        """Block barrier: a lockstep no-op in wave mode, an error in vector mode.

        Wave batches evaluate each statement for every lane before the next
        statement runs, so the barrier is structurally satisfied; only the
        behavioural counter needs to advance (once per live lane).
        """
        if self._mode != "wave":
            raise SyncError(
                "sync_threads called from a kernel launched on the sync-free "
                "vector engine; launch it cooperatively (sync_free=False) instead"
            )
        self.n_barriers += self._live

    def _no_collectives(self, what: str) -> None:
        raise SyncError(
            f"{what} cannot be vectorized; warp collectives need the "
            f"cooperative BlockThreadEngine (write the kernel as per-thread "
            f"source, without vectorize=True, and pin no lane-batched engine)"
        )

    def sync_warp(self, mask=None) -> None:
        """Warp barrier — not available under lane-batched execution."""
        self._no_collectives("sync_warp")

    def shfl_sync(self, value, src_lane, mask=None):
        """``__shfl_sync`` — not available under lane-batched execution."""
        self._no_collectives("shfl_sync")

    def shfl_up_sync(self, value, delta, mask=None):
        """``__shfl_up_sync`` — not available under lane-batched execution."""
        self._no_collectives("shfl_up_sync")

    def shfl_down_sync(self, value, delta, mask=None):
        """``__shfl_down_sync`` — not available under lane-batched execution."""
        self._no_collectives("shfl_down_sync")

    def shfl_xor_sync(self, value, lane_mask, mask=None):
        """``__shfl_xor_sync`` — not available under lane-batched execution."""
        self._no_collectives("shfl_xor_sync")

    def ballot_sync(self, predicate, mask=None):
        """``__ballot_sync`` — not available under lane-batched execution."""
        self._no_collectives("ballot_sync")

    def any_sync(self, predicate, mask=None):
        """``__any_sync`` — not available under lane-batched execution."""
        self._no_collectives("any_sync")

    def all_sync(self, predicate, mask=None):
        """``__all_sync`` — not available under lane-batched execution."""
        self._no_collectives("all_sync")

    def warp_reduce(self, value, op, mask=None):
        """Warp reduction — not available under lane-batched execution."""
        self._no_collectives("warp_reduce")

    def match_any_sync(self, value, mask=None):
        """``__match_any_sync`` — not available under lane-batched execution."""
        self._no_collectives("match_any_sync")

    def match_all_sync(self, value, mask=None):
        """``__match_all_sync`` — not available under lane-batched execution."""
        self._no_collectives("match_all_sync")

    # --- atomics -------------------------------------------------------------------
    @property
    def atomic(self):
        """Atomics are inherently scalar — refuse under lane batching."""
        raise SyncError(
            "atomic operations cannot be vectorized; they need the "
            "cooperative BlockThreadEngine (write the kernel as per-thread "
            "source, without vectorize=True, and pin no lane-batched engine)"
        )

    # --- portable vector intrinsics ---------------------------------------------
    def select(self, cond, a, b):
        """Branch-free conditional: per-lane ``a if cond else b``."""
        return np.where(cond, a, b)

    def load(self, view, index, fill=0):
        """Bounds-guarded gather: ``view[index]`` where in range, else ``fill``.

        An integer index vector whose every lane is in range gathers
        directly; anything else merges the gather with ``fill`` per lane.
        """
        checker = _get_memcheck()
        if checker is not None:
            checker.check_load(view, index)
        idx = np.asarray(index)
        n = view.shape[0]
        ok = _in_range(idx, n)
        if idx.ndim == 0:
            i = int(idx)
            return view[i] if bool(ok) else view.dtype.type(fill)
        if idx.dtype.kind in "iu" and _all(ok):
            return view[idx]
        if n == 0:
            return np.full(idx.shape + tuple(view.shape[1:]), view.dtype.type(fill),
                           dtype=view.dtype)
        out = view[np.where(ok, idx, 0)]
        okb = ok.reshape(ok.shape + (1,) * (out.ndim - ok.ndim)) if out.ndim > ok.ndim else ok
        return np.where(okb, out, view.dtype.type(fill))

    def store(self, view, index, value, mask=True):
        """Bounds-guarded masked scatter: ``view[index] = value`` where allowed.

        An integer index vector whose every lane is in range and masked in
        scatters directly; anything else drops the lanes that are not.
        Either way a repeated index keeps the last lane's value.  Under
        :func:`repro.faults.memcheck`, a masked-in lane whose index is out
        of range raises :class:`MemcheckError` instead of being silently
        dropped.
        """
        checker = _get_memcheck()
        if checker is not None:
            checker.check_store(view, index, mask)
        idx = np.asarray(index)
        ok = _in_range(idx, view.shape[0])
        if (idx.ndim and idx.dtype.kind in "iu" and _all_lanes(mask, idx.shape)
                and _all(ok)):
            vals = np.asarray(value, dtype=view.dtype)
            view[idx] = vals if vals.shape == idx.shape else np.broadcast_to(vals, idx.shape)
            return
        ok = ok & np.asarray(mask, dtype=bool)
        if idx.ndim == 0 and np.ndim(ok) == 0:
            if bool(ok):
                view[int(idx)] = value
            return
        idx, ok = np.broadcast_arrays(idx, ok)
        vals = np.broadcast_to(np.asarray(value, dtype=view.dtype), idx.shape)
        if isinstance(view, BlockShared):
            view = view.restrict(ok)
        view[idx[ok]] = vals[ok]

    def loop_max(self, count):
        """Upper trip-count bound for a lane-varying loop (max over lanes)."""
        if np.ndim(count) == 0:
            return int(count)
        return int(np.max(count)) if np.size(count) else 0
