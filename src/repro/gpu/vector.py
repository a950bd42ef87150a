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

Behavioural counters are kept *exact*: every counted operation increments
its counter by the number of live lanes, so a launch reports the same
``barriers``/``global_derefs``/``shared_declarations`` totals the scalar
engines would.  All lanes are live unless a lowered body
(:mod:`repro.compiler.lower`) narrows them with :meth:`set_live`.
"""

from __future__ import annotations

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


def _split_flat(flat: np.ndarray, extent: Dim3) -> VecDim3:
    """Vector inverse of :func:`repro.gpu.dim.linearize` (x fastest)."""
    x = flat % extent.x
    rest = flat // extent.x
    return VecDim3(x, rest % extent.y, rest // extent.y)


class VectorThreadCtx:
    """A ThreadCtx-compatible context that stands for a whole batch of lanes.

    Index properties return arrays; memory and counter semantics follow
    :class:`~repro.gpu.context.ThreadCtx` exactly, scaled by lane count.
    """

    __slots__ = (
        "_device", "_mode", "_grid", "_bdim", "block_idx", "thread_idx",
        "_flat", "_gflat", "_bflat", "_lanes", "_live", "_shared",
        "n_barriers", "n_warp_collectives", "n_global_derefs", "n_shared_decls",
    )

    def __init__(
        self,
        device,
        grid_dim: Dim3,
        block_dim: Dim3,
        *,
        mode: str,
        blocks: Optional[range] = None,
        global_flat: Optional[np.ndarray] = None,
        shared_bytes: int = 0,
    ) -> None:
        self._device = device
        self._mode = mode
        self._grid = grid_dim
        self._bdim = block_dim
        if mode == "wave":
            if blocks is None:
                raise ValueError("wave mode requires a block range")
            volume = block_dim.volume
            global_flat = np.arange(blocks.start * volume, blocks.stop * volume, dtype=np.int64)
        elif mode == "vector":
            if global_flat is None:
                raise ValueError("vector mode requires a global flat id range")
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown vector mode {mode!r}")
        self._gflat = global_flat
        self._flat = global_flat % block_dim.volume
        self._bflat = global_flat // block_dim.volume
        self.block_idx = _split_flat(self._bflat, grid_dim)
        self.thread_idx = _split_flat(self._flat, block_dim)
        self._shared: Optional[SharedMemory] = None
        if mode == "wave":
            self._shared = SharedMemory(
                device.spec.shared_mem_per_block, shared_bytes,
                rows=self._bflat - blocks.start,
            )
        self._lanes = int(self._flat.shape[0])
        self._live = self._lanes
        # Behavioural counters, harvested into KernelStats by the engines.
        # Each counted call adds one per lane so launch totals match the
        # per-thread sums the scalar engines report.
        self.n_barriers = 0
        self.n_warp_collectives = 0
        self.n_global_derefs = 0
        self.n_shared_decls = 0

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
    def flat_thread_id(self) -> np.ndarray:
        """Per-lane flat thread id within the block (x fastest)."""
        return self._flat

    @property
    def flat_block_id(self) -> np.ndarray:
        """Per-lane flat block id."""
        return self._bflat

    @property
    def global_id_x(self) -> np.ndarray:
        """``blockIdx.x * blockDim.x + threadIdx.x`` per lane."""
        return self.block_idx.x * self._bdim.x + self.thread_idx.x

    @property
    def global_id_y(self) -> np.ndarray:
        """Per-lane global y index."""
        return self.block_idx.y * self._bdim.y + self.thread_idx.y

    @property
    def global_id_z(self) -> np.ndarray:
        """Per-lane global z index."""
        return self.block_idx.z * self._bdim.z + self.thread_idx.z

    @property
    def global_flat_id(self) -> np.ndarray:
        """Per-lane flat id across the whole launch (block-major, x fastest)."""
        return self._gflat

    @property
    def lane_id(self) -> np.ndarray:
        """Per-lane lane index within its warp."""
        return self._flat % self.warp_size

    @property
    def warp_id(self) -> np.ndarray:
        """Per-lane warp index within the block."""
        return self._flat // self.warp_size

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
        """Bounds-guarded gather: ``view[index]`` where in range, else ``fill``."""
        checker = _get_memcheck()
        if checker is not None:
            checker.check_load(view, index)
        idx = np.asarray(index)
        n = view.shape[0]
        ok = (idx >= 0) & (idx < n)
        if idx.ndim == 0:
            i = int(idx)
            return view[i] if bool(ok) else view.dtype.type(fill)
        out = view[np.where(ok, idx, 0)]
        okb = ok.reshape(ok.shape + (1,) * (out.ndim - ok.ndim)) if out.ndim > ok.ndim else ok
        return np.where(okb, out, view.dtype.type(fill))

    def store(self, view, index, value, mask=True):
        """Bounds-guarded masked scatter: ``view[index] = value`` where allowed.

        Under :func:`repro.faults.memcheck`, a masked-in lane whose index
        is out of range raises :class:`MemcheckError` instead of being
        silently dropped.
        """
        checker = _get_memcheck()
        if checker is not None:
            checker.check_store(view, index, mask)
        idx = np.asarray(index)
        n = view.shape[0]
        ok = (idx >= 0) & (idx < n) & np.asarray(mask, dtype=bool)
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
