"""Block-scoped shared memory.

CUDA's ``__shared__`` (and the proposed OpenMP ``groupprivate(team: var)``
from the paper's §2.5 footnote) declare variables visible to all threads of
one block.  In the simulator a block owns a :class:`SharedMemory` holding
named NumPy arrays plus the dynamic shared region requested at launch.  A
``wave`` batch runs many blocks at once: its :class:`SharedMemory` stacks
one copy per block, and each lane sees its own block's copy through a
:class:`BlockShared`.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

import numpy as np

from ..errors import LaunchError

__all__ = ["BlockShared", "SharedMemory"]

_WHOLE_ARRAY = (
    "a shared array of a wave batch holds one copy per block, so it is "
    "indexed per lane (tile[i], load/store); whole-array NumPy use would "
    "compute over every block of the batch at once"
)


class BlockShared:
    """One shared array of every block in a wave batch, indexed per lane.

    ``data`` stacks the blocks' copies as ``(blocks, *shape)`` and
    ``rows[lane]`` is the lane's block within the batch, so lane ``l``
    indexing ``[i]`` reads ``data[rows[l], i]``.  Subscripts and the
    ``load``/``store`` intrinsics work per lane; whole-array NumPy use
    (``tile.sum()``, ``np.asarray(tile)``, ``tile * 2``) raises instead.
    """

    __slots__ = ("data", "rows")

    def __init__(self, data: np.ndarray, rows: np.ndarray) -> None:
        self.data = data
        self.rows = rows

    @property
    def shape(self):
        """One block's shape."""
        return self.data.shape[1:]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return self.data.shape[1]

    def restrict(self, sel) -> "BlockShared":
        """The same storage, seen by the lanes ``sel`` (a mask or indices) picks."""
        return BlockShared(self.data, self.rows[sel])

    def _key(self, index) -> tuple:
        return (self.rows,) + (index if isinstance(index, tuple) else (index,))

    def __getitem__(self, index) -> np.ndarray:
        return self.data[self._key(index)]

    def __setitem__(self, index, value) -> None:
        self.data[self._key(index)] = value

    def _whole_array(self, *args, **kwargs):
        raise TypeError(_WHOLE_ARRAY)

    __array__ = __array_ufunc__ = __array_function__ = _whole_array
    __iter__ = __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _whole_array
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _whole_array
    __truediv__ = __rtruediv__ = __neg__ = __abs__ = _whole_array

    def __getattr__(self, name: str):
        raise AttributeError(f"{name!r}: {_WHOLE_ARRAY}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BlockShared(blocks={self.data.shape[0]}, shape={self.shape}, "
                f"lanes={self.rows.size})")


class SharedMemory:
    """Shared memory for one thread block, or for each block of a wave batch.

    ``array(name, shape, dtype)`` is idempotent per block: the first caller
    allocates, later callers (other threads of the block) get the same
    array.  Total static + dynamic usage is checked against the device's
    per-block limit.  With ``rows`` (each lane's block within a wave batch,
    non-decreasing from 0), every array holds one copy per block and comes
    back as a :class:`BlockShared`.
    """

    def __init__(self, limit_bytes: int, dynamic_bytes: int = 0,
                 rows: Optional[np.ndarray] = None) -> None:
        if dynamic_bytes > limit_bytes:
            raise LaunchError(
                f"dynamic shared memory {dynamic_bytes} B exceeds the per-block "
                f"limit of {limit_bytes} B"
            )
        self._limit = limit_bytes
        self._lock = threading.Lock()
        self._arrays: Dict[str, object] = {}
        self._static_bytes = 0
        self._rows = rows
        self._blocks = () if rows is None else (int(rows[-1]) + 1,)
        self._dynamic_bytes = dynamic_bytes
        self._dynamic = np.zeros(self._blocks + (dynamic_bytes,), dtype=np.uint8)

    def _per_block(self, data: np.ndarray):
        return data if self._rows is None else BlockShared(data, self._rows)

    def array(self, name: str, shape, dtype):
        """Get or create the named shared array for this block."""
        dtype = np.dtype(dtype)
        shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
        with self._lock:
            existing = self._arrays.get(name)
            if existing is not None:
                if existing.shape != shape or existing.dtype != dtype:
                    raise LaunchError(
                        f"shared array {name!r} redeclared with shape={shape} "
                        f"dtype={dtype}, but exists with shape={existing.shape} "
                        f"dtype={existing.dtype}"
                    )
                return existing
            nbytes = int(np.prod(shape)) * dtype.itemsize if shape else dtype.itemsize
            if self._static_bytes + nbytes + self._dynamic_bytes > self._limit:
                raise LaunchError(
                    f"shared array {name!r} ({nbytes} B) would exceed the "
                    f"per-block shared memory limit of {self._limit} B "
                    f"(in use: {self._static_bytes + self._dynamic_bytes} B)"
                )
            arr = self._per_block(np.zeros(self._blocks + shape, dtype=dtype))
            self._arrays[name] = arr
            self._static_bytes += nbytes
            return arr

    def dynamic(self, dtype):
        """View the dynamic shared region (``extern __shared__``) as ``dtype``."""
        dtype = np.dtype(dtype)
        usable = (self._dynamic_bytes // dtype.itemsize) * dtype.itemsize
        return self._per_block(self._dynamic[..., :usable].view(dtype))

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._static_bytes + self._dynamic_bytes
