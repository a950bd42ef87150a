"""Compute-sanitizer-style memory checking for the simulated GPU.

Under ``memcheck()``, the bounds-guarded device intrinsics
(:meth:`ThreadCtx.load`/``store`` and their vectorized counterparts) stop
*papering over* out-of-bounds accesses and start *reporting* them: an OOB
store — which the un-sanitized simulator silently drops, exactly like
real GPU hardware silently corrupts — raises :class:`MemcheckError`
carrying the offending virtual address, the allocation it missed, and
(once the launch layer annotates it) the kernel name.  This mirrors
``compute-sanitizer --tool memcheck`` / ``rocgdb``'s address watchpoints.

OOB *loads* are not flagged by default: the portable ``load(view, i,
fill=0)`` intrinsic is *specified* to return ``fill`` out of range, and
tail lanes of vectorized kernels rely on it.  Pass ``check_loads=True``
to flag them anyway (useful when porting kernels that should never read
past their extent).

At scope exit the checker reports allocations made inside the window
that were never freed (leaks), plus any double-frees / bad frees it was
notified of, via :attr:`MemcheckReport`.

Zero cost when disabled: the intrinsics read one module global and test
``is None`` — the same discipline as :func:`repro.trace.get_tracer`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import MemcheckError

__all__ = ["Memcheck", "MemcheckReport", "memcheck", "get_memcheck"]

_active: Optional["Memcheck"] = None
_lock = threading.Lock()


def get_memcheck() -> Optional["Memcheck"]:
    """The active :class:`Memcheck`, or ``None`` (the common, free case)."""
    return _active


@dataclass
class MemcheckReport:
    """What the sanitizer found over one ``memcheck()`` window."""

    oob_stores: int = 0
    oob_loads: int = 0
    double_frees: List[str] = field(default_factory=list)
    bad_frees: List[str] = field(default_factory=list)
    #: ``(device_ordinal, base_address, size_bytes, alloc_site)`` per leak.
    leaks: List[Tuple[int, int, int, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.oob_stores or self.oob_loads or self.double_frees
                    or self.bad_frees or self.leaks)

    def summary(self) -> str:
        """Human-readable report, one line per finding."""
        if self.clean:
            return "memcheck: no errors"
        lines = ["memcheck report:"]
        if self.oob_stores:
            lines.append(f"  {self.oob_stores} out-of-bounds store(s)")
        if self.oob_loads:
            lines.append(f"  {self.oob_loads} out-of-bounds load(s)")
        for msg in self.double_frees:
            lines.append(f"  double free: {msg}")
        for msg in self.bad_frees:
            lines.append(f"  invalid free: {msg}")
        for ordinal, base, size, site in self.leaks:
            lines.append(
                f"  leak: {size} B at 0x{base:x} on device {ordinal} "
                f"(allocated at {site})"
            )
        return "\n".join(lines)


class Memcheck:
    """Validates device accesses against live allocation bounds."""

    def __init__(self, *, check_loads: bool = False) -> None:
        self.check_loads = check_loads
        self.report = MemcheckReport()
        # Per-device bump-pointer watermark at window entry; allocations at
        # or above it were made inside the window and count as leaks if
        # still live at exit.  Addresses are never reused, so a watermark
        # is exact.
        self._watermarks: Dict[int, int] = {}

    # --- window lifecycle -------------------------------------------------
    def _enter(self) -> None:
        for ordinal, device in _registered_devices().items():
            allocator = device._allocator
            if allocator is not None:
                self._watermarks[ordinal] = allocator._next
            else:
                self._watermarks[ordinal] = None  # type: ignore[assignment]

    def _exit(self) -> None:
        for ordinal, device in _registered_devices().items():
            allocator = device._allocator
            if allocator is None:
                continue
            mark = self._watermarks.get(ordinal)
            with allocator._lock:
                for base, alloc in allocator._allocations.items():
                    if mark is None or base >= mark:
                        site = allocator._alloc_sites.get(base, "<unknown>")
                        self.report.leaks.append(
                            (ordinal, base, alloc.size, site)
                        )

    # --- access validation (called from ThreadCtx / VectorThreadCtx) ------
    def check_store(self, view: np.ndarray, index: Any, mask: Any,
                    value: Any = None) -> None:
        """Flag any masked-in store whose index falls outside ``view``.

        The un-sanitized intrinsic silently drops such writes; here they
        become a :class:`MemcheckError` naming the first offending lane.
        """
        bad = self._first_bad(view, index, mask)
        if bad is None:
            return
        self.report.oob_stores += 1
        raise self._violation("store", view, bad)

    def check_load(self, view: np.ndarray, index: Any) -> None:
        """Flag OOB reads when ``check_loads`` is on (else free no-op)."""
        if not self.check_loads:
            return
        bad = self._first_bad(view, index, True)
        if bad is None:
            return
        self.report.oob_loads += 1
        raise self._violation("load", view, bad)

    @staticmethod
    def _first_bad(view: np.ndarray, index: Any, mask: Any) -> Optional[int]:
        n = view.shape[0]
        if np.ndim(index) == 0 and np.ndim(mask) == 0:
            idx = int(index)
            if mask and not 0 <= idx < n:
                return idx
            return None
        idx = np.asarray(index)
        active = np.broadcast_to(np.asarray(mask, dtype=bool), idx.shape)
        oob = active & ((idx < 0) | (idx >= n))
        if not oob.any():
            return None
        return int(idx[oob].flat[0])

    def _violation(self, what: str, view: np.ndarray, index: int) -> MemcheckError:
        located = self._locate(view)
        itemsize = view.dtype.itemsize
        if located is None:
            return MemcheckError(
                f"out-of-bounds {what}: index {index} in a view of "
                f"{view.shape[0]} element(s) (host-backed array)",
            )
        device, alloc, base_offset = located
        address = alloc.base + base_offset + index * itemsize
        site = device.allocator._alloc_sites.get(alloc.base, "<unknown>")
        return MemcheckError(
            f"out-of-bounds {what} of {itemsize} B at 0x{address:x}: index "
            f"{index} outside view of {view.shape[0]} element(s); nearest "
            f"allocation is {alloc.size} B at 0x{alloc.base:x} on device "
            f"{device.ordinal} (allocated at {site})",
            address=address,
        )

    @staticmethod
    def _locate(view: np.ndarray):
        """Find (device, allocation, byte offset) backing a NumPy view.

        Device views are slices of an allocation's ``uint8`` buffer, so the
        view's memory address falls inside exactly one live allocation's
        buffer; host arrays fall in none and return ``None``, and so does a
        wave batch's block-stacked shared array (not an ndarray).
        """
        if not isinstance(view, np.ndarray):
            return None
        start = view.__array_interface__["data"][0]
        for device in _registered_devices().values():
            allocator = device._allocator
            if allocator is None:
                continue
            located = allocator.locate_buffer(start, view.nbytes)
            if located is not None:
                return device, located[0], located[1]
        return None

    # --- allocator notifications ------------------------------------------
    def note_double_free(self, message: str) -> None:
        """Record a double free the allocator diagnosed (it still raises)."""
        self.report.double_frees.append(message)

    def note_bad_free(self, message: str) -> None:
        """Record an invalid free the allocator diagnosed (it still raises)."""
        self.report.bad_frees.append(message)


@contextmanager
def memcheck(*, check_loads: bool = False) -> Iterator[Memcheck]:
    """Run the enclosed block under the memory sanitizer.

    ::

        with faults.memcheck() as mc:
            launch_kernel(cfg, kernel, args, device)
        assert mc.report.clean, mc.report.summary()
    """
    global _active
    checker = Memcheck(check_loads=check_loads)
    with _lock:
        if _active is not None:
            from ..errors import FaultSpecError

            raise FaultSpecError("memcheck() does not nest")
        checker._enter()
        _active = checker
    try:
        yield checker
    finally:
        with _lock:
            _active = None
        checker._exit()


def _registered_devices():
    # Lazy import: faults.* must stay importable without the gpu package
    # (and gpu.context imports this module for its hot-path check).
    from ..gpu.device import registered_devices

    return registered_devices()
