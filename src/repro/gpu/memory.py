"""Virtual device global memory: allocator, typed pointers, memcpy.

Device memory is a set of NumPy-backed allocations indexed by virtual
addresses.  A :class:`DevicePointer` is a (address) handle supporting
pointer arithmetic, exactly like the ``int*`` values flowing through the
paper's CUDA example (Figure 1) and through ``ompx_malloc`` (§3.4).
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import InvalidPointerError, OutOfMemoryError
from ..faults.inject import active_plan as _fault_plan
from ..faults.memcheck import get_memcheck as _get_memcheck

__all__ = [
    "MemcpyKind",
    "DevicePointer",
    "Allocation",
    "GlobalAllocator",
    "memcpy_peer",
    "peer_copy",
]


class MemcpyKind:
    """Direction tags mirroring ``cudaMemcpyKind``."""

    HOST_TO_DEVICE = "host_to_device"
    DEVICE_TO_HOST = "device_to_host"
    DEVICE_TO_DEVICE = "device_to_device"
    HOST_TO_HOST = "host_to_host"


_ALIGNMENT = 256  # bytes; matches CUDA's minimum allocation alignment

_REPRO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_GPU_DIR = os.path.dirname(os.path.abspath(__file__))


def _call_site() -> str:
    """``file:line`` of the frame that caused an allocator call.

    Prefers the first frame outside the repro library (the user's code);
    falls back to the first frame outside the gpu package (the language
    layer, e.g. ``host.py:75``) for library-internal allocations.  Used
    to attribute double-frees and leaks to their original malloc.
    """
    frame = sys._getframe(1)
    outside_gpu: Optional[str] = None
    for _ in range(32):
        if frame is None:
            break
        filename = frame.f_code.co_filename
        if not filename.startswith(_REPRO_ROOT):
            return f"{os.path.basename(filename)}:{frame.f_lineno}"
        if outside_gpu is None and not filename.startswith(_GPU_DIR):
            outside_gpu = f"{os.path.basename(filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return outside_gpu or "<repro internal>"


@dataclass(frozen=True)
class DevicePointer:
    """An address in a device's virtual global address space.

    Supports ``ptr + n`` / ``ptr - n`` byte arithmetic so that kernels and
    host code can index into the middle of allocations; dereferencing is
    done through the owning :class:`GlobalAllocator`.
    """

    device_ordinal: int
    address: int

    def __add__(self, offset: int) -> "DevicePointer":
        return DevicePointer(self.device_ordinal, self.address + int(offset))

    def __sub__(self, offset: int) -> "DevicePointer":
        return DevicePointer(self.device_ordinal, self.address - int(offset))

    def offset_elements(self, count: int, dtype: np.dtype) -> "DevicePointer":
        """Advance by ``count`` elements of ``dtype``."""
        return self + int(count) * np.dtype(dtype).itemsize

    @property
    def is_null(self) -> bool:
        return self.address == 0

    def __bool__(self) -> bool:
        return not self.is_null

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DevicePointer(dev={self.device_ordinal}, 0x{self.address:x})"


NULL_ADDRESS = 0


@dataclass
class Allocation:
    """One live allocation: base address plus raw byte storage."""

    base: int
    data: np.ndarray  # uint8 buffer of len size

    @property
    def size(self) -> int:
        return self.data.nbytes

    @property
    def end(self) -> int:
        return self.base + self.size


#: Freed ranges remembered for double-free and use-after-free diagnostics.
#: Bounded, so a long-running process (a serving tier frees on every
#: request) does not grow without limit; an access to an older freed
#: range still raises, with the generic "not a live allocation" message.
_FREED_HISTORY = 1024


class GlobalAllocator:
    """Bump allocator with a free list over a device's global memory.

    The virtual address space starts above zero so that the null pointer is
    always invalid.  Freed ranges are not recycled (addresses are never
    reused), which turns use-after-free into a deterministic
    :class:`InvalidPointerError` rather than silent corruption — valuable in
    a simulator whose main job is catching porting bugs.
    """

    _BASE = 0x1000

    def __init__(self, device) -> None:
        self._device = device
        self._lock = threading.RLock()
        self._next = self._BASE
        self._allocations: Dict[int, Allocation] = {}
        self._bytes_in_use = 0
        # Diagnostics: where each live allocation was made (base -> site),
        # and every freed range (base -> (size, alloc site, free site)) so
        # double-frees and use-after-free name the original allocation.
        self._alloc_sites: Dict[int, str] = {}
        self._freed: Dict[int, Tuple[int, str, str]] = {}

    # --- allocation --------------------------------------------------------
    def malloc(self, size: int) -> DevicePointer:
        """Allocate ``size`` bytes of zero-initialized global memory."""
        if size < 0:
            raise ValueError(f"allocation size must be >= 0, got {size}")
        size = max(int(size), 1)
        self._device.check_poison()
        plan = _fault_plan()
        if plan is not None:
            plan.fire("malloc", device=self._device.ordinal, size=size)
        site = _call_site()
        with self._lock:
            if self._bytes_in_use + size > self._device.spec.global_mem_bytes:
                raise OutOfMemoryError(
                    f"device {self._device.spec.name!r}: requested {size} B, "
                    f"{self._device.spec.global_mem_bytes - self._bytes_in_use} B free"
                )
            base = self._next
            aligned = (size + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
            self._next = base + aligned
            self._allocations[base] = Allocation(base, np.zeros(size, dtype=np.uint8))
            self._alloc_sites[base] = site
            self._bytes_in_use += size
        return DevicePointer(self._device.ordinal, base)

    def free(self, ptr: DevicePointer) -> None:
        """Release an allocation.  Freeing the null pointer is a no-op.

        Double-frees, frees of pointers into the *middle* of a live
        allocation, and frees of never-allocated addresses are three
        distinct bugs; each gets its own diagnosis (naming the original
        allocation site where one exists) instead of one generic error.
        """
        if ptr.is_null:
            return
        self._device.check_poison()
        plan = _fault_plan()
        if plan is not None:
            plan.fire("free", device=self._device.ordinal,
                      ptr=f"0x{ptr.address:x}")
        with self._lock:
            alloc = self._allocations.pop(ptr.address, None)
            if alloc is None:
                raise self._bad_free(ptr)
            self._bytes_in_use -= alloc.size
            self._freed[ptr.address] = (
                alloc.size,
                self._alloc_sites.pop(ptr.address, "<unknown>"),
                _call_site(),
            )
            if len(self._freed) > _FREED_HISTORY:
                del self._freed[next(iter(self._freed))]  # the oldest free

    def _bad_free(self, ptr: DevicePointer) -> InvalidPointerError:
        """Diagnose a free() that did not hit a live allocation base.

        Caller holds ``self._lock``.
        """
        checker = _get_memcheck()
        freed = self._freed.get(ptr.address)
        if freed is not None:
            size, alloc_site, free_site = freed
            message = (
                f"double free of {ptr!r}: {size} B allocation (allocated at "
                f"{alloc_site}) was already freed at {free_site}"
            )
            if checker is not None:
                checker.note_double_free(message)
            return InvalidPointerError(message)
        for base, alloc in self._allocations.items():
            if alloc.base < ptr.address < alloc.end:
                message = (
                    f"free of {ptr!r}: points {ptr.address - alloc.base} B "
                    f"into a live {alloc.size} B allocation at "
                    f"0x{alloc.base:x} (allocated at "
                    f"{self._alloc_sites.get(base, '<unknown>')}); free the "
                    f"base pointer instead"
                )
                if checker is not None:
                    checker.note_bad_free(message)
                return InvalidPointerError(message)
        for base, (size, alloc_site, free_site) in self._freed.items():
            if base < ptr.address < base + size:
                message = (
                    f"free of {ptr!r}: points into a {size} B allocation "
                    f"(allocated at {alloc_site}) already freed at {free_site}"
                )
                if checker is not None:
                    checker.note_double_free(message)
                return InvalidPointerError(message)
        message = f"free of {ptr!r}: not the base of a live allocation"
        if checker is not None:
            checker.note_bad_free(message)
        return InvalidPointerError(message)

    @property
    def bytes_in_use(self) -> int:
        with self._lock:
            return self._bytes_in_use

    @property
    def live_allocations(self) -> int:
        with self._lock:
            return len(self._allocations)

    # --- dereference -------------------------------------------------------
    def _resolve(self, ptr: DevicePointer, nbytes: int) -> Tuple[Allocation, int]:
        """Find the allocation containing [ptr, ptr+nbytes)."""
        if ptr.is_null:
            raise InvalidPointerError("null pointer dereference")
        if ptr.device_ordinal != self._device.ordinal:
            raise InvalidPointerError(
                f"pointer for device {ptr.device_ordinal} used on device "
                f"{self._device.ordinal}"
            )
        with self._lock:
            # Allocations are sparse; find the one whose range contains ptr.
            # The dict is keyed by base address; do a fast path exact hit
            # first, then a scan (allocation count is small in practice).
            alloc = self._allocations.get(ptr.address)
            if alloc is None:
                for candidate in self._allocations.values():
                    if candidate.base <= ptr.address < candidate.end:
                        alloc = candidate
                        break
            if alloc is None:
                for base, (size, alloc_site, free_site) in self._freed.items():
                    if base <= ptr.address < base + size:
                        raise InvalidPointerError(
                            f"use after free: {ptr!r} points into a {size} B "
                            f"allocation (allocated at {alloc_site}) freed at "
                            f"{free_site}"
                        )
                raise InvalidPointerError(f"{ptr!r} does not point into a live allocation")
            offset = ptr.address - alloc.base
            if offset + nbytes > alloc.size:
                raise InvalidPointerError(
                    f"access of {nbytes} B at offset {offset} overruns allocation "
                    f"of {alloc.size} B"
                )
            return alloc, offset

    def view(self, ptr: DevicePointer, shape, dtype) -> np.ndarray:
        """Return a writable NumPy view of device memory at ``ptr``.

        This is the simulator's core primitive: kernels and memcpy both go
        through views so that all reads/writes hit the single backing
        buffer (no copies — see the hpc guide's "views, not copies" rule).
        """
        dtype = np.dtype(dtype)
        shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * dtype.itemsize
        alloc, offset = self._resolve(ptr, nbytes)
        flat = alloc.data[offset : offset + nbytes]
        return flat.view(dtype).reshape(shape)

    def locate_buffer(self, start: int, nbytes: int) -> Optional[Tuple[Allocation, int]]:
        """Find the live allocation whose NumPy buffer contains ``start``.

        ``start`` is a host memory address (``__array_interface__``'s
        ``data`` pointer of some view).  Returns ``(allocation, byte
        offset)`` or ``None``.  The memcheck sanitizer uses this to map a
        view a kernel is accessing back to its device allocation.
        """
        with self._lock:
            for alloc in self._allocations.values():
                base = alloc.data.__array_interface__["data"][0]
                if base <= start and start + nbytes <= base + alloc.size:
                    return alloc, start - base
        return None

    # --- transfers ----------------------------------------------------------
    def _transfer_bytes(self, direction: str, nbytes: int) -> int:
        """Poison/fault hooks for one memcpy; returns the bytes to move.

        An injected ``memcpy:truncate`` rule shortens the transfer (the
        classic "partial DMA" failure); otherwise the full ``nbytes``
        move, byte-identically to the un-instrumented path.
        """
        self._device.check_poison()
        plan = _fault_plan()
        if plan is None:
            return nbytes
        effects = plan.fire(
            "memcpy", device=self._device.ordinal, size=nbytes,
            direction=direction,
        )
        keep = effects.get("truncate_bytes")
        return nbytes if keep is None else min(int(keep), nbytes)

    def memcpy_h2d(self, dst: DevicePointer, src: np.ndarray) -> None:
        """Copy a host array into device memory at ``dst``."""
        src = np.ascontiguousarray(src)
        keep = self._transfer_bytes("h2d", src.nbytes)
        alloc, offset = self._resolve(dst, src.nbytes)
        src_bytes = src.reshape(-1).view(np.uint8)
        alloc.data[offset : offset + keep] = src_bytes[:keep]

    def memcpy_d2h(self, dst: np.ndarray, src: DevicePointer) -> None:
        """Copy device memory at ``src`` into a writable host array."""
        if not dst.flags.writeable:
            raise ValueError("destination host array is not writeable")
        if not dst.flags.c_contiguous:
            raise ValueError("destination host array must be C-contiguous")
        keep = self._transfer_bytes("d2h", dst.nbytes)
        alloc, offset = self._resolve(src, dst.nbytes)
        dst.reshape(-1).view(np.uint8)[:keep] = alloc.data[offset : offset + keep]

    def memcpy_d2d(self, dst: DevicePointer, src: DevicePointer, nbytes: int) -> None:
        """Copy ``nbytes`` between two device allocations."""
        keep = self._transfer_bytes("d2d", nbytes)
        dst_alloc, dst_off = self._resolve(dst, nbytes)
        src_alloc, src_off = self._resolve(src, nbytes)
        # np.copyto handles overlapping views incorrectly only for the same
        # buffer; use an explicit copy of the source bytes to be safe.
        data = src_alloc.data[src_off : src_off + keep].copy()
        dst_alloc.data[dst_off : dst_off + keep] = data

    def memset(self, ptr: DevicePointer, value: int, nbytes: int) -> None:
        """Fill ``nbytes`` of device memory with a byte value."""
        self._device.check_poison()
        plan = _fault_plan()
        if plan is not None:
            plan.fire("memset", device=self._device.ordinal, size=nbytes)
        alloc, offset = self._resolve(ptr, nbytes)
        alloc.data[offset : offset + nbytes] = np.uint8(value & 0xFF)


def memcpy_peer(dst: DevicePointer, src: DevicePointer, nbytes: int) -> None:
    """Copy ``nbytes`` between allocations owned by (possibly) different devices.

    The substrate behind ``cudaMemcpyPeer``/``hipMemcpyPeer``/
    ``ompx_memcpy_peer``.  Each pointer is resolved against its *own*
    device's allocator, so cross-device copies work without violating the
    per-device address spaces.  Both contexts must be healthy; fault rules
    for the ``memcpy`` site fire with ``direction=p2p`` against the
    destination device (the one issuing the DMA, as in CUDA).  Whether the
    copy is *modeled* as a direct peer-link transfer or staged through
    host memory is the perf model's concern (:mod:`repro.perf.transfer`)
    — functionally the bytes always arrive.
    """
    from .device import get_device

    dst_dev = get_device(dst.device_ordinal)
    src_dev = get_device(src.device_ordinal)
    src_dev.check_poison()
    keep = dst_dev.allocator._transfer_bytes("p2p", nbytes)
    src_alloc, src_off = src_dev.allocator._resolve(src, nbytes)
    dst_alloc, dst_off = dst_dev.allocator._resolve(dst, nbytes)
    data = src_alloc.data[src_off : src_off + keep].copy()
    dst_alloc.data[dst_off : dst_off + keep] = data


def peer_copy(dst: DevicePointer, src: DevicePointer, nbytes: int,
              *, api: str = "memcpy_peer") -> None:
    """Peer copy with tracing and modeled interconnect cost.

    The shared implementation behind ``cudaMemcpyPeer``,
    ``hipMemcpyPeer`` and ``ompx_memcpy_peer`` (``api`` names the span).
    Same-device pairs degenerate to an ordinary d2d copy.  Cross-device
    pairs record whether the transfer rode a direct peer link (``path=
    "direct"``, peer access enabled in either direction) or was staged
    through host memory, plus the :mod:`repro.perf.transfer` modeled
    microseconds for that path.
    """
    from ..trace import get_tracer

    tracer = get_tracer()
    if dst.device_ordinal == src.device_ordinal:
        from .device import get_device

        allocator = get_device(dst.device_ordinal).allocator
        if tracer is None:
            allocator.memcpy_d2d(dst, src, nbytes)
            return
        with tracer.span(api, cat="memcpy", bytes=int(nbytes),
                         direction="d2d",
                         src_device=src.device_ordinal,
                         dst_device=dst.device_ordinal):
            allocator.memcpy_d2d(dst, src, nbytes)
        return
    if tracer is None:
        memcpy_peer(dst, src, nbytes)
        return
    from .device import get_device
    from ..perf.transfer import peer_link_for, peer_transfer_seconds

    src_dev = get_device(src.device_ordinal)
    dst_dev = get_device(dst.device_ordinal)
    enabled = (
        dst_dev.has_peer_access(src_dev) or src_dev.has_peer_access(dst_dev)
    )
    link = peer_link_for(src_dev.spec, dst_dev.spec, enabled=enabled)
    modeled_s = peer_transfer_seconds(
        nbytes, src_dev.spec, dst_dev.spec, enabled=enabled
    )
    with tracer.span(api, cat="memcpy", bytes=int(nbytes), direction="p2p",
                     src_device=src_dev.ordinal, dst_device=dst_dev.ordinal,
                     path="direct" if enabled else "staged",
                     link=link.name if link is not None else "host-staged",
                     modeled_us=modeled_s * 1e6):
        memcpy_peer(dst, src, nbytes)
