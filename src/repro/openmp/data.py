"""OpenMP device data environment: map clauses and target memory APIs.

§2.6 of the paper: OpenMP manages host/device data either with directives
(``map(to: a[0:n])``, ``target update``) or with APIs
(``omp_target_alloc``, ``omp_target_memcpy``).  Both are implemented here
over the virtual GPU allocator, including the reference-counted *presence*
semantics of the OpenMP spec: mapping an already-present variable bumps a
refcount and transfers nothing; the transfer happens only on the 0->1
(``to``) and 1->0 (``from``) edges.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MappingError
from ..gpu.device import Device
from ..gpu.host import copy_bytes, direction
from ..gpu.memory import DevicePointer

__all__ = [
    "MapType",
    "MapEntry",
    "DeviceDataEnvironment",
    "data_environment",
    "TargetData",
    "omp_target_alloc",
    "omp_target_free",
    "omp_target_memcpy",
    "omp_target_is_present",
]


class MapType:
    """Map-type modifiers of the ``map`` clause."""

    TO = "to"
    FROM = "from"
    TOFROM = "tofrom"
    ALLOC = "alloc"
    RELEASE = "release"
    DELETE = "delete"

    _ENTRY_KINDS = (TO, FROM, TOFROM, ALLOC)

    @classmethod
    def validate(cls, kind: str) -> str:
        if kind not in cls._ENTRY_KINDS:
            raise MappingError(
                f"unsupported map type {kind!r}; expected one of {cls._ENTRY_KINDS}"
            )
        return kind


def _host_key(array: np.ndarray) -> Tuple[int, int]:
    """Identity of a host buffer: (address of first element, nbytes)."""
    if not isinstance(array, np.ndarray):
        raise MappingError(f"map clauses take NumPy arrays, got {type(array).__name__}")
    if not array.flags.c_contiguous:
        raise MappingError(
            "mapped arrays must be C-contiguous (OpenMP maps contiguous "
            "storage; take .copy() of the slice first)"
        )
    return (array.__array_interface__["data"][0], array.nbytes)


@dataclass
class MapEntry:
    """One present variable in a device data environment."""

    device_ptr: DevicePointer
    refcount: int
    nbytes: int
    host_array: np.ndarray  # kept so `from` transfers know where to land


class DeviceDataEnvironment:
    """The per-device table of host->device correspondences."""

    def __init__(self, device: Device) -> None:
        self.device = device
        self._lock = threading.RLock()
        self._entries: Dict[Tuple[int, int], MapEntry] = {}

    # --- presence ------------------------------------------------------------
    def is_present(self, array: np.ndarray) -> bool:
        """Whether the host array is currently mapped to this device."""
        with self._lock:
            return _host_key(array) in self._entries

    def lookup(self, array: np.ndarray) -> DevicePointer:
        """Device pointer for a mapped host array (the inside-region view)."""
        with self._lock:
            entry = self._entries.get(_host_key(array))
            if entry is None:
                raise MappingError(
                    f"host array (shape={array.shape}, dtype={array.dtype}) is "
                    f"not mapped to {self.device.spec.name!r}"
                )
            return entry.device_ptr

    @property
    def num_present(self) -> int:
        with self._lock:
            return len(self._entries)

    def refcount(self, array: np.ndarray) -> int:
        """The array's current structured-region reference count."""
        with self._lock:
            entry = self._entries.get(_host_key(array))
            return entry.refcount if entry else 0

    # --- structured mapping ----------------------------------------------------
    def begin(self, maps: Sequence[Tuple[np.ndarray, str]]) -> List[DevicePointer]:
        """Enter a structured data region (``target data`` / implicit maps)."""
        pointers: List[DevicePointer] = []
        with self._lock:
            for array, kind in maps:
                kind = MapType.validate(kind)
                key = _host_key(array)
                entry = self._entries.get(key)
                if entry is None:
                    ptr = self.device.allocator.malloc(array.nbytes)
                    entry = MapEntry(ptr, 0, array.nbytes, array)
                    self._entries[key] = entry
                    if kind in (MapType.TO, MapType.TOFROM):
                        self.device.allocator.memcpy_h2d(ptr, array)
                entry.refcount += 1
                pointers.append(entry.device_ptr)
        return pointers

    def end(self, maps: Sequence[Tuple[np.ndarray, str]]) -> None:
        """Exit a structured data region; transfer/free on the last reference."""
        with self._lock:
            for array, kind in maps:
                kind = MapType.validate(kind)
                key = _host_key(array)
                entry = self._entries.get(key)
                if entry is None:
                    raise MappingError(
                        f"unmatched data-region end for array shape={array.shape}"
                    )
                entry.refcount -= 1
                if entry.refcount == 0:
                    if kind in (MapType.FROM, MapType.TOFROM):
                        self.device.allocator.memcpy_d2h(entry.host_array, entry.device_ptr)
                    self.device.allocator.free(entry.device_ptr)
                    del self._entries[key]

    # --- target update ------------------------------------------------------------
    def update_to(self, array: np.ndarray) -> None:
        """``target update to(array)`` — refresh the device copy."""
        with self._lock:
            self.device.allocator.memcpy_h2d(self.lookup(array), array)

    def update_from(self, array: np.ndarray) -> None:
        """``target update from(array)`` — refresh the host copy."""
        with self._lock:
            self.device.allocator.memcpy_d2h(array, self.lookup(array))

    # --- unstructured --------------------------------------------------------------
    def enter_data(self, maps: Sequence[Tuple[np.ndarray, str]]) -> None:
        """``target enter data`` (map types ``to``/``alloc``)."""
        for _, kind in maps:
            if kind not in (MapType.TO, MapType.ALLOC, MapType.TOFROM):
                raise MappingError(f"target enter data cannot take map type {kind!r}")
        self.begin(maps)

    def exit_data(self, maps: Sequence[Tuple[np.ndarray, str]]) -> None:
        """``target exit data`` (map types ``from``/``release``/``delete``)."""
        with self._lock:
            for array, kind in maps:
                key = _host_key(array)
                entry = self._entries.get(key)
                if entry is None:
                    if kind == MapType.DELETE:
                        continue
                    raise MappingError(
                        f"target exit data: array shape={array.shape} is not present"
                    )
                if kind == MapType.DELETE:
                    self.device.allocator.free(entry.device_ptr)
                    del self._entries[key]
                    continue
                if kind not in (MapType.FROM, MapType.RELEASE):
                    raise MappingError(f"target exit data cannot take map type {kind!r}")
                entry.refcount -= 1
                if entry.refcount == 0:
                    if kind == MapType.FROM:
                        self.device.allocator.memcpy_d2h(entry.host_array, entry.device_ptr)
                    self.device.allocator.free(entry.device_ptr)
                    del self._entries[key]

    def reset(self) -> None:
        """Drop all entries without transfers (test isolation)."""
        with self._lock:
            for entry in self._entries.values():
                self.device.allocator.free(entry.device_ptr)
            self._entries.clear()


# One environment per device, lazily created.
_environments: Dict[int, DeviceDataEnvironment] = {}
_env_lock = threading.Lock()


def data_environment(device: Device) -> DeviceDataEnvironment:
    """The (singleton) device data environment of ``device``."""
    with _env_lock:
        env = _environments.get(device.ordinal)
        if env is None or env.device is not device:
            env = DeviceDataEnvironment(device)
            _environments[device.ordinal] = env
        return env


class TargetData:
    """``#pragma omp target data map(...)`` as a context manager."""

    def __init__(self, device: Device, maps: Iterable[Tuple[np.ndarray, str]]) -> None:
        self.device = device
        self.maps = list(maps)
        self.env = data_environment(device)
        self.pointers: List[DevicePointer] = []

    def __enter__(self) -> "TargetData":
        self.pointers = self.env.begin(self.maps)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.env.end(self.maps)

    def device_ptr(self, array: np.ndarray) -> DevicePointer:
        """Device pointer of a mapped host array."""
        return self.env.lookup(array)


# --- API-style management (§2.6 "APIs such as omp_target_alloc") -------------

def omp_target_alloc(size: int, device: Device) -> DevicePointer:
    """Explicit device allocation (not entered in the data environment)."""
    return device.allocator.malloc(size)


def omp_target_free(ptr: DevicePointer, device: Device) -> None:
    """Release memory obtained from ``omp_target_alloc``."""
    device.allocator.free(ptr)


def omp_target_memcpy(
    dst,
    src,
    length: int,
    dst_offset: int = 0,
    src_offset: int = 0,
    dst_device: Optional[Device] = None,
    src_device: Optional[Device] = None,
) -> None:
    """``omp_target_memcpy``: any combination of host arrays / device pointers.

    A ``None`` device marks that side as the host (the initial device);
    a device pointer's side must name the device that owns it.  Offsets
    and ``length`` are in bytes.  The bytes move through the copy routine
    every host API shares (:func:`repro.gpu.host.copy_bytes`), so a pair
    on two devices takes the peer path.
    """
    for side, what, ptr, device in (("dst", "destination", dst, dst_device),
                                    ("src", "source", src, src_device)):
        if not isinstance(ptr, DevicePointer):
            continue
        if device is None:
            raise MappingError(f"device {what} requires {side}_device")
        if device.ordinal != ptr.device_ordinal:
            raise MappingError(
                f"omp_target_memcpy: {side} pointer belongs to device "
                f"{ptr.device_ordinal}, not device {device.ordinal}"
            )

    if isinstance(dst, DevicePointer):
        dst_at = dst + dst_offset
    else:
        dst_at = dst.view(np.uint8).reshape(-1)[dst_offset : dst_offset + length]
    if isinstance(src, DevicePointer):
        src_at = src + src_offset
    else:
        host = np.ascontiguousarray(src).view(np.uint8).reshape(-1)
        src_at = host[src_offset : src_offset + length]
    if direction(dst_at, src_at) == "h2h":
        dst_at[:] = src_at
    else:
        device = dst_device if isinstance(dst, DevicePointer) else src_device
        copy_bytes(dst_at, src_at, length, device)


def omp_target_is_present(array: np.ndarray, device: Device) -> bool:
    """``omp_target_is_present``: query the device data environment."""
    return data_environment(device).is_present(array)
