"""HIP kernel-language layer — the paper's "native" baseline on AMD.

HIP deliberately mirrors CUDA's API one-for-one (that is its pitch), so
this layer renames the CUDA layer and re-targets it at the MI250 preset
(device ordinal 1, 64-wide wavefronts).  Kernels use the same
:class:`~repro.cuda.CudaThread` façade — ``threadIdx`` etc. are spelled
identically in HIP source.

``hipLaunchKernelGGL`` is provided alongside the chevron-equivalent
:func:`launch` because HeCBench's HIP ports use both styles.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

import numpy as np

from ..cuda.builtins import FULL_MASK, CudaThread
from ..cuda.kernel import KernelFunction
from ..cuda.runtime import _TRACE_DIRECTION, _do_memcpy, _validate_peer_args
from ..errors import LaunchError
from ..gpu.device import Device, Placement, get_device, resolve_placement
from ..gpu.dim import DimLike
from ..gpu.launch import LaunchConfig, launch_kernel
from ..gpu.memory import DevicePointer, MemcpyKind, peer_copy
from ..gpu.stream import Event, Stream

__all__ = [
    "FULL_MASK",
    "HipThread",
    "kernel",
    "launch",
    "hipLaunchKernelGGL",
    "hipMalloc",
    "hipFree",
    "hipMemcpy",
    "hipMemcpyAsync",
    "hipMemcpyPeer",
    "hipMemcpyPeerAsync",
    "hipDeviceCanAccessPeer",
    "hipDeviceEnablePeerAccess",
    "hipDeviceDisablePeerAccess",
    "hipMemset",
    "hipDeviceSynchronize",
    "hipDeviceReset",
    "hipSetDevice",
    "hipGetDevice",
    "hipStreamCreate",
    "hipStreamDestroy",
    "hipStreamSynchronize",
    "hipEventCreate",
    "hipEventRecord",
    "hipEventSynchronize",
    "hipMemcpyHostToDevice",
    "hipMemcpyDeviceToHost",
    "hipMemcpyDeviceToDevice",
    "current_hip_device",
]

# HIP device code is textually CUDA device code; the façade is shared.
HipThread = CudaThread

hipMemcpyHostToDevice = MemcpyKind.HOST_TO_DEVICE
hipMemcpyDeviceToHost = MemcpyKind.DEVICE_TO_HOST
hipMemcpyDeviceToDevice = MemcpyKind.DEVICE_TO_DEVICE

_state = threading.local()
_DEFAULT_ORDINAL = 1  # the AMD MI250 preset


def current_hip_device() -> Device:
    """The calling thread's current HIP device (default: MI250)."""
    return get_device(getattr(_state, "ordinal", _DEFAULT_ORDINAL))


def hipSetDevice(device: Placement) -> None:  # noqa: N802 - HIP spelling
    """``hipSetDevice``: select this thread's current HIP device.

    Accepts an ordinal, a :class:`Device`, or ``None`` (reset to the
    default HIP ordinal) — the library-wide placement contract.
    """
    if device is None:
        _state.ordinal = _DEFAULT_ORDINAL
        return
    _state.ordinal = resolve_placement(device).ordinal


def hipGetDevice() -> int:  # noqa: N802
    """``hipGetDevice``: ordinal of the current HIP device."""
    return getattr(_state, "ordinal", _DEFAULT_ORDINAL)


def kernel(fn=None, *, sync_free: bool = False, vectorize: bool = False):
    """``__global__`` for HIP; same semantics as :func:`repro.cuda.kernel`."""
    from ..cuda.kernel import kernel as cuda_kernel

    return cuda_kernel(fn, sync_free=sync_free, language="hip", vectorize=vectorize)


def launch(
    kern: KernelFunction,
    grid: DimLike,
    block: DimLike,
    args: Sequence = (),
    *,
    device: Placement = None,
    shared_bytes: int = 0,
    stream: Optional[Stream] = None,
    engine: Optional[str] = None,
) -> None:
    """Chevron-style launch targeting the current HIP device by default."""
    if not isinstance(kern, KernelFunction):
        raise LaunchError(f"launch() needs a @kernel-decorated function, got {kern!r}")
    device = resolve_placement(device, default=current_hip_device)
    config = LaunchConfig.create(
        grid, block, shared_bytes,
        stream=stream if stream is not None else device.default_stream,
        engine=engine,
    )
    launch_kernel(config, kern.entry, tuple(args), device, synchronous=False)


def hipLaunchKernelGGL(  # noqa: N802
    kern: KernelFunction,
    grid: DimLike,
    block: DimLike,
    shared_bytes: int,
    stream: Optional[Stream],
    *args,
) -> None:
    """HIP's macro-style launch: geometry first, then kernel arguments."""
    launch(kern, grid, block, args, shared_bytes=shared_bytes, stream=stream)


def hipMalloc(size: int) -> DevicePointer:  # noqa: N802
    """``hipMalloc``: allocate device global memory."""
    return current_hip_device().allocator.malloc(size)


def hipFree(ptr: DevicePointer) -> None:  # noqa: N802
    """``hipFree``: release device memory."""
    current_hip_device().allocator.free(ptr)


def hipMemcpy(dst, src, count: int, kind: str) -> None:  # noqa: N802
    """``hipMemcpy``: synchronous byte copy (kind selects direction)."""
    device = current_hip_device()
    device.default_stream.synchronize()
    _do_memcpy(device, dst, src, count, kind)


def hipMemcpyAsync(dst, src, count: int, kind: str, stream: Stream) -> None:  # noqa: N802
    """``hipMemcpyAsync``: enqueue a copy on a stream."""
    device = current_hip_device()
    stream.enqueue(
        lambda: _do_memcpy(device, dst, src, count, kind),
        label="hipMemcpyAsync",
        trace_cat="memcpy",
        trace_args={"bytes": int(count),
                    "direction": _TRACE_DIRECTION.get(kind, str(kind))},
    )


def hipMemcpyPeer(  # noqa: N802
    dst: DevicePointer,
    dst_device: Placement,
    src: DevicePointer,
    src_device: Placement,
    count: int,
) -> None:
    """``hipMemcpyPeer``: copy ``count`` bytes between two devices."""
    _validate_peer_args("hipMemcpyPeer", dst, dst_device, src, src_device)
    peer_copy(dst, src, count, api="hipMemcpyPeer")


def hipMemcpyPeerAsync(  # noqa: N802
    dst: DevicePointer,
    dst_device: Placement,
    src: DevicePointer,
    src_device: Placement,
    count: int,
    stream: Stream,
) -> None:
    """``hipMemcpyPeerAsync``: enqueue a peer copy on ``stream``."""
    _validate_peer_args("hipMemcpyPeerAsync", dst, dst_device, src, src_device)
    stream.enqueue(
        lambda: peer_copy(dst, src, count, api="hipMemcpyPeerAsync"),
        label="hipMemcpyPeerAsync",
        trace_cat="memcpy",
        trace_args={"bytes": int(count), "direction": "p2p",
                    "src_device": src.device_ordinal,
                    "dst_device": dst.device_ordinal},
    )


def hipDeviceCanAccessPeer(device: Placement, peer: Placement) -> bool:  # noqa: N802
    """``hipDeviceCanAccessPeer``: does a direct interconnect exist?"""
    return resolve_placement(device).can_access_peer(peer)


def hipDeviceEnablePeerAccess(peer: Placement) -> None:  # noqa: N802
    """``hipDeviceEnablePeerAccess``: map ``peer``'s memory into the
    current HIP device's address space (directional, like ROCm)."""
    current_hip_device().enable_peer_access(peer)


def hipDeviceDisablePeerAccess(peer: Placement) -> None:  # noqa: N802
    """``hipDeviceDisablePeerAccess``: unmap ``peer``'s memory."""
    current_hip_device().disable_peer_access(peer)


def hipMemset(ptr: DevicePointer, value: int, count: int) -> None:  # noqa: N802
    """``hipMemset``: fill device memory with a byte value."""
    device = current_hip_device()
    device.default_stream.synchronize()
    device.allocator.memset(ptr, value, count)


def hipDeviceSynchronize() -> None:  # noqa: N802
    """``hipDeviceSynchronize``: drain all streams of the device."""
    current_hip_device().synchronize()


def hipDeviceReset() -> None:  # noqa: N802
    """``hipDeviceReset``: destroy and re-arm the current device's context."""
    current_hip_device().reset()


def hipStreamCreate(name: str = "") -> Stream:  # noqa: N802
    """``hipStreamCreate``: new asynchronous work queue."""
    return Stream(current_hip_device(), name=name)


def hipStreamDestroy(stream: Stream) -> None:  # noqa: N802
    """``hipStreamDestroy``: drain and close a stream."""
    stream.synchronize()
    stream.close()


def hipStreamSynchronize(stream: Stream) -> None:  # noqa: N802
    """``hipStreamSynchronize``: wait for a stream to drain."""
    stream.synchronize()


def hipEventCreate(name: str = "") -> Event:  # noqa: N802
    """``hipEventCreate``: new event marker."""
    return Event(name)


def hipEventRecord(event: Event, stream: Optional[Stream] = None) -> None:  # noqa: N802
    """``hipEventRecord``: enqueue an event record on a stream."""
    (stream or current_hip_device().default_stream).record_event(event)


def hipEventSynchronize(event: Event) -> None:  # noqa: N802
    """``hipEventSynchronize``: host-wait for an event.

    A synchronization point: re-raises (and clears) a sticky error
    captured by earlier work on the stream that recorded the event.
    """
    event.synchronize()
