"""HIP kernel-language layer — the paper's "native" baseline on AMD.

HIP deliberately mirrors CUDA's API one-for-one (that is its pitch), so
this layer binds the CUDA layer under HIP names: every ``hip*`` host
call with a ``cuda*`` twin, :func:`launch` and :func:`current_hip_device`
are methods of the vendor runtime in :mod:`repro.cuda.runtime` (itself
the host runtime every front end shares, :mod:`repro.gpu.host`, plus the
CUDA/HIP-only calls), bound to a HIP instance.  That instance spells its
trace spans and errors ``hip*`` and keeps its own per-thread current
device, which defaults to the MI250 preset (ordinal 1, 64-wide
wavefronts).  Kernels use the same :class:`~repro.cuda.CudaThread`
façade — ``threadIdx`` etc. are spelled identically in HIP source.  This
layer binds no ``__constant__`` symbol or occupancy call.

``hipLaunchKernelGGL`` is provided alongside the chevron-equivalent
:func:`launch` because HeCBench's HIP ports use both styles.
"""

from __future__ import annotations

from typing import Optional

from ..cuda.builtins import FULL_MASK, CudaThread
from ..cuda.kernel import KernelFunction
from ..cuda.kernel import kernel as _cuda_kernel
from ..cuda.runtime import _VendorRuntime
from ..gpu.dim import DimLike
from ..gpu.memory import MemcpyKind
from ..gpu.stream import Stream

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

_hip = _VendorRuntime("hip", 1)  # the AMD MI250 preset

current_hip_device = _hip.current_device
hipSetDevice = _hip.set_device
hipGetDevice = _hip.get_device
launch = _hip.launch
hipMalloc = _hip.malloc
hipFree = _hip.free
hipMemcpy = _hip.memcpy_kind
hipMemcpyAsync = _hip.memcpy_async
hipMemcpyPeer = _hip.memcpy_peer
hipMemcpyPeerAsync = _hip.memcpy_peer_async
hipDeviceCanAccessPeer = _hip.device_can_access_peer
hipDeviceEnablePeerAccess = _hip.device_enable_peer_access
hipDeviceDisablePeerAccess = _hip.device_disable_peer_access
hipMemset = _hip.memset
hipDeviceSynchronize = _hip.device_synchronize
hipDeviceReset = _hip.device_reset
hipStreamCreate = _hip.stream_create
hipStreamDestroy = _hip.stream_destroy
hipStreamSynchronize = _hip.stream_synchronize
hipEventCreate = _hip.event_create
hipEventRecord = _hip.event_record
hipEventSynchronize = _hip.event_synchronize


def kernel(fn=None, *, sync_free: bool = False, vectorize: bool = False):
    """``__global__`` for HIP; same semantics as :func:`repro.cuda.kernel`."""
    return _cuda_kernel(fn, sync_free=sync_free, language="hip", vectorize=vectorize)


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
