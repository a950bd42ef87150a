"""The vendor host runtime API (``cudaMalloc``/``hipMalloc``, streams, events).

The subset Figure 1 of the paper uses, plus the stream/event and peer
APIs §2.4 describes.  HIP mirrors CUDA's host API one-for-one, so both
are one :class:`_VendorRuntime`: :mod:`repro.cuda` binds its ``cuda*``
names to a ``("cuda", 0)`` instance and :mod:`repro.hip` binds its
``hip*`` names to a ``("hip", 1)`` instance.  Each instance keeps its own
per-thread current device (ordinal 0 is the A100 preset, 1 the MI250),
which every call defaults to and ``cudaSetDevice``/``hipSetDevice``
moves; the prefix spells its trace labels and peer-copy errors.  The
``__constant__`` symbol and occupancy calls are CUDA-only.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

import numpy as np

from ..errors import GpuError, LaunchError
from ..gpu.device import Device, Placement, get_device, resolve_placement
from ..gpu.dim import DimLike
from ..gpu.launch import LaunchConfig, launch_kernel
from ..gpu.memory import DevicePointer, MemcpyKind, memcpy_peer, peer_copy
from ..gpu.stream import Event, Stream
from .kernel import KernelFunction

__all__ = [
    "cudaMalloc",
    "cudaFree",
    "cudaMemcpy",
    "cudaMemcpyAsync",
    "cudaMemcpyPeer",
    "cudaMemcpyPeerAsync",
    "cudaDeviceCanAccessPeer",
    "cudaDeviceEnablePeerAccess",
    "cudaDeviceDisablePeerAccess",
    "cudaMemset",
    "cudaMemcpyToSymbol",
    "cudaMemcpyFromSymbol",
    "cudaDeviceSynchronize",
    "cudaDeviceReset",
    "cudaSetDevice",
    "cudaGetDevice",
    "cudaStreamCreate",
    "cudaStreamDestroy",
    "cudaStreamSynchronize",
    "cudaEventCreate",
    "cudaEventRecord",
    "cudaEventSynchronize",
    "cudaOccupancyMaxActiveBlocksPerMultiprocessor",
    "cudaMemcpyHostToDevice",
    "cudaMemcpyDeviceToHost",
    "cudaMemcpyDeviceToDevice",
    "current_cuda_device",
]

cudaMemcpyHostToDevice = MemcpyKind.HOST_TO_DEVICE
cudaMemcpyDeviceToHost = MemcpyKind.DEVICE_TO_HOST
cudaMemcpyDeviceToDevice = MemcpyKind.DEVICE_TO_DEVICE

#: Short direction tags for trace spans (matches the ompx host API's).
_TRACE_DIRECTION = {
    MemcpyKind.HOST_TO_DEVICE: "h2d",
    MemcpyKind.DEVICE_TO_HOST: "d2h",
    MemcpyKind.DEVICE_TO_DEVICE: "d2d",
    MemcpyKind.HOST_TO_HOST: "h2h",
}


def _do_memcpy(device: Device, dst, src, count: int, kind: str) -> None:
    alloc = device.allocator
    if kind == MemcpyKind.HOST_TO_DEVICE:
        host = np.ascontiguousarray(src).view(np.uint8).reshape(-1)[:count]
        alloc.memcpy_h2d(dst, host)
    elif kind == MemcpyKind.DEVICE_TO_HOST:
        host = dst.view(np.uint8).reshape(-1)[:count]
        alloc.memcpy_d2h(host, src)
    elif kind == MemcpyKind.DEVICE_TO_DEVICE:
        # cudaMemcpyDefault-style inference on the pointers themselves:
        # a cross-device pair routes through the peer path rather than
        # faulting on the current device's allocator.
        if (isinstance(dst, DevicePointer) and isinstance(src, DevicePointer)
                and dst.device_ordinal != src.device_ordinal):
            memcpy_peer(dst, src, count)
        else:
            alloc.memcpy_d2d(dst, src, count)
    else:
        raise GpuError(f"unsupported memcpy kind {kind!r}")


def _validate_peer_args(api: str, dst: DevicePointer, dst_device: Placement,
                        src: DevicePointer, src_device: Placement) -> None:
    """Catch the classic peer-copy porting bug: wrong device ordinals."""
    dst_ord = resolve_placement(dst_device).ordinal
    src_ord = resolve_placement(src_device).ordinal
    if dst_ord != dst.device_ordinal:
        raise GpuError(
            f"{api}: dst pointer belongs to device {dst.device_ordinal}, "
            f"not device {dst_ord}"
        )
    if src_ord != src.device_ordinal:
        raise GpuError(
            f"{api}: src pointer belongs to device {src.device_ordinal}, "
            f"not device {src_ord}"
        )


class _VendorRuntime:
    """One vendor's host runtime: a per-thread current device and the
    host calls that default to it.

    ``prefix`` (``"cuda"`` or ``"hip"``) spells the API names that trace
    spans and peer-copy errors carry; ``default_ordinal`` is the current
    device of a thread that never selected one.  Each method's docstring
    names its call without the prefix: ``Malloc`` is ``cudaMalloc`` on
    the CUDA instance and ``hipMalloc`` on the HIP one.
    """

    def __init__(self, prefix: str, default_ordinal: int) -> None:
        self.prefix = prefix
        self.default_ordinal = default_ordinal
        self._state = threading.local()

    # --- device selection -------------------------------------------------
    def current_device(self) -> Device:
        """The calling thread's current device."""
        return get_device(self.get_device())

    def set_device(self, device: Placement) -> None:
        """``SetDevice``: select this thread's current device.

        Accepts an ordinal, a :class:`Device`, or ``None`` (reset to the
        default ordinal) — the library-wide placement contract.
        """
        if device is None:
            self._state.ordinal = self.default_ordinal
            return
        self._state.ordinal = resolve_placement(device).ordinal

    def get_device(self) -> int:
        """``GetDevice``: ordinal of this thread's current device."""
        return getattr(self._state, "ordinal", self.default_ordinal)

    # --- launch -----------------------------------------------------------
    def launch(
        self,
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
        """``kern<<<grid, block, shared_bytes, stream>>>(*args)``.

        Asynchronous: returns as soon as the work is enqueued, the
        behaviour the paper contrasts with OpenMP's synchronous ``target``
        in §2.3.  Synchronize with ``DeviceSynchronize``/
        ``StreamSynchronize`` before reading results on the host (Figure
        1's ``cudaDeviceSynchronize`` call).
        ``device`` defaults to the caller's current device, like the
        chevron syntax.
        """
        if not isinstance(kern, KernelFunction):
            raise LaunchError(
                f"launch() needs a @kernel-decorated function, got {kern!r}; "
                f"plain Python functions cannot be __global__ entry points"
            )
        device = resolve_placement(device, default=self.current_device)
        config = LaunchConfig.create(
            grid, block, shared_bytes,
            stream=stream if stream is not None else device.default_stream,
            engine=engine,
        )
        launch_kernel(config, kern.entry, tuple(args), device, synchronous=False)

    # --- memory -----------------------------------------------------------
    def malloc(self, size: int) -> DevicePointer:
        """``Malloc``: allocate ``size`` bytes of device global memory."""
        return self.current_device().allocator.malloc(size)

    def free(self, ptr: DevicePointer) -> None:
        """``Free``: release device memory."""
        self.current_device().allocator.free(ptr)

    def memcpy(self, dst, src, count: int, kind: str) -> None:
        """``Memcpy``: synchronous copy; drains the default stream first.

        ``dst``/``src`` are :class:`DevicePointer` or NumPy arrays
        depending on ``kind``.  ``count`` is in bytes.
        """
        device = self.current_device()
        device.default_stream.synchronize()
        _do_memcpy(device, dst, src, count, kind)

    def memcpy_async(self, dst, src, count: int, kind: str,
                     stream: Stream) -> None:
        """``MemcpyAsync``: enqueue a copy on ``stream``; returns at once."""
        device = self.current_device()
        stream.enqueue(
            lambda: _do_memcpy(device, dst, src, count, kind),
            label=f"{self.prefix}MemcpyAsync",
            trace_cat="memcpy",
            trace_args={"bytes": int(count),
                        "direction": _TRACE_DIRECTION.get(kind, str(kind))},
        )

    def memcpy_peer(
        self,
        dst: DevicePointer,
        dst_device: Placement,
        src: DevicePointer,
        src_device: Placement,
        count: int,
    ) -> None:
        """``MemcpyPeer``: copy ``count`` bytes between two devices.

        Works whether or not peer access is enabled (as on real CUDA); the
        modeled cost is a direct-link DMA when it is, a staged-through-host
        round trip when it is not.
        """
        api = f"{self.prefix}MemcpyPeer"
        _validate_peer_args(api, dst, dst_device, src, src_device)
        peer_copy(dst, src, count, api=api)

    def memcpy_peer_async(
        self,
        dst: DevicePointer,
        dst_device: Placement,
        src: DevicePointer,
        src_device: Placement,
        count: int,
        stream: Stream,
    ) -> None:
        """``MemcpyPeerAsync``: enqueue a peer copy on ``stream``."""
        api = f"{self.prefix}MemcpyPeerAsync"
        _validate_peer_args(api, dst, dst_device, src, src_device)
        stream.enqueue(
            lambda: peer_copy(dst, src, count, api=api),
            label=api,
            trace_cat="memcpy",
            trace_args={"bytes": int(count), "direction": "p2p",
                        "src_device": src.device_ordinal,
                        "dst_device": dst.device_ordinal},
        )

    def device_can_access_peer(self, device: Placement,
                               peer: Placement) -> bool:
        """``DeviceCanAccessPeer``: does a direct interconnect exist?"""
        return resolve_placement(device).can_access_peer(peer)

    def device_enable_peer_access(self, peer: Placement) -> None:
        """``DeviceEnablePeerAccess``: map ``peer``'s memory into the
        current device's address space (directional, as on hardware)."""
        self.current_device().enable_peer_access(peer)

    def device_disable_peer_access(self, peer: Placement) -> None:
        """``DeviceDisablePeerAccess``: unmap ``peer``'s memory."""
        self.current_device().disable_peer_access(peer)

    def memset(self, ptr: DevicePointer, value: int, count: int) -> None:
        """``Memset``: fill device memory with a byte value."""
        device = self.current_device()
        device.default_stream.synchronize()
        device.allocator.memset(ptr, value, count)

    # --- device, streams and events ---------------------------------------
    def device_synchronize(self) -> None:
        """``DeviceSynchronize``: block until every stream of the current
        device is idle."""
        self.current_device().synchronize()

    def device_reset(self) -> None:
        """``DeviceReset``: destroy the current device's context.

        Streams, allocations and constant symbols are torn down and the
        sticky error (if the context was poisoned by a kernel fault) is
        cleared; the next API call re-initializes a fresh context.
        """
        self.current_device().reset()

    def stream_create(self, name: str = "") -> Stream:
        """``StreamCreate``: new asynchronous work queue."""
        return Stream(self.current_device(), name=name)

    def stream_destroy(self, stream: Stream) -> None:
        """``StreamDestroy``: drain and close a stream."""
        stream.synchronize()
        stream.close()

    def stream_synchronize(self, stream: Stream) -> None:
        """``StreamSynchronize``: wait for a stream to drain."""
        stream.synchronize()

    def event_create(self, name: str = "") -> Event:
        """``EventCreate``: new event marker."""
        return Event(name)

    def event_record(self, event: Event,
                     stream: Optional[Stream] = None) -> None:
        """``EventRecord``: enqueue an event record on a stream (default:
        the current device's default stream)."""
        (stream or self.current_device().default_stream).record_event(event)

    def event_synchronize(self, event: Event) -> None:
        """``EventSynchronize``: host-wait for an event.

        A synchronization point: re-raises (and clears) a sticky error
        captured by earlier work on the stream that recorded the event.
        """
        event.synchronize()


_cuda = _VendorRuntime("cuda", 0)  # the NVIDIA A100 preset

current_cuda_device = _cuda.current_device
cudaSetDevice = _cuda.set_device
cudaGetDevice = _cuda.get_device
launch = _cuda.launch
cudaMalloc = _cuda.malloc
cudaFree = _cuda.free
cudaMemcpy = _cuda.memcpy
cudaMemcpyAsync = _cuda.memcpy_async
cudaMemcpyPeer = _cuda.memcpy_peer
cudaMemcpyPeerAsync = _cuda.memcpy_peer_async
cudaDeviceCanAccessPeer = _cuda.device_can_access_peer
cudaDeviceEnablePeerAccess = _cuda.device_enable_peer_access
cudaDeviceDisablePeerAccess = _cuda.device_disable_peer_access
cudaMemset = _cuda.memset
cudaDeviceSynchronize = _cuda.device_synchronize
cudaDeviceReset = _cuda.device_reset
cudaStreamCreate = _cuda.stream_create
cudaStreamDestroy = _cuda.stream_destroy
cudaStreamSynchronize = _cuda.stream_synchronize
cudaEventCreate = _cuda.event_create
cudaEventRecord = _cuda.event_record
cudaEventSynchronize = _cuda.event_synchronize


def cudaMemcpyToSymbol(symbol: str, src) -> None:  # noqa: N802
    """Upload a ``__constant__`` symbol (kernels read it via t.constant)."""
    device = current_cuda_device()
    device.default_stream.synchronize()
    device.write_constant(symbol, src)


def cudaMemcpyFromSymbol(dst: np.ndarray, symbol: str) -> None:  # noqa: N802
    """Read a ``__constant__`` symbol back to the host."""
    device = current_cuda_device()
    device.default_stream.synchronize()
    np.copyto(dst, device.read_constant(symbol).reshape(dst.shape))


def cudaOccupancyMaxActiveBlocksPerMultiprocessor(  # noqa: N802
    kernel, block_threads: int, shared_bytes: int = 0
) -> int:
    """Resident blocks per SM for a kernel at a block size (driver query)."""
    from ..compiler.compile import compile_kernel
    from ..perf.occupancy import compute_occupancy

    spec = current_cuda_device().spec
    compiled = compile_kernel(kernel, spec, shared_bytes=shared_bytes)
    info = compute_occupancy(spec, block_threads, compiled.registers,
                             compiled.effective_shared_bytes)
    return info.blocks_per_sm
