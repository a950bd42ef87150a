"""The CUDA/HIP host runtime API (``cudaMalloc``/``hipMalloc``, streams, events).

The subset Figure 1 of the paper uses, plus the stream/event and peer
APIs §2.4 describes.  Every host operation the ompx API shares with
CUDA and HIP (memory, copies, peer access, synchronization, constant
symbols, the occupancy query) is implemented once, below every front
end, in :class:`repro.gpu.host.HostRuntime`.  :class:`_VendorRuntime`
subclasses it with what only CUDA and HIP have: a per-thread current
device, ``launch``, the memcpy-kind forms (``Memcpy``, ``MemcpyAsync``,
``MemcpyPeerAsync``), stream objects and events.

HIP mirrors CUDA's host API one-for-one, so :mod:`repro.cuda` binds its
``cuda*`` names to a ``("cuda", 0)`` instance and :mod:`repro.hip` binds
its ``hip*`` names to a ``("hip", 1)`` instance.  Each instance keeps its
own per-thread current device (ordinal 0 is the A100 preset, 1 the
MI250), which every call defaults to and ``cudaSetDevice``/
``hipSetDevice`` moves; the prefix spells its trace spans and errors.
A name bound to a shared method also takes that method's ``device=``
(and, where ompx has it, ``stream=``) keyword.  :mod:`repro.hip` binds
no ``__constant__`` symbol or occupancy call.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from ..errors import GpuError, LaunchError
from ..gpu.device import Device, Placement, get_device, resolve_placement
from ..gpu.dim import DimLike
from ..gpu.host import HostRuntime
from ..gpu.launch import LaunchConfig, launch_kernel
from ..gpu.memory import DevicePointer, MemcpyKind
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

#: Whether (dst, src) is device memory, for each memcpy kind.
_KIND_OPERANDS = {
    MemcpyKind.HOST_TO_DEVICE: (True, False),
    MemcpyKind.DEVICE_TO_HOST: (False, True),
    MemcpyKind.DEVICE_TO_DEVICE: (True, True),
    MemcpyKind.HOST_TO_HOST: (False, False),
}


class _VendorRuntime(HostRuntime):
    """A vendor's host runtime: the shared host calls, a per-thread current
    device they default to, and the calls only CUDA and HIP have.

    ``prefix`` (``"cuda"`` or ``"hip"``) spells the call names that trace
    spans and errors carry; ``default_ordinal`` is the current device of
    a thread that never selected one.  Each method's docstring names its
    call without the prefix: ``Memcpy`` is ``cudaMemcpy`` on the CUDA
    instance and ``hipMemcpy`` on the HIP one.
    """

    def __init__(self, prefix: str, default_ordinal: int) -> None:
        super().__init__(prefix)
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
        device = self.resolve_device(device)
        config = LaunchConfig.create(
            grid, block, shared_bytes,
            stream=stream if stream is not None else device.default_stream,
            engine=engine,
        )
        launch_kernel(config, kern, tuple(args), device, synchronous=False)

    # --- the memcpy-kind forms --------------------------------------------
    def _check_kind(self, call: str, dst, src, kind: str) -> None:
        """Refuse a memcpy kind that is unknown or contradicts the operands."""
        want = _KIND_OPERANDS.get(kind)
        if want is None:
            raise GpuError(f"{self.name(call)}: unsupported memcpy kind {kind!r}")
        got = (isinstance(dst, DevicePointer), isinstance(src, DevicePointer))
        if got != want:
            dst_mem, src_mem = ("device" if on else "host" for on in got)
            raise GpuError(
                f"{self.name(call)}: memcpy kind {kind!r} contradicts the "
                f"operands (dst is {dst_mem} memory, src is {src_mem} memory)"
            )

    def memcpy_kind(self, dst, src, count: int, kind: str) -> None:
        """``Memcpy``: synchronous copy; drains the default stream first.

        ``dst``/``src`` are :class:`DevicePointer` or NumPy arrays, as
        ``kind`` says; ``count`` is in bytes.  The copy itself is the
        shared ``memcpy``, so a device pair goes through the pointers'
        own devices whichever device is current.
        """
        self._check_kind("memcpy", dst, src, kind)
        self.memcpy(dst, src, count)

    def memcpy_async(self, dst, src, count: int, kind: str,
                     stream: Stream) -> None:
        """``MemcpyAsync``: enqueue a copy on ``stream``; returns at once."""
        self._check_kind("memcpy_async", dst, src, kind)
        self._memcpy(dst, src, count, None, stream, "memcpy_async")

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
        self._memcpy_peer(dst, dst_device, src, src_device, count, stream,
                          "memcpy_peer_async")

    # --- streams and events -----------------------------------------------
    def stream_create(self, name: str = "") -> Stream:
        """``StreamCreate``: new asynchronous work queue on the current
        device."""
        return Stream(self.current_device(), name=name)

    def stream_destroy(self, stream: Stream) -> None:
        """``StreamDestroy``: drain and close a stream."""
        stream.synchronize()
        stream.close()

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
cudaMemcpy = _cuda.memcpy_kind
cudaMemcpyAsync = _cuda.memcpy_async
cudaMemcpyPeer = _cuda.memcpy_peer
cudaMemcpyPeerAsync = _cuda.memcpy_peer_async
cudaDeviceCanAccessPeer = _cuda.device_can_access_peer
cudaDeviceEnablePeerAccess = _cuda.device_enable_peer_access
cudaDeviceDisablePeerAccess = _cuda.device_disable_peer_access
cudaMemset = _cuda.memset
cudaMemcpyToSymbol = _cuda.memcpy_to_symbol
cudaMemcpyFromSymbol = _cuda.memcpy_from_symbol
cudaDeviceSynchronize = _cuda.device_synchronize
cudaDeviceReset = _cuda.device_reset
cudaStreamCreate = _cuda.stream_create
cudaStreamDestroy = _cuda.stream_destroy
cudaStreamSynchronize = _cuda.stream_synchronize
cudaEventCreate = _cuda.event_create
cudaEventRecord = _cuda.event_record
cudaEventSynchronize = _cuda.event_synchronize
cudaOccupancyMaxActiveBlocksPerMultiprocessor = _cuda.occupancy_max_active_blocks
