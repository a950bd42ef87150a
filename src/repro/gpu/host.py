"""The host runtime every front end shares (§3.4).

CUDA host code ports to ompx by renaming (``cudaMalloc`` ->
``ompx_malloc``, Figure 1), and HIP mirrors CUDA one-for-one, so each
host operation is implemented once, here, in :class:`HostRuntime`.
:mod:`repro.ompx.host` binds its ``ompx_*`` names to an ``"ompx_"``
instance; :mod:`repro.cuda.runtime` subclasses it for the CUDA and HIP
instances and adds only what those two APIs alone have.
:func:`copy_bytes` is the one routine a host call moves bytes with,
``omp_target_memcpy`` included.

An instance fixes three things, all of them data:

* its ``prefix``, which spells its call names in trace spans and errors:
  ``"cuda"`` gives ``cudaMemcpyPeer``, ``"ompx_"`` gives
  ``ompx_memcpy_peer``;
* its current device, which every ``device=None`` resolves to
  (:meth:`HostRuntime.current_device`: the library-wide
  :func:`repro.gpu.current_device` here, a per-thread ordinal in the
  vendor subclass);
* ``error``, the class a misused pointer raises.

With tracing on, ``malloc``/``memset``/``device_reset`` record
``host-api`` spans, ``memcpy`` a ``memcpy`` span with ``bytes`` and
``direction``, ``device_synchronize`` a ``sync`` span, and a peer copy
the span of :func:`~repro.gpu.memory.peer_copy`; a call given
``stream=`` is enqueued and traced as that stream's operation instead.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional, Type

import numpy as np

from ..errors import GpuError, ReproError
from ..trace import get_tracer
from .device import Device, Placement, current_device, get_device, resolve_placement
from .memory import DevicePointer, memcpy_peer, peer_copy
from .stream import Stream

__all__ = ["HostRuntime", "copy_bytes", "direction"]


def direction(dst, src) -> str:
    """The copy direction the operands give: ``h2d``, ``d2h``, ``d2d``
    (one device), ``p2p`` (two devices) or ``h2h``.

    A :class:`DevicePointer` is device memory; anything else is host
    memory.  This is also the ``direction`` a ``memcpy`` span records.
    """
    if isinstance(dst, DevicePointer):
        if not isinstance(src, DevicePointer):
            return "h2d"
        return "d2d" if dst.device_ordinal == src.device_ordinal else "p2p"
    return "d2h" if isinstance(src, DevicePointer) else "h2h"


def copy_bytes(dst, src, count: int, device: Device) -> None:
    """Move ``count`` bytes from ``src`` to ``dst``, untraced.

    At least one operand is a :class:`DevicePointer`.  With one host
    operand the copy goes through ``device``'s allocator, so the device
    operand must belong to ``device``.  A device pair goes through the
    pointers' own devices whatever ``device`` is: one device's
    allocator, or :func:`~repro.gpu.memory.memcpy_peer` across two.
    """
    kind = direction(dst, src)
    if kind == "d2d":
        get_device(dst.device_ordinal).allocator.memcpy_d2d(dst, src, count)
    elif kind == "p2p":
        memcpy_peer(dst, src, count)
    elif kind == "h2d":
        host = np.ascontiguousarray(src).view(np.uint8).reshape(-1)[:count]
        device.allocator.memcpy_h2d(dst, host)
    else:
        device.allocator.memcpy_d2h(dst.view(np.uint8).reshape(-1)[:count], src)


def _span(name: str, cat: str, **args):
    """A trace span around a host call, or nothing when tracing is off."""
    tracer = get_tracer()
    return nullcontext() if tracer is None else tracer.span(name, cat=cat, **args)


class HostRuntime:
    """One API's host calls: memory, copies, peer access, device and
    stream synchronization, constant symbols and the occupancy query.

    Each method's docstring names its call without the prefix:
    ``malloc`` is ``ompx_malloc`` on the ompx instance and ``cudaMalloc``
    on the CUDA one (:meth:`name` spells it).  Every call that acts on a
    device takes ``device=None``, its current device by default.
    """

    def __init__(self, prefix: str, error: Type[ReproError] = GpuError) -> None:
        self.prefix = prefix
        self.error = error

    def name(self, call: str) -> str:
        """This API's spelling of ``call`` (``"memcpy_peer"``):
        ``ompx_memcpy_peer`` for a prefix ending in ``_``, else
        ``cudaMemcpyPeer``-style camel case."""
        if self.prefix.endswith("_"):
            return self.prefix + call
        return self.prefix + call.title().replace("_", "")

    def current_device(self) -> Device:
        """The device a call without ``device=`` acts on: the library-wide
        current device."""
        return current_device()

    def resolve_device(self, device: Placement = None) -> Device:
        """``device`` as a :class:`Device`; ``None`` is the current device."""
        return resolve_placement(device, default=self.current_device)

    # --- memory -----------------------------------------------------------
    def malloc(self, size: int, device: Placement = None, *,
               stream: Optional[Stream] = None) -> DevicePointer:
        """``malloc``: allocate ``size`` bytes of device global memory.

        The allocation is immediate (the pointer must be returned), but
        ``stream=`` orders its visibility after the work already queued
        on that stream, like ``cudaMallocAsync``.
        """
        dev = self.resolve_device(device)
        with _span(self.name("malloc"), "host-api", bytes=int(size)):
            ptr = dev.allocator.malloc(size)
        if stream is not None:
            # fence: later stream work sees the allocation
            stream.enqueue(lambda: None, label=self.name("malloc") + "-fence")
        return ptr

    def free(self, ptr: DevicePointer, device: Placement = None) -> None:
        """``free``: release device memory on the pointer's own device,
        which a ``device`` given must name."""
        if device is not None:
            self._check_owner(self.name("free"), "pointer", ptr, device)
        get_device(ptr.device_ordinal).allocator.free(ptr)

    def memcpy(self, dst, src, size: int, device: Placement = None, *,
               stream: Optional[Stream] = None) -> None:
        """``memcpy``: copy ``size`` bytes; the operands give the direction.

        A :class:`DevicePointer` is device memory and a NumPy array host
        memory, so there is no memcpy kind to get wrong.  A device pair
        is copied by the pointers' own devices, across two of them on
        the peer path.  Without ``stream=`` the copy drains the device's
        default stream first and is done when the call returns; with
        one, it is enqueued there (``cudaMemcpyAsync``).
        """
        self._memcpy(dst, src, size, device, stream, "memcpy")

    def _memcpy(self, dst, src, size, device, stream, call) -> None:
        """The copy behind every memcpy form; ``call`` names its span."""
        api = self.name(call)
        args = {"bytes": int(size), "direction": direction(dst, src)}
        if args["direction"] == "h2h":
            raise self.error(
                f"{api} needs at least one device pointer; for host-to-host "
                f"just assign the arrays"
            )
        dev = self.resolve_device(device)
        if stream is not None:
            stream.enqueue(lambda: copy_bytes(dst, src, size, dev),
                           label=api, trace_cat="memcpy", trace_args=args)
            return
        with _span(api, "memcpy", **args):
            dev.default_stream.synchronize()
            copy_bytes(dst, src, size, dev)

    def memset(self, ptr: DevicePointer, value: int, size: int,
               device: Placement = None, *,
               stream: Optional[Stream] = None) -> None:
        """``memset``: fill device memory with a byte value.

        ``stream=`` enqueues the fill (``cudaMemsetAsync``).
        """
        dev = self.resolve_device(device)
        api = self.name("memset")
        if stream is not None:
            stream.enqueue(lambda: dev.allocator.memset(ptr, value, size),
                           label=api, trace_cat="host-api",
                           trace_args={"bytes": int(size)})
            return
        with _span(api, "host-api", bytes=int(size)):
            dev.default_stream.synchronize()
            dev.allocator.memset(ptr, value, size)

    def memcpy_peer(self, dst: DevicePointer, dst_device: Placement,
                    src: DevicePointer, src_device: Placement, size: int, *,
                    stream: Optional[Stream] = None) -> None:
        """``memcpy_peer``: copy ``size`` bytes between two devices.

        The device arguments must name the pointers' owners: a wrong
        ordinal is the classic peer-copy porting bug, caught here.  The
        copy works whether or not peer access is enabled; the modeled
        cost is a direct-link DMA when it is, a round trip staged
        through host memory when it is not.  ``stream=`` enqueues it
        (``cudaMemcpyPeerAsync``).
        """
        self._memcpy_peer(dst, dst_device, src, src_device, size, stream,
                          "memcpy_peer")

    def _memcpy_peer(self, dst, dst_device, src, src_device, size, stream,
                     call) -> None:
        """The owner check and copy behind every peer-copy form."""
        api = self.name(call)
        self._check_owner(api, "dst pointer", dst, dst_device)
        self._check_owner(api, "src pointer", src, src_device)
        if stream is None:
            peer_copy(dst, src, size, api=api)
            return
        stream.enqueue(
            lambda: peer_copy(dst, src, size, api=api),
            label=api, trace_cat="memcpy",
            trace_args={"bytes": int(size), "direction": "p2p",
                        "src_device": src.device_ordinal,
                        "dst_device": dst.device_ordinal},
        )

    def _check_owner(self, api: str, what: str, ptr: DevicePointer,
                     device: Placement) -> None:
        """Raise ``error`` unless ``device`` is the device ``ptr`` belongs to."""
        ordinal = self.resolve_device(device).ordinal
        if ordinal != ptr.device_ordinal:
            raise self.error(
                f"{api}: {what} belongs to device {ptr.device_ordinal}, "
                f"not device {ordinal}"
            )

    def memcpy_to_symbol(self, symbol: str, src,
                         device: Placement = None) -> None:
        """``memcpy_to_symbol``: upload a ``__constant__`` symbol (kernels
        read it via ``t.constant``)."""
        dev = self.resolve_device(device)
        dev.default_stream.synchronize()
        dev.write_constant(symbol, src)

    def memcpy_from_symbol(self, dst: np.ndarray, symbol: str,
                           device: Placement = None) -> None:
        """``memcpy_from_symbol``: read a ``__constant__`` symbol back to
        the host."""
        dev = self.resolve_device(device)
        dev.default_stream.synchronize()
        np.copyto(dst, dev.read_constant(symbol).reshape(dst.shape))

    # --- peer access --------------------------------------------------------
    def device_can_access_peer(self, device: Placement,
                               peer: Placement) -> bool:
        """``device_can_access_peer``: does a direct interconnect exist?"""
        return self.resolve_device(device).can_access_peer(peer)

    def device_enable_peer_access(self, peer: Placement,
                                  device: Placement = None) -> None:
        """``device_enable_peer_access``: map ``peer``'s memory into
        ``device``'s address space.

        Directional, as on hardware: enable both ways for symmetric
        traffic.  Enabling changes the *modeled* cost of peer copies
        from staged-through-host to the direct link.
        """
        self.resolve_device(device).enable_peer_access(peer)

    def device_disable_peer_access(self, peer: Placement,
                                   device: Placement = None) -> None:
        """``device_disable_peer_access``: unmap ``peer``'s memory."""
        self.resolve_device(device).disable_peer_access(peer)

    # --- device and stream synchronization ----------------------------------
    def device_synchronize(self, device: Placement = None) -> None:
        """``device_synchronize``: block until every stream of the device
        is idle."""
        dev = self.resolve_device(device)
        with _span(self.name("device_synchronize"), "sync",
                   device=dev.spec.name):
            dev.synchronize()

    def device_reset(self, device: Placement = None) -> None:
        """``device_reset``: destroy the device's context and re-arm it.

        Streams, allocations and constant symbols are torn down and the
        sticky error a kernel fault left behind is cleared: the only way
        to recover a poisoned context (see
        :class:`~repro.errors.StickyContextError`).  Every outstanding
        :class:`DevicePointer` for the device becomes invalid.
        """
        dev = self.resolve_device(device)
        with _span(self.name("device_reset"), "host-api",
                   device=dev.spec.name):
            dev.reset()

    def stream_synchronize(self, stream: Stream) -> None:
        """``stream_synchronize``: wait for a stream to drain."""
        stream.synchronize()

    # --- occupancy ----------------------------------------------------------
    def occupancy_max_active_blocks(self, kernel, block_threads: int,
                                    shared_bytes: int = 0,
                                    device: Placement = None) -> int:
        """``occupancy_max_active_blocks``: resident blocks per SM for a
        kernel at a block size.

        The kernel is "compiled" by the toolchain model and its register
        count drives the standard occupancy calculation; the Figure 8
        harness uses the same machinery, so the numbers match the model.
        """
        from ..compiler.compile import compile_kernel
        from ..perf.occupancy import compute_occupancy

        spec = self.resolve_device(device).spec
        compiled = compile_kernel(kernel, spec, shared_bytes=shared_bytes)
        info = compute_occupancy(spec, block_threads, compiled.registers,
                                 compiled.effective_shared_bytes)
        return info.blocks_per_sm
