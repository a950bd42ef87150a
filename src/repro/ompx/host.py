"""ompx host APIs (§3.4): ``ompx_malloc`` & friends.

The paper adapts the user-facing APIs of Doerfert et al. (PACT'22,
"Breaking the Vendor Lock") so CUDA host calls port by renaming:
``cudaMalloc -> ompx_malloc``, ``cudaMemcpy -> ompx_memcpy``,
``cudaDeviceSynchronize -> ompx_device_synchronize``.  Here the renaming
is literal: the ``ompx_*`` calls are methods of the host runtime CUDA
and HIP share (:class:`repro.gpu.host.HostRuntime`), bound to an
``"ompx_"`` instance whose current device is the library-wide one
(:func:`repro.gpu.current_device`) and whose misused pointers raise
:class:`~repro.errors.MappingError`.  Thirteen calls are the very method
their ``cuda*`` twin is bound to.  ``ompx_memcpy`` is the shared copy
itself, which ``cudaMemcpy`` makes after checking its memcpy kind, and
``ompx_stream_create`` is a one-line adapter (its device comes first).

One deliberate improvement over CUDA (and faithful to a target-agnostic
runtime layer): the copy direction is *inferred* from the operand types —
a :class:`~repro.gpu.memory.DevicePointer` is device memory, a NumPy
array is host memory — so there is no ``cudaMemcpyKind`` to get wrong.

A call that acts on one device takes ``device=`` (an ordinal, a Device,
or ``None`` for the current device).  ``ompx_malloc``/``ompx_memcpy``/
``ompx_memset``/``ompx_memcpy_peer`` also take ``stream=`` (mirroring
``cudaMemcpyAsync``): with a stream the operation is *enqueued* and
returns immediately; without one it keeps the synchronous default-stream
semantics.
"""

from __future__ import annotations

from ..errors import MappingError
from ..gpu.device import Placement
from ..gpu.host import HostRuntime
from ..gpu.stream import Stream

__all__ = [
    "ompx_malloc",
    "ompx_free",
    "ompx_memcpy",
    "ompx_memcpy_peer",
    "ompx_memset",
    "ompx_memcpy_to_symbol",
    "ompx_memcpy_from_symbol",
    "ompx_device_synchronize",
    "ompx_device_reset",
    "ompx_device_enable_peer_access",
    "ompx_device_disable_peer_access",
    "ompx_device_can_access_peer",
    "ompx_stream_create",
    "ompx_stream_synchronize",
    "ompx_occupancy_max_active_blocks",
]

_ompx = HostRuntime("ompx_", MappingError)

ompx_malloc = _ompx.malloc
ompx_free = _ompx.free
ompx_memcpy = _ompx.memcpy
ompx_memcpy_peer = _ompx.memcpy_peer
ompx_memset = _ompx.memset
ompx_memcpy_to_symbol = _ompx.memcpy_to_symbol
ompx_memcpy_from_symbol = _ompx.memcpy_from_symbol
ompx_device_synchronize = _ompx.device_synchronize
ompx_device_reset = _ompx.device_reset
ompx_device_enable_peer_access = _ompx.device_enable_peer_access
ompx_device_disable_peer_access = _ompx.device_disable_peer_access
ompx_device_can_access_peer = _ompx.device_can_access_peer
ompx_stream_synchronize = _ompx.stream_synchronize
ompx_occupancy_max_active_blocks = _ompx.occupancy_max_active_blocks


def ompx_stream_create(device: Placement = None, name: str = "") -> Stream:
    """``ompx_stream_create``: new asynchronous work queue on ``device``."""
    return Stream(_ompx.resolve_device(device), name=name)
