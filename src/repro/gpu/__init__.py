"""The SIMT virtual GPU substrate.

Everything the kernel-language layers (:mod:`repro.cuda`, :mod:`repro.hip`,
:mod:`repro.ompx`) and the OpenMP runtime model (:mod:`repro.openmp`) need
from "hardware": devices, global/shared memory, warps, barriers, atomics,
streams, the kernel object every front end builds (:class:`Kernel`) and
kernel launch.

The paper's evaluation hardware (Figure 7) is available as device presets:
``get_device(0)`` is the NVIDIA A100 (40 GB), ``get_device(1)`` the AMD
MI250 (one GCD, 64-wide wavefronts), and ``get_device(3)`` an Intel
XeHPC-class stack; :data:`PRESETS`/:func:`get_spec` select the same
specs by name.
"""

from .atomics import AtomicDomain
from .context import BlockState, ThreadCtx
from .device import (
    A100_SPEC,
    MI250_SPEC,
    PRESETS,
    XEHPC_SPEC,
    Device,
    DeviceSpec,
    Placement,
    Vendor,
    add_device,
    current_device,
    get_device,
    get_spec,
    registered_devices,
    remove_device,
    reset_devices,
    resolve_placement,
    set_current_device,
)
from .dim import Dim3, as_dim3, delinearize, linearize
from .engine import (
    BlockThreadEngine,
    Engine,
    KernelStats,
    MapEngine,
    WaveVectorEngine,
    select_engine,
)
from .kernel import Kernel
from .launch import LaunchConfig, launch_kernel
from .memory import DevicePointer, GlobalAllocator, MemcpyKind, memcpy_peer, peer_copy
from .shared import SharedMemory
from .stream import Event, Stream
from .vector import VecDim3, VectorThreadCtx
from .warp import full_mask, mask_to_lanes

__all__ = [
    "AtomicDomain",
    "BlockState",
    "ThreadCtx",
    "A100_SPEC",
    "MI250_SPEC",
    "XEHPC_SPEC",
    "PRESETS",
    "get_spec",
    "Device",
    "DeviceSpec",
    "Placement",
    "Vendor",
    "add_device",
    "current_device",
    "get_device",
    "registered_devices",
    "remove_device",
    "reset_devices",
    "resolve_placement",
    "set_current_device",
    "Dim3",
    "as_dim3",
    "delinearize",
    "linearize",
    "BlockThreadEngine",
    "Engine",
    "KernelStats",
    "MapEngine",
    "WaveVectorEngine",
    "select_engine",
    "Kernel",
    "LaunchConfig",
    "launch_kernel",
    "VecDim3",
    "VectorThreadCtx",
    "DevicePointer",
    "GlobalAllocator",
    "MemcpyKind",
    "memcpy_peer",
    "peer_copy",
    "SharedMemory",
    "Event",
    "Stream",
    "full_mask",
    "mask_to_lanes",
]
