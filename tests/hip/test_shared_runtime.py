"""HIP and CUDA share one host runtime, bound to two instances.

Every ``hip*`` host call with a ``cuda*`` twin, ``launch`` and the
current-device getter are the same ``_VendorRuntime`` method as their
CUDA counterpart, bound to a HIP instance that keeps its own per-thread
current device.
"""

import threading

import numpy as np
import pytest

from repro import cuda, hip
from repro.cuda import runtime
from repro.cuda.runtime import _VendorRuntime
from repro.errors import GpuError
from repro.gpu import get_device
from repro.trace import tracing

#: Every HIP host call with a CUDA twin (the twin lives in repro.cuda.runtime).
HOST_CALLS = [
    name for name in hip.__all__
    if name.startswith("hip") and callable(getattr(hip, name))
    and name != "hipLaunchKernelGGL"
]

PAIRS = [(name, "cuda" + name[len("hip"):]) for name in HOST_CALLS] + [
    ("launch", "launch"),
    ("current_hip_device", "current_cuda_device"),
]

CUDA_ALL = [
    "FULL_MASK", "CudaThread", "KernelFunction", "kernel", "launch",
    "cudaDeviceReset", "cudaDeviceSynchronize", "cudaEventCreate",
    "cudaEventRecord", "cudaEventSynchronize", "cudaFree", "cudaGetDevice",
    "cudaMalloc", "cudaMemcpy", "cudaMemcpyAsync", "cudaMemcpyDeviceToDevice",
    "cudaMemcpyDeviceToHost", "cudaMemcpyHostToDevice", "cudaMemcpyToSymbol",
    "cudaMemcpyFromSymbol", "cudaMemset",
    "cudaOccupancyMaxActiveBlocksPerMultiprocessor", "cudaSetDevice",
    "cudaStreamCreate", "cudaStreamDestroy", "cudaStreamSynchronize",
    "current_cuda_device",
]

HIP_ALL = [
    "FULL_MASK", "HipThread", "kernel", "launch", "hipLaunchKernelGGL",
    "hipMalloc", "hipFree", "hipMemcpy", "hipMemcpyAsync", "hipMemcpyPeer",
    "hipMemcpyPeerAsync", "hipDeviceCanAccessPeer",
    "hipDeviceEnablePeerAccess", "hipDeviceDisablePeerAccess", "hipMemset",
    "hipDeviceSynchronize", "hipDeviceReset", "hipSetDevice", "hipGetDevice",
    "hipStreamCreate", "hipStreamDestroy", "hipStreamSynchronize",
    "hipEventCreate", "hipEventRecord", "hipEventSynchronize",
    "hipMemcpyHostToDevice", "hipMemcpyDeviceToHost",
    "hipMemcpyDeviceToDevice", "current_hip_device",
]


@pytest.fixture(autouse=True)
def default_devices():
    cuda.cudaSetDevice(None)
    hip.hipSetDevice(None)
    yield
    cuda.cudaSetDevice(None)
    hip.hipSetDevice(None)


def test_every_twinned_host_call_is_one_shared_method():
    assert len(HOST_CALLS) == 20, HOST_CALLS
    for hip_name, cuda_name in PAIRS:
        hip_fn = getattr(hip, hip_name)
        cuda_fn = getattr(runtime, cuda_name)
        assert hip_fn.__func__ is cuda_fn.__func__, hip_name
        assert hip_fn.__func__ is getattr(_VendorRuntime, hip_fn.__name__)
        assert isinstance(hip_fn.__self__, _VendorRuntime), hip_name
        assert hip_fn.__self__ is not cuda_fn.__self__, hip_name


def test_public_names_are_unchanged():
    assert cuda.__all__ == CUDA_ALL
    assert hip.__all__ == HIP_ALL


def test_current_devices_stay_independent():
    assert (cuda.cudaGetDevice(), hip.hipGetDevice()) == (0, 1)
    cuda.cudaSetDevice(2)
    assert hip.hipGetDevice() == 1
    hip.hipSetDevice(0)
    assert cuda.cudaGetDevice() == 2
    assert hip.current_hip_device().ordinal == 0
    assert cuda.current_cuda_device().ordinal == 2

    # Per thread: another thread still starts from each vendor's default.
    seen = []
    worker = threading.Thread(
        target=lambda: seen.append((cuda.cudaGetDevice(), hip.hipGetDevice()))
    )
    worker.start()
    worker.join()
    assert seen == [(0, 1)]


@pytest.mark.parametrize("prefix", ["cuda", "hip"])
def test_trace_labels_and_errors_keep_their_vendor_spelling(prefix):
    vendor = runtime if prefix == "cuda" else hip

    def api(name):
        return getattr(vendor, prefix + name)

    host = np.arange(4, dtype=np.float32)
    ptr = api("Malloc")(host.nbytes)
    other = get_device(2).allocator.malloc(host.nbytes)
    stream = api("StreamCreate")()
    try:
        with tracing() as tracer:
            api("MemcpyAsync")(ptr, host, host.nbytes,
                               api("MemcpyHostToDevice"), stream)
            api("StreamSynchronize")(stream)
        assert f"exec:{prefix}MemcpyAsync" in {s.name for s in tracer.spans}
        # Wrong device ordinals for the pointers: the error names the API.
        with pytest.raises(GpuError, match=f"^{prefix}MemcpyPeer: dst pointer"):
            api("MemcpyPeer")(ptr, 2, other, 2, host.nbytes)
    finally:
        api("StreamDestroy")(stream)
        api("Free")(ptr)
        get_device(2).allocator.free(other)
