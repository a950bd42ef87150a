"""One host runtime under every front end: CUDA, HIP and ompx.

``repro.gpu.host.HostRuntime`` implements each host operation once.  The
``ompx_*`` calls are its methods bound to a third instance, beside the
CUDA and HIP instances of its vendor subclass, so the same call behaves
and traces alike whichever API spells it.
"""

import numpy as np
import pytest

from repro import cuda, faults, hip, ompx, trace
from repro.cuda import runtime as cuda_runtime
from repro.errors import GpuError, InvalidPointerError, MappingError
from repro.gpu import get_device
from repro.gpu.host import HostRuntime
from repro.openmp.data import omp_target_memcpy
from tests.integration.test_cross_layer import (
    BLOCK,
    N,
    compute_cuda,
    compute_ompx,
    reference,
)

#: Every ompx host call that is the very method its CUDA twin is.
TWINS = {
    "ompx_malloc": "cudaMalloc",
    "ompx_free": "cudaFree",
    "ompx_memcpy_peer": "cudaMemcpyPeer",
    "ompx_memset": "cudaMemset",
    "ompx_memcpy_to_symbol": "cudaMemcpyToSymbol",
    "ompx_memcpy_from_symbol": "cudaMemcpyFromSymbol",
    "ompx_device_synchronize": "cudaDeviceSynchronize",
    "ompx_device_reset": "cudaDeviceReset",
    "ompx_device_enable_peer_access": "cudaDeviceEnablePeerAccess",
    "ompx_device_disable_peer_access": "cudaDeviceDisablePeerAccess",
    "ompx_device_can_access_peer": "cudaDeviceCanAccessPeer",
    "ompx_stream_synchronize": "cudaStreamSynchronize",
    "ompx_occupancy_max_active_blocks": "cudaOccupancyMaxActiveBlocksPerMultiprocessor",
}

#: The two calls whose argument order differs from CUDA's.
ADAPTED = {"ompx_memcpy", "ompx_stream_create"}


@pytest.fixture(autouse=True)
def default_devices():
    cuda.cudaSetDevice(None)
    hip.hipSetDevice(None)
    yield
    cuda.cudaSetDevice(None)
    hip.hipSetDevice(None)


def test_ompx_calls_are_the_shared_methods_bound_to_a_third_instance():
    assert set(TWINS) | ADAPTED == set(ompx.host.__all__)
    instances = {id(cuda.cudaMalloc.__self__), id(hip.hipMalloc.__self__)}
    for ompx_name, cuda_name in TWINS.items():
        ompx_fn = getattr(ompx, ompx_name)
        cuda_fn = getattr(cuda_runtime, cuda_name)
        assert ompx_fn.__func__ is cuda_fn.__func__, ompx_name
        assert ompx_fn.__func__ is getattr(HostRuntime, ompx_fn.__name__)
        assert type(ompx_fn.__self__) is HostRuntime, ompx_name
        assert id(ompx_fn.__self__) not in instances, ompx_name
    # ompx_memcpy is the shared copy (its fourth positional argument is
    # the device); cudaMemcpy checks a kind and then makes the same copy.
    assert ompx.ompx_memcpy.__func__ is HostRuntime.memcpy
    assert cuda.cudaMemcpy.__func__ is not HostRuntime.memcpy


# --- the Figure 1 host flow, once per API -------------------------------------

def _cuda_flow(h_a, h_b, size):
    d_a = cuda.cudaMalloc(size)
    d_b = cuda.cudaMalloc(size)
    cuda.cudaMemcpy(d_a, h_a, size, cuda.cudaMemcpyHostToDevice)
    cuda.launch(compute_cuda, N // BLOCK, BLOCK, (d_a, d_b, N))
    cuda.cudaMemcpy(h_b, d_b, size, cuda.cudaMemcpyDeviceToHost)
    cuda.cudaDeviceSynchronize()
    cuda.cudaFree(d_a)
    cuda.cudaFree(d_b)


def _hip_flow(h_a, h_b, size):
    hip.hipSetDevice(0)  # the device the other two flows use
    d_a = hip.hipMalloc(size)
    d_b = hip.hipMalloc(size)
    hip.hipMemcpy(d_a, h_a, size, hip.hipMemcpyHostToDevice)
    hip.launch(compute_cuda, N // BLOCK, BLOCK, (d_a, d_b, N))
    hip.hipMemcpy(h_b, d_b, size, hip.hipMemcpyDeviceToHost)
    hip.hipDeviceSynchronize()
    hip.hipFree(d_a)
    hip.hipFree(d_b)


def _ompx_flow(h_a, h_b, size):
    d_a = ompx.ompx_malloc(size, 0)
    d_b = ompx.ompx_malloc(size, 0)
    ompx.ompx_memcpy(d_a, h_a, size, 0)
    ompx.target_teams_bare(0, N // BLOCK, BLOCK, compute_ompx, (d_a, d_b, N))
    ompx.ompx_memcpy(h_b, d_b, size, 0)
    ompx.ompx_device_synchronize(0)
    ompx.ompx_free(d_a, 0)
    ompx.ompx_free(d_b, 0)


FLOWS = {"cuda": _cuda_flow, "hip": _hip_flow, "ompx_": _ompx_flow}


def _host_call_spans(prefix):
    """Run one API's Figure 1 flow traced; its host-call spans as
    (call, cat, args) with the API's spelling taken out."""
    h_a = np.arange(N, dtype=np.float64)
    h_b = np.zeros(N)
    with trace.tracing() as tracer:
        FLOWS[prefix](h_a, h_b, h_a.nbytes)
    assert np.allclose(h_b, reference())
    return [
        (s.name[len(prefix):].replace("_", "").lower(), s.cat, s.args)
        for s in sorted(tracer.spans, key=lambda s: s.ts_us)
        if s.name.startswith(prefix)
    ]


def test_figure1_flow_traces_the_same_host_calls_in_every_api():
    spans = {prefix: _host_call_spans(prefix) for prefix in FLOWS}
    size = N * 8
    assert spans["ompx_"] == [
        ("malloc", "host-api", {"bytes": size}),
        ("malloc", "host-api", {"bytes": size}),
        ("memcpy", "memcpy", {"bytes": size, "direction": "h2d"}),
        ("memcpy", "memcpy", {"bytes": size, "direction": "d2h"}),
        ("devicesynchronize", "sync", {"device": get_device(0).spec.name}),
    ]
    assert spans["cuda"] == spans["ompx_"]
    assert spans["hip"] == spans["ompx_"]


# --- behaviour that used to differ between the copies -------------------------

@pytest.mark.parametrize("api", ["cuda", "hip"])
def test_device_to_device_copy_goes_through_the_pointers_device(api):
    vendor = cuda_runtime if api == "cuda" else hip
    vendor_set_device = getattr(vendor, f"{api}SetDevice")
    device_to_device = getattr(vendor, f"{api}MemcpyDeviceToDevice")
    owner = get_device(1)
    a, b = owner.allocator.malloc(16), owner.allocator.malloc(16)
    try:
        owner.allocator.memcpy_h2d(a, np.arange(16, dtype=np.uint8))
        vendor_set_device(0)  # neither pointer belongs to the current device
        getattr(vendor, f"{api}Memcpy")(b, a, 16, device_to_device)
        out = np.zeros(16, dtype=np.uint8)
        owner.allocator.memcpy_d2h(out, b)
        assert np.array_equal(out, np.arange(16, dtype=np.uint8))
    finally:
        owner.allocator.free(a)
        owner.allocator.free(b)


#: Each API's free, the error it raises, and a device that is not the
#: API's current one (CUDA's and ompx's current device is 0, HIP's 1).
FREES = {
    "cudaFree": (cuda.cudaFree, GpuError, 1),
    "hipFree": (hip.hipFree, GpuError, 0),
    "ompx_free": (ompx.ompx_free, MappingError, 1),
}


@pytest.mark.parametrize("call", sorted(FREES))
def test_free_goes_through_the_pointers_device(call):
    free, error, ordinal = FREES[call]
    owner, other = get_device(ordinal), 1 - ordinal
    ptr = owner.allocator.malloc(16)
    with pytest.raises(error, match=f"^{call}: pointer belongs to device "
                                    f"{ordinal}, not device {other}$"):
        free(ptr, other)
    free(ptr)
    with pytest.raises(InvalidPointerError, match="double free"):
        owner.allocator.free(ptr)


class TestMemcpyKinds:
    @pytest.fixture
    def ptr(self):
        ptr = cuda.cudaMalloc(32)
        yield ptr
        cuda.cudaFree(ptr)

    def test_a_kind_that_contradicts_the_operands_is_a_gpu_error(self, ptr):
        host = np.zeros(4)
        with pytest.raises(GpuError, match="cudaMemcpy: memcpy kind 'device_to_host'"):
            cuda.cudaMemcpy(ptr, host, 32, cuda.cudaMemcpyDeviceToHost)
        with pytest.raises(GpuError, match="dst is host memory, src is host memory"):
            cuda.cudaMemcpy(host, host, 32, cuda.cudaMemcpyHostToDevice)

    def test_the_async_form_checks_before_it_enqueues(self, ptr):
        stream = cuda.cudaStreamCreate("kinds")
        try:
            with pytest.raises(GpuError, match="^cudaMemcpyAsync: memcpy kind"):
                cuda.cudaMemcpyAsync(np.zeros(4), ptr, 32,
                                     cuda.cudaMemcpyHostToDevice, stream)
            cuda.cudaStreamSynchronize(stream)  # nothing sticky was left behind
        finally:
            cuda.cudaStreamDestroy(stream)

    def test_hip_spells_its_own_name(self):
        ptr = hip.hipMalloc(8)
        try:
            with pytest.raises(GpuError, match="^hipMemcpy: unsupported memcpy kind"):
                hip.hipMemcpy(ptr, np.zeros(1), 8, "sideways")
        finally:
            hip.hipFree(ptr)


def test_omp_target_memcpy_across_devices_rides_the_peer_path(nvidia, amd):
    host = np.arange(8, dtype=np.float64)
    src = nvidia.allocator.malloc(host.nbytes)
    dst = amd.allocator.malloc(host.nbytes)
    try:
        nvidia.allocator.memcpy_h2d(src, host)
        amd.allocator.memset(dst, 0, host.nbytes)
        with faults.inject("memcpy:truncate,bytes=0") as plan:
            omp_target_memcpy(dst, src, host.nbytes, dst_device=amd, src_device=nvidia)
        # One transfer, direction p2p: no d2h + h2d staging pair.
        assert plan.fired == 1
        with faults.inject("memcpy:truncate,bytes=0,direction=p2p") as plan:
            omp_target_memcpy(dst, src, host.nbytes, dst_device=amd, src_device=nvidia)
        assert plan.fired == 1
        omp_target_memcpy(dst, src, host.nbytes, dst_device=amd, src_device=nvidia)
        out = np.zeros_like(host)
        with pytest.raises(MappingError, match="dst pointer belongs to device 1, not device 0"):
            omp_target_memcpy(dst, src, host.nbytes, dst_device=nvidia, src_device=nvidia)
        amd.allocator.memcpy_d2h(out, dst)
        assert np.array_equal(out, host)
    finally:
        nvidia.allocator.free(src)
        amd.allocator.free(dst)
