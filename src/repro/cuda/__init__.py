"""CUDA kernel-language layer — the paper's "native" baseline on NVIDIA.

A faithful-in-shape subset of the CUDA runtime API and kernel model over
the virtual GPU: ``@kernel`` (``__global__``), :func:`launch` (chevron
syntax), ``cudaMalloc``/``cudaMemcpy``/``cudaDeviceSynchronize``, streams
and events.  Kernels see CUDA spellings through :class:`CudaThread`.
The host calls are methods of the vendor runtime in
:mod:`repro.cuda.runtime`, bound to the CUDA instance (current device
ordinal 0, the A100 preset): the host runtime every front end shares
(:mod:`repro.gpu.host`) plus the CUDA/HIP-only calls.  :mod:`repro.hip`
binds the same methods to a second instance, and :mod:`repro.ompx` the
shared ones to a third.
"""

from .builtins import FULL_MASK, CudaThread
from .kernel import KernelFunction, kernel
from .runtime import (
    cudaDeviceReset,
    cudaDeviceSynchronize,
    cudaEventCreate,
    cudaEventRecord,
    cudaEventSynchronize,
    cudaFree,
    cudaGetDevice,
    cudaMalloc,
    cudaMemcpy,
    cudaMemcpyAsync,
    cudaMemcpyDeviceToDevice,
    cudaMemcpyDeviceToHost,
    cudaMemcpyHostToDevice,
    cudaMemcpyToSymbol,
    cudaMemcpyFromSymbol,
    cudaMemset,
    cudaOccupancyMaxActiveBlocksPerMultiprocessor,
    cudaSetDevice,
    cudaStreamCreate,
    cudaStreamDestroy,
    cudaStreamSynchronize,
    current_cuda_device,
    launch,
)

__all__ = [
    "FULL_MASK",
    "CudaThread",
    "KernelFunction",
    "kernel",
    "launch",
    "cudaDeviceReset",
    "cudaDeviceSynchronize",
    "cudaEventCreate",
    "cudaEventRecord",
    "cudaEventSynchronize",
    "cudaFree",
    "cudaGetDevice",
    "cudaMalloc",
    "cudaMemcpy",
    "cudaMemcpyAsync",
    "cudaMemcpyDeviceToDevice",
    "cudaMemcpyDeviceToHost",
    "cudaMemcpyHostToDevice",
    "cudaMemcpyToSymbol",
    "cudaMemcpyFromSymbol",
    "cudaMemset",
    "cudaOccupancyMaxActiveBlocksPerMultiprocessor",
    "cudaSetDevice",
    "cudaStreamCreate",
    "cudaStreamDestroy",
    "cudaStreamSynchronize",
    "current_cuda_device",
]
