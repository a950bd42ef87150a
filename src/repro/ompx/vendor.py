"""Vendor-library wrapper layer (§3.6).

"Crafting a performance-portable library with the same capabilities as
vendor libraries from the ground up is not feasible" — so the paper adds a
thin wrapper whose signatures match the vendor library and whose
implementation dispatches to the right vendor backend for the offload
target chosen at compile time.

Here the "vendor libraries" are simulated: :class:`CublasSim`,
:class:`RocblasSim` and :class:`OneMklSim` implement the classic BLAS
entry points over device memory with NumPy, each keeping its own call
statistics so dispatch is observable in tests.  ``ompxblas_*`` functions
are the wrapper layer: they look like cuBLAS, and pick the backend from
the handle's device vendor through a registrable backend table
(:func:`register_backend`), so a fourth vendor is one registration away.

BLAS conventions are honoured: column-major storage, leading dimensions,
transpose flags, strided vectors, strided batches — so a cuBLAS call
ports by renaming the prefix, which is the §3.6 claim.

The wrapper layer behaves like the launch path in two more ways:

* **Streams.** :func:`ompxblas_set_stream` binds a handle to a stream
  (``cublasSetStream``); bound calls enqueue on it and therefore order
  with kernel launches on the same stream.  Scalar-returning calls
  (``ddot``/``dnrm2``) synchronize the stream first, like their cuBLAS
  counterparts writing to host pointers.
* **Tracing.** Every call emits a ``vendor:<op>`` span (``cat="vendor"``)
  carrying backend, flops and bytes, and bumps the ``vendor_calls`` /
  ``vendor_flops`` / ``vendor_bytes`` counters — so :mod:`repro.trace`
  sees BLAS calls like kernel launches.

Modeled performance rides on :mod:`repro.perf.roofline`:
:func:`modeled_gemm_seconds` prices a GEMM at a given instruction-stream
efficiency, and each backend carries a ``library_efficiency`` so the
library-vs-hand-kernel gap (why §3.6 wraps instead of rewriting) is a
number the benchmarks can report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Type

import numpy as np

from ..errors import (
    BlasDimensionError,
    HandleDestroyedError,
    UnknownVendorError,
    VendorError,
)
from ..gpu.device import Device, DeviceSpec, Vendor, current_device
from ..gpu.memory import DevicePointer
from ..gpu.stream import Stream
from ..perf.roofline import Footprint, roofline_seconds
from ..trace import get_tracer

__all__ = [
    "BlasBackend",
    "CublasSim",
    "RocblasSim",
    "OneMklSim",
    "register_backend",
    "registered_backends",
    "OmpxBlasHandle",
    "ompxblas_create",
    "ompxblas_destroy",
    "ompxblas_set_stream",
    "ompxblas_get_stream",
    "ompxblas_dgemm",
    "ompxblas_sgemm",
    "ompxblas_dgemv",
    "ompxblas_dgemm_batched",
    "ompxblas_dgemm_strided_batched",
    "ompxblas_zgemm_strided_batched",
    "ompxblas_daxpy",
    "ompxblas_ddot",
    "ompxblas_dnrm2",
    "ompxblas_dscal",
    "ompxblas_dcopy",
    "ompxblas_dswap",
    "gemm_footprint",
    "modeled_gemm_seconds",
    "HAND_KERNEL_EFFICIENCY",
    "VendorError",
    "BlasDimensionError",
    "UnknownVendorError",
    "HandleDestroyedError",
    "OMPXBLAS_OP_N",
    "OMPXBLAS_OP_T",
]

OMPXBLAS_OP_N = "N"
OMPXBLAS_OP_T = "T"


# --- modeled performance (repro.perf.roofline) -------------------------------

#: Instruction-stream quality of a straightforward hand-written GEMM
#: kernel relative to roofline peak.  Vendor libraries ship tiled,
#: tensor-unit-aware kernels per architecture; a portable hand kernel
#: does not — which is the paper's argument for wrapping (§3.6) rather
#: than reimplementing.
HAND_KERNEL_EFFICIENCY = 0.45


def gemm_footprint(
    m: int, n: int, k: int, *, dtype=np.float64, batch: int = 1
) -> Footprint:
    """The roofline :class:`Footprint` of one (batched) GEMM call.

    ``2*m*n*k`` multiply-adds per matrix (×4 for complex: a complex
    multiply-add is four real multiplies and four real adds), reading A,
    B and C and writing C once.
    """
    dtype = np.dtype(dtype)
    flops = 2.0 * m * n * k * batch
    if dtype.kind == "c":
        flops *= 4.0
    # Double-wide types (fp64, complex128) are priced against the fp64
    # pipe; everything narrower against fp32.
    wide = dtype.itemsize >= (16 if dtype.kind == "c" else 8)
    reads = float(m * k + k * n + m * n) * dtype.itemsize * batch
    writes = float(m * n) * dtype.itemsize * batch
    return Footprint(
        flops_fp64=flops if wide else 0.0,
        flops_fp32=0.0 if wide else flops,
        global_read_bytes=reads,
        global_write_bytes=writes,
    )


def modeled_gemm_seconds(
    spec: DeviceSpec,
    m: int,
    n: int,
    k: int,
    *,
    dtype=np.float64,
    batch: int = 1,
    efficiency: float = HAND_KERNEL_EFFICIENCY,
) -> float:
    """Roofline seconds for one (batched) GEMM on ``spec``.

    GEMM saturates a device, so occupancy is taken at 1.0; ``efficiency``
    carries the library-vs-hand-kernel gap (pass a backend's
    ``library_efficiency`` for the vendor-library estimate, the default
    :data:`HAND_KERNEL_EFFICIENCY` for the portable hand kernel).
    """
    return roofline_seconds(
        gemm_footprint(m, n, k, dtype=dtype, batch=batch),
        spec,
        occupancy=1.0,
        efficiency=efficiency,
    )


# --- argument validation -----------------------------------------------------

def _ld_check(op: str, param: str, ld: int, rows: int) -> None:
    minimum = max(1, rows)
    if ld < minimum:
        raise BlasDimensionError(
            f"{op}: leading dimension {param}={ld} < number of rows {rows}",
            op=op, param=param, value=ld, minimum=minimum,
        )


def _inc_check(op: str, param: str, inc: int) -> None:
    if inc < 1:
        raise BlasDimensionError(
            f"{op}: vector increment {param} must be >= 1, got {inc}",
            op=op, param=param, value=inc, minimum=1,
        )


def _batch_check(op: str, batch: int) -> None:
    if batch < 0:
        raise BlasDimensionError(
            f"{op}: batch count must be >= 0, got {batch}",
            op=op, param="batch_count", value=batch, minimum=0,
        )


def _stride_check(op: str, param: str, stride: int, minimum: int) -> None:
    if stride < minimum:
        raise BlasDimensionError(
            f"{op}: matrix stride {param}={stride} would alias batch "
            f"entries; need >= {minimum}",
            op=op, param=param, value=stride, minimum=minimum,
        )


#: Output elements per slice of a batched GEMM: one slice's accumulators
#: and product buffers stay in cache across its ``k`` rank-1 updates.
_GEMM_SLICE = 1 << 14


def _batch_innermost(stack: np.ndarray, axes) -> np.ndarray:
    """A ``(batch, rows, cols)`` stack transposed by ``axes`` (which put the
    batch last) into contiguous planes: one real plane, or a complex stack's
    real and imaginary planes.  A stride-0 (broadcast) stack stays one
    matrix (batch extent 1)."""
    if stack.strides[0] == 0:
        stack = stack[:1]
    t = stack.transpose(axes)
    if stack.dtype.kind != "c":
        return np.ascontiguousarray(t)[None]
    planes = np.empty((2,) + t.shape, t.real.dtype)
    planes[0], planes[1] = t.real, t.imag
    return planes


def _rank1_updates(left, right, acc) -> None:
    """``acc += left[:, kk] * right[kk]`` for ``kk`` ascending, per plane.

    ``left`` is ``(planes, k, rows, 1, batch)``, ``right`` ``(planes, k, 1,
    n, batch)`` and ``acc`` ``(planes, rows, n, batch)``; two planes hold a
    complex product's real and imaginary parts, ``(ac - bd, ad + bc)``.
    The products of as many steps as fill about ``_GEMM_SLICE`` elements
    come from one NumPy call; each is then added on its own, in order.
    """
    k = left.shape[1]
    step = max(1, min(k, _GEMM_SLICE // (acc.size // len(acc))))
    prod = np.empty((len(acc), step) + acc.shape[1:], acc.dtype)
    if len(acc) == 1:
        (a,), (p,) = acc, prod
        for k0 in range(0, k, step):
            for pk in np.multiply(left[0, k0:k0 + step], right[0, k0:k0 + step],
                                  p[:min(step, k - k0)]):
                np.add(a, pk, a)
        return
    (a_re, a_im), (p, q) = acc, prod
    for k0 in range(0, k, step):
        (lr, li), (rr, ri) = left[:, k0:k0 + step], right[:, k0:k0 + step]
        p_k, q_k = p[:len(lr)], q[:len(lr)]
        np.multiply(lr, rr, p_k)
        np.multiply(li, ri, q_k)
        for pk in np.subtract(p_k, q_k, p_k):
            np.add(a_re, pk, a_re)
        np.multiply(lr, ri, p_k)
        np.multiply(li, rr, q_k)
        for pk in np.add(p_k, q_k, p_k):
            np.add(a_im, pk, a_im)


# --- the simulated vendor libraries ------------------------------------------

class BlasBackend:
    """A simulated vendor BLAS over device global memory."""

    name = "abstract"
    #: Fraction of roofline peak this vendor's tuned GEMM kernels reach
    #: (instruction-stream quality for :func:`modeled_gemm_seconds`).
    library_efficiency = 0.90

    def __init__(self, device: Device) -> None:
        self.device = device
        self.calls: Dict[str, int] = {}

    def _count(self, op: str) -> None:
        self.calls[op] = self.calls.get(op, 0) + 1

    def modeled_gemm_seconds(
        self, m: int, n: int, k: int, *, dtype=np.float64, batch: int = 1
    ) -> float:
        """This library's roofline estimate for one (batched) GEMM."""
        return modeled_gemm_seconds(
            self.device.spec, m, n, k, dtype=dtype, batch=batch,
            efficiency=self.library_efficiency,
        )

    def _matrix(self, ptr: DevicePointer, rows: int, cols: int, ld: int, dtype,
                *, op: str = "gemm", param: str = "ld") -> np.ndarray:
        """Column-major matrix view honouring the leading dimension."""
        _ld_check(op, param, ld, rows)
        storage = self.device.allocator.view(ptr, ld * cols, dtype)
        # Column-major with leading dimension: column j starts at j*ld.
        return storage.reshape(cols, ld)[:, :rows].T

    def _vector(self, ptr: DevicePointer, n: int, inc: int, dtype,
                *, op: str = "blas", param: str = "inc") -> np.ndarray:
        _inc_check(op, param, inc)
        storage = self.device.allocator.view(ptr, (n - 1) * inc + 1, dtype)
        return storage[::inc]

    def _strided_batch(
        self, ptr: DevicePointer, rows: int, cols: int, ld: int,
        stride: int, batch: int, dtype, *, op: str, param: str,
    ) -> np.ndarray:
        """A ``(batch, rows, cols)`` view of strided column-major matrices.

        ``stride == 0`` broadcasts one matrix across the batch (legal for
        A/B operands, as in cuBLAS strided-batched GEMM).
        """
        _ld_check(op, param, ld, rows)
        itemsize = np.dtype(dtype).itemsize
        extent = ld * cols + (0 if stride == 0 else (batch - 1) * stride)
        flat = self.device.allocator.view(ptr, extent, dtype)
        stacked = np.lib.stride_tricks.as_strided(
            flat,
            shape=(batch, cols, ld),
            strides=(stride * itemsize, ld * itemsize, itemsize),
        )
        return stacked[:, :, :rows].transpose(0, 2, 1)

    @staticmethod
    def _batched_update(left, right, cm, alpha, beta) -> None:
        """``C = alpha*left@right + beta*C`` over ``(batch, ., .)`` stacks.

        The accumulation runs over ``k`` in ascending order, one rank-1
        update per step, starting from zero: a *deterministic* order, so
        every output element is bit-identical to a scalar triple loop
        however the batch is sharded (each batch entry's arithmetic is
        independent of the others).  ``beta == 0`` never reads C, per the
        BLAS contract.

        Layout: the operands are copied once with the batch axis innermost
        and contiguous (a stride-0 operand stays one matrix, broadcast), and
        so is the accumulator.  It fills in slices of about ``_GEMM_SLICE``
        elements (rows of C times a span of the batch): each rank-1 update
        is a few whole-slice NumPy calls into preallocated product buffers.

        Complex products are expanded into real-plane arithmetic in the
        output's real dtype, ``(ac - bd, ad + bc)``: every real
        multiply/add is individually correctly rounded, whereas numpy's
        complex-multiply ufunc may contract with FMA on SIMD paths.  The
        expansion is what makes the simulated library call bit-identical
        to a scalar triple loop.
        """
        batch, m, n = cm.shape
        if not cm.size:
            return
        lt = _batch_innermost(left, (2, 1, 0))[..., None, :]  # (planes, k, m, 1, batch | 1)
        rt = _batch_innermost(right, (1, 2, 0))[:, :, None]   # (planes, k, 1, n, batch | 1)
        acc = np.zeros((len(rt), m, n, batch), rt.dtype)
        if m * n * batch <= _GEMM_SLICE:
            _rank1_updates(lt, rt, acc)
        else:
            span = min(batch, max(1, _GEMM_SLICE // n))
            rows = max(1, _GEMM_SLICE // (n * span))
            for b0 in range(0, batch, span):
                bs = slice(b0, b0 + span)
                r = rt if rt.shape[4] == 1 else rt[..., bs]
                l = lt if lt.shape[4] == 1 else lt[..., bs]
                for i0 in range(0, m, rows):
                    _rank1_updates(l[:, :, i0:i0 + rows], r, acc[:, i0:i0 + rows, :, bs])
        if len(acc) == 1:
            # alpha * x is x itself when alpha is 1.
            update = acc[0] if alpha == 1 else alpha * acc[0]
        else:
            update = np.empty(acc.shape[1:], cm.dtype)
            update.real, update.imag = acc
            np.multiply(alpha, update, out=update)
        update = update.transpose(2, 0, 1)
        if beta == 0:
            cm[...] = update
        else:
            cm *= beta
            cm += update

    # --- level 3 -------------------------------------------------------------
    def gemm(self, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, dtype) -> None:
        """C = alpha*op(A)@op(B) + beta*C, column-major with leading dims."""
        self._count("gemm")
        self._gemm("gemm", transa, transb, m, n, k, alpha, a, lda, b, ldb,
                   beta, c, ldc, dtype)

    def gemm_batched(self, transa, transb, m, n, k, alpha, a_array, lda,
                     b_array, ldb, beta, c_array, ldc, batch, dtype) -> None:
        """Pointer-array batched GEMM (``cublasDgemmBatched`` shape)."""
        self._count("gemm_batched")
        for a, b, c in zip(a_array, b_array, c_array):
            self._gemm("gemm_batched", transa, transb, m, n, k, alpha, a, lda,
                       b, ldb, beta, c, ldc, dtype)

    def _gemm(self, op, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
              c, ldc, dtype) -> None:
        """One GEMM as a batch of one through :meth:`_batched_update`, in
        place on the device view of C; ``op`` names the call in errors."""
        am = self._matrix(a, m if transa == OMPXBLAS_OP_N else k,
                          k if transa == OMPXBLAS_OP_N else m, lda, dtype,
                          op=op, param="lda")
        bm = self._matrix(b, k if transb == OMPXBLAS_OP_N else n,
                          n if transb == OMPXBLAS_OP_N else k, ldb, dtype,
                          op=op, param="ldb")
        cm = self._matrix(c, m, n, ldc, dtype, op=op, param="ldc")
        left = am if transa == OMPXBLAS_OP_N else am.T
        right = bm if transb == OMPXBLAS_OP_N else bm.T
        self._batched_update(left[None], right[None], cm[None], alpha, beta)

    def gemm_strided_batched(self, transa, transb, m, n, k, alpha, a, lda,
                             stride_a, b, ldb, stride_b, beta, c, ldc,
                             stride_c, batch, dtype) -> None:
        """Strided-batched GEMM (``cublasDgemmStridedBatched`` shape)."""
        self._count("gemm_strided_batched")
        if batch == 0:
            return
        op = "gemm_strided_batched"
        rows_a = m if transa == OMPXBLAS_OP_N else k
        cols_a = k if transa == OMPXBLAS_OP_N else m
        rows_b = k if transb == OMPXBLAS_OP_N else n
        cols_b = n if transb == OMPXBLAS_OP_N else k
        astack = self._strided_batch(a, rows_a, cols_a, lda, stride_a, batch,
                                     dtype, op=op, param="lda")
        bstack = self._strided_batch(b, rows_b, cols_b, ldb, stride_b, batch,
                                     dtype, op=op, param="ldb")
        cstack = self._strided_batch(c, m, n, ldc, stride_c, batch,
                                     dtype, op=op, param="ldc")
        left = astack if transa == OMPXBLAS_OP_N else astack.transpose(0, 2, 1)
        right = bstack if transb == OMPXBLAS_OP_N else bstack.transpose(0, 2, 1)
        self._batched_update(left, right, cstack, alpha, beta)

    # --- level 2 -------------------------------------------------------------
    def gemv(self, trans, m, n, alpha, a, lda, x, incx, beta, y, incy, dtype) -> None:
        """y = alpha*op(A)@x + beta*y for an m×n column-major A.

        The GEMM of op(A) and ``x`` as a one-column matrix, so it shares
        its exactness and never reads y when ``beta == 0``.
        """
        self._count("gemv")
        am = self._matrix(a, m, n, lda, dtype, op="gemv", param="lda")
        xv = self._vector(x, n if trans == OMPXBLAS_OP_N else m, incx, dtype,
                          op="gemv", param="incx")
        yv = self._vector(y, m if trans == OMPXBLAS_OP_N else n, incy, dtype,
                          op="gemv", param="incy")
        mat = am if trans == OMPXBLAS_OP_N else am.T
        self._batched_update(mat[None], xv[None, :, None], yv[None, :, None],
                             alpha, beta)

    # --- level 1 -------------------------------------------------------------
    def axpy(self, n, alpha, x, incx, y, incy, dtype) -> None:
        """y += alpha * x over strided vectors."""
        self._count("axpy")
        xv = self._vector(x, n, incx, dtype, op="axpy", param="incx")
        yv = self._vector(y, n, incy, dtype, op="axpy", param="incy")
        yv += alpha * xv

    def dot(self, n, x, incx, y, incy, dtype) -> float:
        """Dot product of two strided vectors."""
        self._count("dot")
        xv = self._vector(x, n, incx, dtype, op="dot", param="incx")
        yv = self._vector(y, n, incy, dtype, op="dot", param="incy")
        return float(xv @ yv)

    def nrm2(self, n, x, incx, dtype) -> float:
        """Euclidean norm of a strided vector."""
        self._count("nrm2")
        return float(np.linalg.norm(
            self._vector(x, n, incx, dtype, op="nrm2", param="incx")
        ))

    def scal(self, n, alpha, x, incx, dtype) -> None:
        """x *= alpha over a strided vector."""
        self._count("scal")
        self._vector(x, n, incx, dtype, op="scal", param="incx")[:] *= alpha

    def copy(self, n, x, incx, y, incy, dtype) -> None:
        """y = x over strided vectors."""
        self._count("copy")
        xv = self._vector(x, n, incx, dtype, op="copy", param="incx")
        yv = self._vector(y, n, incy, dtype, op="copy", param="incy")
        yv[:] = xv

    def swap(self, n, x, incx, y, incy, dtype) -> None:
        """Exchange two strided vectors."""
        self._count("swap")
        xv = self._vector(x, n, incx, dtype, op="swap", param="incx")
        yv = self._vector(y, n, incy, dtype, op="swap", param="incy")
        tmp = xv.copy()
        xv[:] = yv
        yv[:] = tmp


class CublasSim(BlasBackend):
    """The NVIDIA vendor library stand-in."""

    name = "cuBLAS-sim"
    library_efficiency = 0.92


class RocblasSim(BlasBackend):
    """The AMD vendor library stand-in."""

    name = "rocBLAS-sim"
    library_efficiency = 0.86


class OneMklSim(BlasBackend):
    """The Intel vendor library stand-in (oneMKL BLAS)."""

    name = "oneMKL-sim"
    library_efficiency = 0.82


# --- the backend registry ----------------------------------------------------

_BACKENDS: Dict[str, Type[BlasBackend]] = {}


def register_backend(vendor: str, backend_cls: Type[BlasBackend]) -> None:
    """Register (or override) the BLAS backend serving a vendor tag.

    This is how the wrapper layer stays a *thin* layer: supporting a new
    offload target is one :class:`BlasBackend` subclass plus one
    registration, with no change to any ``ompxblas_*`` entry point.
    Re-registering a vendor replaces its backend (tests use this to
    install instrumented doubles).
    """
    if not (isinstance(backend_cls, type)
            and issubclass(backend_cls, BlasBackend)):
        raise TypeError(
            f"backend_cls must be a BlasBackend subclass, got {backend_cls!r}"
        )
    _BACKENDS[vendor] = backend_cls


def registered_backends() -> Dict[str, Type[BlasBackend]]:
    """A snapshot of the vendor -> backend-class registry."""
    return dict(_BACKENDS)


register_backend(Vendor.NVIDIA, CublasSim)
register_backend(Vendor.AMD, RocblasSim)
register_backend(Vendor.INTEL, OneMklSim)


# --- handles -----------------------------------------------------------------

@dataclass
class OmpxBlasHandle:
    """The wrapper-layer handle; owns the vendor backend for its device.

    ``stream`` (set via :func:`ompxblas_set_stream`) is where bound calls
    enqueue; ``None`` means the synchronous default path.  ``destroyed``
    flips once in :func:`ompxblas_destroy`, after which every call raises
    :class:`~repro.errors.HandleDestroyedError`.
    """

    device: Device
    backend: BlasBackend
    stream: Optional[Stream] = None
    destroyed: bool = False

    @property
    def backend_name(self) -> str:
        return self.backend.name


def ompxblas_create(device: Optional[Device] = None) -> OmpxBlasHandle:
    """Create a handle; the vendor backend is picked by the offload target."""
    device = device or current_device()
    backend_cls = _BACKENDS.get(device.spec.vendor)
    if backend_cls is None:
        raise UnknownVendorError(
            f"no vendor BLAS for {device.spec.vendor!r}; the wrapper layer "
            f"only knows {sorted(_BACKENDS)} (extend with register_backend)",
            vendor=device.spec.vendor, known=tuple(sorted(_BACKENDS)),
        )
    return OmpxBlasHandle(device=device, backend=backend_cls(device))


def _require_alive(handle: OmpxBlasHandle, op: str) -> None:
    if handle.destroyed:
        raise HandleDestroyedError(
            f"ompxblas handle for device {handle.device.ordinal} was "
            f"destroyed; cannot call {op} (create a new handle)",
            op=op, device=handle.device.ordinal,
        )


def ompxblas_destroy(handle: OmpxBlasHandle) -> None:
    """Drain outstanding work, then invalidate the handle.

    Like ``cublasDestroy``: the device is synchronized first (so
    stream-bound calls complete), and afterwards the handle is dead —
    any further call, including a second destroy, raises
    :class:`~repro.errors.HandleDestroyedError` instead of silently
    computing on a dangling context.
    """
    _require_alive(handle, "destroy")
    handle.device.synchronize()
    handle.destroyed = True


def ompxblas_set_stream(handle: OmpxBlasHandle, stream: Optional[Stream]) -> None:
    """Bind subsequent BLAS calls to ``stream`` (``cublasSetStream``).

    Bound calls enqueue on the stream and therefore order with kernel
    launches and memcpys on it.  ``None`` restores the synchronous
    default path.  The stream must belong to the handle's device, as on
    real hardware.
    """
    _require_alive(handle, "set_stream")
    if stream is not None and stream.device is not handle.device:
        raise VendorError(
            f"stream {stream.name!r} belongs to device "
            f"{stream.device.ordinal}, handle to device "
            f"{handle.device.ordinal}; cublasSetStream requires one device"
        )
    handle.stream = stream


def ompxblas_get_stream(handle: OmpxBlasHandle) -> Optional[Stream]:
    """The stream bound by :func:`ompxblas_set_stream` (None = default)."""
    _require_alive(handle, "get_stream")
    return handle.stream


# --- the dispatch path -------------------------------------------------------

def _execute(handle, op, fn, *, flops=0.0, bytes_moved=0.0, scalar=False,
             **span_args):
    """Run one BLAS call with launch-path semantics.

    Checks handle liveness and context poison, emits the ``vendor:<op>``
    span and counters, and enqueues on the bound stream (synchronizing
    first for ``scalar`` results).
    """
    _require_alive(handle, op)
    handle.device.check_poison()
    tracer = get_tracer()
    if tracer is not None:
        tracer.counter("vendor_calls")
        if flops:
            tracer.counter("vendor_flops", float(flops))
        if bytes_moved:
            tracer.counter("vendor_bytes", float(bytes_moved))
    args = {
        "backend": handle.backend.name,
        "device": handle.device.ordinal,
        "flops": float(flops),
        "bytes": float(bytes_moved),
        **span_args,
    }
    stream = handle.stream
    if stream is not None:
        if not scalar:
            stream.enqueue(fn, label=f"vendor:{op}",
                           trace_cat="vendor", trace_args=args)
            return None
        # Scalar results land in host memory, so the call is a
        # synchronization point (cuBLAS with a host result pointer).
        box = {}

        def run() -> None:
            box["value"] = fn()

        stream.enqueue(run, label=f"vendor:{op}",
                       trace_cat="vendor", trace_args=args)
        stream.synchronize()
        return box["value"]
    if tracer is None:
        return fn()
    with tracer.span(f"vendor:{op}", cat="vendor", **args):
        return fn()


# --- level 3 wrappers --------------------------------------------------------

def _gemm_call(handle, op, transa, transb, m, n, k, alpha, a, lda, b, ldb,
               beta, c, ldc, dtype, batch=1, fn=None):
    _ld_check(op, "lda", lda, m if transa == OMPXBLAS_OP_N else k)
    _ld_check(op, "ldb", ldb, k if transb == OMPXBLAS_OP_N else n)
    _ld_check(op, "ldc", ldc, m)
    footprint = gemm_footprint(m, n, k, dtype=dtype, batch=batch)
    return _execute(
        handle, op, fn,
        flops=footprint.flops_fp64 + footprint.flops_fp32,
        bytes_moved=footprint.global_bytes,
        m=m, n=n, k=k, batch=batch,
        modeled_s=handle.backend.modeled_gemm_seconds(
            m, n, k, dtype=dtype, batch=batch
        ),
    )


def ompxblas_dgemm(handle, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc) -> None:
    """``cublasDgemm`` with the prefix swapped — §3.6's porting story."""
    return _gemm_call(
        handle, "dgemm", transa, transb, m, n, k, alpha, a, lda, b, ldb,
        beta, c, ldc, np.float64,
        fn=lambda: handle.backend.gemm(
            transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
            np.float64,
        ),
    )


def ompxblas_sgemm(handle, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc) -> None:
    """``cublasSgemm`` with the prefix swapped (fp32 GEMM)."""
    return _gemm_call(
        handle, "sgemm", transa, transb, m, n, k, alpha, a, lda, b, ldb,
        beta, c, ldc, np.float32,
        fn=lambda: handle.backend.gemm(
            transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
            np.float32,
        ),
    )


def ompxblas_dgemm_batched(handle, transa, transb, m, n, k, alpha,
                           a_array: Sequence[DevicePointer], lda,
                           b_array: Sequence[DevicePointer], ldb, beta,
                           c_array: Sequence[DevicePointer], ldc,
                           batch: int) -> None:
    """``cublasDgemmBatched`` with the prefix swapped (pointer arrays)."""
    _batch_check("dgemm_batched", batch)
    for param, array in (("a_array", a_array), ("b_array", b_array),
                         ("c_array", c_array)):
        if len(array) < batch:
            raise BlasDimensionError(
                f"dgemm_batched: {param} holds {len(array)} pointers for a "
                f"batch of {batch}",
                op="dgemm_batched", param=param, value=len(array),
                minimum=batch,
            )
    return _gemm_call(
        handle, "dgemm_batched", transa, transb, m, n, k, alpha,
        a_array, lda, b_array, ldb, beta, c_array, ldc, np.float64,
        batch=batch,
        fn=lambda: handle.backend.gemm_batched(
            transa, transb, m, n, k, alpha, a_array[:batch], lda,
            b_array[:batch], ldb, beta, c_array[:batch], ldc, batch,
            np.float64,
        ),
    )


def _strided_batched_call(handle, op, dtype, transa, transb, m, n, k, alpha,
                          a, lda, stride_a, b, ldb, stride_b, beta, c, ldc,
                          stride_c, batch):
    _batch_check(op, batch)
    _stride_check(op, "stride_a", stride_a, 0)
    _stride_check(op, "stride_b", stride_b, 0)
    # C entries must not alias (a zero/short C stride would make batch
    # results order-dependent).
    _stride_check(op, "stride_c", stride_c, ldc * n if batch > 1 else 0)
    return _gemm_call(
        handle, op, transa, transb, m, n, k, alpha, a, lda, b, ldb,
        beta, c, ldc, dtype, batch=batch,
        fn=lambda: handle.backend.gemm_strided_batched(
            transa, transb, m, n, k, alpha, a, lda, stride_a, b, ldb,
            stride_b, beta, c, ldc, stride_c, batch, dtype,
        ),
    )


def ompxblas_dgemm_strided_batched(handle, transa, transb, m, n, k, alpha,
                                   a, lda, stride_a, b, ldb, stride_b, beta,
                                   c, ldc, stride_c, batch) -> None:
    """``cublasDgemmStridedBatched`` with the prefix swapped."""
    return _strided_batched_call(
        handle, "dgemm_strided_batched", np.float64, transa, transb, m, n, k,
        alpha, a, lda, stride_a, b, ldb, stride_b, beta, c, ldc, stride_c,
        batch,
    )


def ompxblas_zgemm_strided_batched(handle, transa, transb, m, n, k, alpha,
                                   a, lda, stride_a, b, ldb, stride_b, beta,
                                   c, ldc, stride_c, batch) -> None:
    """``cublasZgemmStridedBatched`` with the prefix swapped (complex128).

    The lattice-QCD entry point: an SU(3) site-matmul sweep is exactly a
    strided-batched 3×3 complex GEMM (Grid's expression templates lower
    to this shape).
    """
    return _strided_batched_call(
        handle, "zgemm_strided_batched", np.complex128, transa, transb, m, n,
        k, alpha, a, lda, stride_a, b, ldb, stride_b, beta, c, ldc, stride_c,
        batch,
    )


# --- level 2 wrappers --------------------------------------------------------

def ompxblas_dgemv(handle, trans, m, n, alpha, a, lda, x, incx, beta, y, incy) -> None:
    """``cublasDgemv`` with the prefix swapped."""
    _ld_check("dgemv", "lda", lda, m)
    _inc_check("dgemv", "incx", incx)
    _inc_check("dgemv", "incy", incy)
    return _execute(
        handle, "dgemv",
        lambda: handle.backend.gemv(
            trans, m, n, alpha, a, lda, x, incx, beta, y, incy, np.float64
        ),
        flops=2.0 * m * n,
        bytes_moved=float(m * n + m + 2 * n) * 8,
        m=m, n=n,
    )


# --- level 1 wrappers --------------------------------------------------------

def ompxblas_daxpy(handle, n, alpha, x, incx, y, incy) -> None:
    """``cublasDaxpy`` with the prefix swapped."""
    _inc_check("daxpy", "incx", incx)
    _inc_check("daxpy", "incy", incy)
    return _execute(
        handle, "daxpy",
        lambda: handle.backend.axpy(n, alpha, x, incx, y, incy, np.float64),
        flops=2.0 * n, bytes_moved=24.0 * n, n=n,
    )


def ompxblas_ddot(handle, n, x, incx, y, incy) -> float:
    """``cublasDdot`` with the prefix swapped (a synchronization point)."""
    _inc_check("ddot", "incx", incx)
    _inc_check("ddot", "incy", incy)
    return _execute(
        handle, "ddot",
        lambda: handle.backend.dot(n, x, incx, y, incy, np.float64),
        flops=2.0 * n, bytes_moved=16.0 * n, n=n, scalar=True,
    )


def ompxblas_dnrm2(handle, n, x, incx) -> float:
    """``cublasDnrm2`` with the prefix swapped (a synchronization point)."""
    _inc_check("dnrm2", "incx", incx)
    return _execute(
        handle, "dnrm2",
        lambda: handle.backend.nrm2(n, x, incx, np.float64),
        flops=2.0 * n, bytes_moved=8.0 * n, n=n, scalar=True,
    )


def ompxblas_dscal(handle, n, alpha, x, incx) -> None:
    """``cublasDscal`` with the prefix swapped."""
    _inc_check("dscal", "incx", incx)
    return _execute(
        handle, "dscal",
        lambda: handle.backend.scal(n, alpha, x, incx, np.float64),
        flops=1.0 * n, bytes_moved=16.0 * n, n=n,
    )


def ompxblas_dcopy(handle, n, x, incx, y, incy) -> None:
    """``cublasDcopy`` with the prefix swapped."""
    _inc_check("dcopy", "incx", incx)
    _inc_check("dcopy", "incy", incy)
    return _execute(
        handle, "dcopy",
        lambda: handle.backend.copy(n, x, incx, y, incy, np.float64),
        bytes_moved=16.0 * n, n=n,
    )


def ompxblas_dswap(handle, n, x, incx, y, incy) -> None:
    """``cublasDswap`` with the prefix swapped."""
    _inc_check("dswap", "incx", incx)
    _inc_check("dswap", "incy", incy)
    return _execute(
        handle, "dswap",
        lambda: handle.backend.swap(n, x, incx, y, incy, np.float64),
        bytes_moved=32.0 * n, n=n,
    )
