"""Exception hierarchy shared across the :mod:`repro` package.

Every subsystem raises exceptions rooted at :class:`ReproError` so callers
can catch library failures without also swallowing programming errors from
their own code.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GpuError",
    "LaunchError",
    "KernelFault",
    "MemcheckError",
    "StickyContextError",
    "MemoryError_",
    "InvalidPointerError",
    "OutOfMemoryError",
    "SyncError",
    "CompileError",
    "FaultSpecError",
    "OpenMPError",
    "MappingError",
    "DependenceError",
    "InteropError",
    "PortError",
    "PerfModelError",
    "SchedulerError",
    "CancelledError",
    "WatchdogTimeout",
    "ClusterError",
    "WorkerLost",
    "HeartbeatTimeout",
    "ServeError",
    "QueueFull",
    "SessionClosed",
    "VendorError",
    "BlasDimensionError",
    "UnknownVendorError",
    "HandleDestroyedError",
    "CheckpointError",
    "CorruptCheckpointError",
    "AppError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class _FieldEquality:
    """Field-sensitive equality for errors whose context must survive pickling.

    Subclasses name their structured context in ``_FIELDS``.  The default
    BaseException reduction carries ``__dict__``, so the fields survive
    pickling, and equality compares them, so an error that crossed a
    process or thread boundary equals the original, field by field.
    """

    _FIELDS: "tuple[str, ...]" = ()

    def _state(self) -> dict:
        return {name: getattr(self, name) for name in self._FIELDS}

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.args == other.args and self._state() == other._state()

    def __hash__(self) -> int:
        return hash((type(self), self.args))


class GpuError(ReproError):
    """Base class for errors raised by the virtual GPU substrate."""


class LaunchError(_FieldEquality, GpuError):
    """A kernel launch configuration is invalid for the target device.

    Engine guard rails attach structured context so callers (and error
    messages) can name the refusing engine, its cap, the requested size
    and the suggested remediation path.  The launch path additionally
    attaches the selected engine and the launch's plan key (``key``: kernel
    name, device preset, block shape and engine hint) so error text agrees
    with what trace spans and the profile summary report for the same
    launch.
    """

    _FIELDS = ("engine", "cap", "requested", "hint", "key")

    def __init__(
        self,
        message: str = "",
        *,
        engine: "str | None" = None,
        cap: "int | None" = None,
        requested: "int | None" = None,
        hint: "str | None" = None,
        key: "tuple | None" = None,
    ) -> None:
        super().__init__(message)
        self.engine = engine
        self.cap = cap
        self.requested = requested
        self.hint = hint
        self.key = key

    def __str__(self) -> str:
        base = super().__str__()
        extra = []
        if self.engine is not None:
            extra.append(f"engine={self.engine}")
        if self.key is not None:
            extra.append(f"plan_key={self.key!r}")
        if extra:
            base = f"{base} [{', '.join(extra)}]"
        if self.hint is not None:
            base = f"{base} (hint: {self.hint})"
        return base


class KernelFault(_FieldEquality, GpuError):
    """A device-side fault raised while a kernel was executing.

    The analogue of the CUDA/HIP "illegal address in kernel" family
    (``cudaErrorIllegalAddress``, ``hipErrorIllegalAddress``): unlike a
    launch-configuration error, a kernel fault *poisons* the owning device
    context — every subsequent launch/memcpy/sync on the device re-reports
    it until ``device_reset()`` (see :meth:`repro.gpu.device.Device.reset`).

    ``injected=True`` marks faults raised by the :mod:`repro.faults`
    injection framework; it shows in the message (``[..., injected]``)
    and takes part in equality, so a scripted failure reads differently
    from an organic one.
    """

    _FIELDS = ("kernel", "block", "address", "injected")

    def __init__(
        self,
        message: str = "",
        *,
        kernel: "str | None" = None,
        block: "object | None" = None,
        address: "int | None" = None,
        injected: bool = False,
    ) -> None:
        super().__init__(message)
        self.kernel = kernel
        self.block = block
        self.address = address
        self.injected = injected

    def __str__(self) -> str:
        base = super().__str__()
        extra = []
        if self.kernel is not None:
            extra.append(f"kernel={self.kernel}")
        if self.block is not None:
            extra.append(f"block={self.block}")
        if self.address is not None:
            extra.append(f"address=0x{self.address:x}")
        if self.injected:
            extra.append("injected")
        return f"{base} [{', '.join(extra)}]" if extra else base


class MemcheckError(KernelFault):
    """A memory-safety violation caught by the memcheck sanitizer.

    Subclasses :class:`KernelFault` because an out-of-bounds device access
    is exactly the fault class that poisons a real GPU context — running
    under the sanitizer makes it *observable*, not less severe.
    """


class StickyContextError(GpuError):
    """The device context was poisoned by an earlier unhandled kernel fault.

    Mirrors CUDA's sticky-error contract: after an illegal access, every
    API call on the context returns the original error until the context
    is torn down.  ``original`` is the captured fault (also chained as
    ``__cause__``); recover with ``ompx_device_reset``/``cudaDeviceReset``/
    ``hipDeviceReset`` or :meth:`repro.gpu.device.Device.reset`.
    """

    def __init__(
        self,
        message: str = "",
        *,
        device: "int | None" = None,
        original: "BaseException | None" = None,
    ) -> None:
        super().__init__(message)
        self.device = device
        self.original = original


class FaultSpecError(ReproError):
    """A ``--faults`` specification string could not be parsed."""


class MemoryError_(GpuError):
    """Base class for device memory errors.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class InvalidPointerError(MemoryError_):
    """A device pointer does not refer to a live allocation."""


class OutOfMemoryError(MemoryError_):
    """The device allocator cannot satisfy a request."""


class SyncError(GpuError):
    """A synchronization primitive was used incorrectly.

    Examples: barrier divergence inside a thread block, or a warp
    collective executed by only part of a warp without a matching mask.
    """


class CompileError(ReproError):
    """The compiler model rejected a kernel/toolchain combination."""


class OpenMPError(ReproError):
    """Base class for errors raised by the OpenMP runtime model."""


class MappingError(OpenMPError):
    """An inconsistent map clause or device data environment operation."""


class DependenceError(OpenMPError):
    """An invalid ``depend`` clause (unknown type, bad item, cycle)."""


class InteropError(OpenMPError):
    """An interop object was used before init or after destroy."""


class PortError(ReproError):
    """The CUDA->ompx source translator could not translate an input."""


class PerfModelError(ReproError):
    """The performance model received inconsistent inputs."""


class SchedulerError(ReproError):
    """The multi-device scheduler was misused or a pool operation failed.

    Raised for bad pool configuration, submissions to a closed pool,
    unknown placement policies, and future timeouts.  Kernel failures
    *inside* a pool worker are not wrapped: the worker stores the
    original :class:`GpuError`/:class:`KernelFault` on the future so
    callers see exactly what a single-device run would have seen."""


class CancelledError(SchedulerError):
    """A pool job was cancelled before it started executing.

    Raised from :meth:`KernelFuture.result` when the future was cancelled
    explicitly (:meth:`KernelFuture.cancel`), when its pool was closed
    with ``drain=False``, or when its device was reset while the job was
    still queued.  ``retryable`` marks cancellations the resilience layer
    may transparently re-execute (a device reset during recovery); an
    explicit user cancel is never retried.
    """

    def __init__(self, message: str = "", *, retryable: bool = False) -> None:
        super().__init__(message)
        self.retryable = retryable


class WatchdogTimeout(GpuError):
    """A pool job exceeded its execution deadline and was timed out.

    The structured failure the :mod:`repro.resilience` watchdog converts a
    hung kernel into: it names the offending kernel label, the device it
    hung on, and the deadline that expired.  The job's worker thread may
    still be running (threads cannot be killed); the device is pulled
    from placement until it drains and passes a canary probe.
    """

    def __init__(
        self,
        message: str = "",
        *,
        kernel: "str | None" = None,
        device: "int | None" = None,
        deadline_s: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.kernel = kernel
        self.device = device
        self.deadline_s = deadline_s

    def __str__(self) -> str:
        base = super().__str__()
        extra = []
        if self.kernel is not None:
            extra.append(f"kernel={self.kernel}")
        if self.device is not None:
            extra.append(f"device={self.device}")
        if self.deadline_s is not None:
            extra.append(f"deadline={self.deadline_s}s")
        return f"{base} [{', '.join(extra)}]" if extra else base


class ClusterError(SchedulerError):
    """The multi-process cluster layer was misused or failed to start.

    Raised for bad :class:`~repro.cluster.ClusterPool` configuration,
    submissions to a closed cluster, payloads that cannot cross a process
    boundary (device-resident pointers, unpicklable callables), and
    spawn failures.  Failures *inside* a worker's job are not wrapped:
    the worker pickles the original error back, so a clustered run fails
    exactly like an in-process pooled run would.
    """


class WorkerLost(_FieldEquality, ClusterError):
    """A cluster worker process died (or was declared dead) with jobs on it.

    The cross-process analogue of a retired device: supervision detected
    the loss (process exit, broken pipe, or a missed liveness deadline —
    see :class:`HeartbeatTimeout`), quarantined the worker as a
    super-device, and redispatched its relocatable jobs to survivors.
    This error surfaces only on futures that could *not* be relocated:
    jobs pinned to the lost worker's devices, jobs over the redispatch
    budget, or any job when no workers survive.
    """

    _FIELDS = ("worker", "reason", "jobs_lost")

    def __init__(
        self,
        message: str = "",
        *,
        worker: "int | None" = None,
        reason: "str | None" = None,
        jobs_lost: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.worker = worker
        self.reason = reason
        self.jobs_lost = jobs_lost

    def __str__(self) -> str:
        base = super().__str__()
        extra = []
        if self.worker is not None:
            extra.append(f"worker={self.worker}")
        if self.reason is not None:
            extra.append(f"reason={self.reason}")
        if self.jobs_lost is not None:
            extra.append(f"jobs_lost={self.jobs_lost}")
        return f"{base} [{', '.join(extra)}]" if extra else base


class HeartbeatTimeout(WorkerLost):
    """A worker missed its liveness deadline (hung, not crashed).

    A worker's heartbeat thread beats on its own schedule, so a silent
    worker is one whose *process* stopped making progress — a hard hang,
    a stop signal, severe starvation.  Supervision treats it exactly
    like a crash (quarantine + redispatch), but reports the deadline
    that expired and when the worker was last heard from, because a hung
    worker — unlike a dead one — is also force-killed to reclaim it.
    """

    _FIELDS = WorkerLost._FIELDS + ("deadline_s", "last_seen_s")

    def __init__(
        self,
        message: str = "",
        *,
        worker: "int | None" = None,
        reason: "str | None" = None,
        jobs_lost: "int | None" = None,
        deadline_s: "float | None" = None,
        last_seen_s: "float | None" = None,
    ) -> None:
        super().__init__(
            message, worker=worker, reason=reason, jobs_lost=jobs_lost
        )
        self.deadline_s = deadline_s
        self.last_seen_s = last_seen_s

    def __str__(self) -> str:
        base = super().__str__()
        extra = []
        if self.deadline_s is not None:
            extra.append(f"deadline={self.deadline_s}s")
        if self.last_seen_s is not None:
            extra.append(f"last_seen={self.last_seen_s:.3f}s ago")
        return f"{base} [{', '.join(extra)}]" if extra else base


class ServeError(ReproError):
    """The kernel-serving tier was misused or a service operation failed.

    Raised for bad service configuration, submissions to a closed
    service, and dispatch failures the service cannot attribute to the
    submitting tenant's own job.  Failures *inside* a tenant's job are
    not wrapped: the dispatcher stores the original
    :class:`GpuError`/:class:`KernelFault` on the tenant's future so a
    served run fails exactly like a direct one would."""


class QueueFull(ServeError):
    """A submission was refused by admission control (backpressure).

    Carries the structured context a client needs to retry sensibly:
    which ``tenant`` was refused, which limit (``scope`` is ``"tenant"``
    or ``"global"``), and ``retry_after_s`` — the service's estimate of
    when capacity frees up, derived from its observed service times.
    """

    def __init__(
        self,
        message: str = "",
        *,
        tenant: "str | None" = None,
        scope: str = "tenant",
        retry_after_s: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.scope = scope
        self.retry_after_s = retry_after_s

    def __str__(self) -> str:
        base = super().__str__()
        extra = [f"scope={self.scope}"]
        if self.tenant is not None:
            extra.append(f"tenant={self.tenant}")
        extra.append(f"retry_after={self.retry_after_s:.3f}s")
        return f"{base} [{', '.join(extra)}]"


class SessionClosed(ServeError):
    """A submission arrived on a closed :class:`repro.serve.Session`."""


class _StructuredError(_FieldEquality, ReproError):
    """Errors built from their ``_FIELDS`` alone.

    Subclasses declare their structured context in ``_FIELDS`` and
    inherit the keyword constructor, field-sensitive equality and the
    ``[k=v, ...]`` rendering.

    Not exported: catch the concrete families (:class:`VendorError`,
    :class:`CheckpointError`, ...) instead.
    """

    def __init__(self, message: str = "", **fields) -> None:
        super().__init__(message)
        for name in self._FIELDS:
            setattr(self, name, fields.pop(name, None))
        if fields:
            raise TypeError(
                f"{type(self).__name__} got unexpected fields: "
                f"{', '.join(sorted(fields))}"
            )

    def __str__(self) -> str:
        base = super().__str__()
        extra = [
            f"{name}={getattr(self, name)!r}"
            for name in self._FIELDS
            if getattr(self, name) is not None
        ]
        return f"{base} [{', '.join(extra)}]" if extra else base


class VendorError(_StructuredError):
    """Base class for §3.6 vendor-library wrapper errors.

    Stream-bound handles run BLAS calls on stream worker threads and the
    cluster layer hands failures across processes, so — like
    :class:`LaunchError` — the structured context must survive pickling.
    Subclasses declare their context in ``_FIELDS`` and inherit
    field-sensitive equality and the ``[k=v, ...]`` rendering.
    """


class BlasDimensionError(VendorError):
    """A BLAS argument violates its dimension contract.

    Covers the classic cuBLAS ``CUBLAS_STATUS_INVALID_VALUE`` family: a
    leading dimension smaller than the matrix's row count, a vector
    increment below one, or a negative batch count.  ``param`` names the
    offending argument (``"lda"``, ``"incx"``, ``"batch_count"``, ...),
    ``value`` is what the caller passed and ``minimum`` the smallest
    legal value for this call; ``op`` is the BLAS entry point.
    """

    _FIELDS = ("op", "param", "value", "minimum")


class UnknownVendorError(VendorError):
    """No BLAS backend is registered for a device's vendor tag.

    ``vendor`` is the tag that failed to dispatch; ``known`` lists the
    tags the registry can serve (extend it with
    :func:`repro.ompx.vendor.register_backend`).
    """

    _FIELDS = ("vendor", "known")


class HandleDestroyedError(VendorError):
    """A BLAS call arrived on a destroyed handle (use-after-destroy).

    Mirrors ``CUBLAS_STATUS_NOT_INITIALIZED``: after
    ``ompxblas_destroy`` the handle is invalid, and any further call —
    including a second destroy — reports the ``op`` attempted and the
    ``device`` ordinal the handle belonged to, instead of silently
    computing on a dangling context.
    """

    _FIELDS = ("op", "device")


class CheckpointError(_StructuredError):
    """The checkpoint layer was misused or a checkpoint operation failed.

    Raised for bad :class:`repro.ckpt.CheckpointSession` configuration
    (a directory path occupied by a regular file, a non-positive
    cadence) and for resume-identity mismatches: resuming a chain that
    was written by a *different* run (other app, variant, params digest,
    shard count, or fault plan) is an error, never a silent restart,
    because the snapshots would be meaningless for the new run.

    Chains cross process boundaries (the supervisor that resumes is a
    fresh process, and chaos tests hand failures back over pipes), so —
    like :class:`VendorError` — the structured context must survive
    pickling.  ``path`` names the checkpoint file or directory involved.
    """

    _FIELDS = ("path",)


class CorruptCheckpointError(CheckpointError):
    """A snapshot file failed validation when read back.

    Covers every way bytes on disk can lie: a truncated payload
    (``length`` short of the header's promise), a digest mismatch
    (bit-rot or an injected ``checkpoint_read`` corruption), an
    unparseable header, or an unknown schema version.  The reader treats
    this as a *fallback* signal — older snapshots in the chain are tried
    before the run restarts from step zero — so in normal operation this
    error is caught, logged as a :class:`RuntimeWarning`, and counted,
    not surfaced.

    ``step`` is the snapshot's step index if the header survived,
    ``reason`` the validation stage that failed, and
    ``expected_digest``/``actual_digest`` the content fingerprints when
    the mismatch was digest-level.
    """

    _FIELDS = ("path", "step", "reason", "expected_digest", "actual_digest")


class AppError(ReproError):
    """A benchmark application failed (bad arguments, failed checksum)."""
