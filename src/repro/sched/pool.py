"""The multi-device execution service: :class:`DevicePool` + futures.

A pool owns N fresh :class:`~repro.gpu.device.Device` instances (mixed
A100/MI250 presets allowed) registered in the global device registry, so
everything that keys off ordinals — :class:`DevicePointer` ownership,
``faults.inject(device=...)`` selectors, trace spans — works inside pool
workers exactly as it does on the default devices.  One worker thread per
device drains a FIFO of jobs; ``submit`` returns a :class:`KernelFuture`
the caller can block on, interrogate for the failure, or hand to
:func:`repro.sched.gather`.

Placement is pluggable: ``round_robin`` (default), ``least_loaded``
(fewest queued-or-running jobs), a callable ``pool -> Device``, or an
explicit ``device=`` per submission (a pool-relative index or one of the
pool's devices).

Futures are single-assignment: the first writer (worker result, worker
exception, :meth:`KernelFuture.cancel`, or a watchdog timeout from
:mod:`repro.resilience`) wins and later completions are dropped as
stale.  Queued-but-unstarted jobs can be cancelled — explicitly, by
``close(drain=False)``, or by a device reset, which drains that device's
queue deterministically instead of racing the worker thread.

Tracing: each worker runs its jobs under a ``device:<ordinal>`` track, so
the Perfetto export of a multi-device run shows one row per device with
the kernels (and their queued/exec stream spans) nested under it.
"""

from __future__ import annotations

import queue
import threading
import warnings
from typing import Callable, List, Optional, Sequence, Union

from ..errors import CancelledError, SchedulerError
from ..gpu.device import (
    A100_SPEC,
    Device,
    DeviceSpec,
    add_device,
    remove_device,
)
from ..gpu.launch import LaunchConfig, launch_kernel
from ..trace import get_tracer
from .future import Future

__all__ = ["KernelFuture", "DevicePool"]

#: What ``DevicePool(placement=...)`` accepts.
PlacementPolicy = Union[str, Callable[["DevicePool"], Device]]


class KernelFuture(Future):
    """The result handle for one pool submission.

    Resolves to the job's return value (for kernel submissions, the
    :class:`~repro.gpu.engine.KernelStats`) or to its exception — which is
    the *original* error, not a wrapper, so a sticky-context failure on
    one pool device looks exactly like it would on a single-device run.
    ``device`` and ``track`` record where the job ran (``track`` is the
    trace track pool workers span under, for joining futures against a
    Perfetto export).

    Completion is first-writer-wins (see :class:`~repro.sched.Future`):
    a worker finishing a job the watchdog already timed out (or a caller
    already cancelled) is recorded as a stale completion rather than a
    second answer.
    """

    def __init__(self, label: str, device: Device) -> None:
        super().__init__(label)
        self.device = device
        self.track = f"device:{device.ordinal}"
        self._started = False
        #: Invoked (no args) when a completion arrives after the future
        #: is already done — e.g. the worker finishing a job the watchdog
        #: timed out.  The resilience layer counts these.
        self.stale_callback: Optional[Callable[[], None]] = None
        self._callbacks: List[Callable[["KernelFuture"], None]] = []

    # --- worker side --------------------------------------------------------
    def _start(self) -> bool:
        """Claim the job (pending -> running); ``False`` if already
        claimed, cancelled or timed out."""
        with self._lock:
            if self._started or self._event.is_set():
                return False
            self._started = True
            return True

    def _settle(self, result=None, exc: Optional[BaseException] = None) -> bool:
        if not super()._settle(result, exc):
            callback = self.stale_callback
            if callback is not None:
                callback()
            return False
        self._invoke_callbacks()
        return True

    def _invoke_callbacks(self) -> None:
        with self._lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(self)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                warnings.warn(
                    f"KernelFuture done-callback for {self.label!r} raised "
                    f"{type(exc).__name__}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    # --- completion notification -------------------------------------------
    def add_done_callback(self, fn: Callable[["KernelFuture"], None]) -> None:
        """Invoke ``fn(future)`` when the job completes.

        Runs on the thread that completes the future (the pool worker, or
        the canceller); if the future is already done, ``fn`` runs
        immediately on the calling thread.  Callback exceptions are
        reported as :class:`RuntimeWarning`\\ s rather than crashing the
        pool worker.  The cluster tier uses this to stream results back
        over a pipe without a waiter thread per job.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    # --- caller side --------------------------------------------------------
    def cancel(self, reason: str = "cancelled", *, retryable: bool = False) -> bool:
        """Cancel the job if it has not started executing yet.

        Returns ``True`` when the future now resolves to
        :class:`~repro.errors.CancelledError`; ``False`` when the job is
        already running or finished (a running job cannot be interrupted —
        that is the watchdog's department).  The owning worker skips
        cancelled jobs when it dequeues them.
        """
        if not self._start():
            return False
        cancelled = CancelledError(
            f"job {self.label!r} on device {self.device.ordinal}: {reason}",
            retryable=retryable,
        )
        # Settle through the base: a cancel that loses to a watchdog
        # timeout in between is not a stale completion.
        if not Future._settle(self, exc=cancelled):
            return False
        self._invoke_callbacks()
        return True

    def _describe(self) -> str:
        return f"future {self.label!r} on device {self.device.ordinal}"


class DevicePool:
    """N simulated devices, one worker thread each, futures-based submit.

    ``DevicePool(4)`` builds four A100s; ``DevicePool(specs=[A100_SPEC,
    MI250_SPEC])`` builds a mixed pool.  The pool's devices are fresh
    registry entries (ordinals above the Figure-7 defaults), torn down
    again by :meth:`close` — use the pool as a context manager.
    """

    def __init__(
        self,
        devices: int = 0,
        *,
        specs: Optional[Sequence[DeviceSpec]] = None,
        placement: PlacementPolicy = "round_robin",
    ) -> None:
        if specs is None:
            if devices <= 0:
                raise SchedulerError(
                    "DevicePool needs devices >= 1 (or an explicit specs= list)"
                )
            specs = [A100_SPEC] * devices
        elif devices and devices != len(specs):
            raise SchedulerError(
                f"devices={devices} disagrees with len(specs)={len(specs)}"
            )
        if not specs:
            raise SchedulerError("DevicePool needs at least one device spec")
        if isinstance(placement, str) and placement not in ("round_robin", "least_loaded"):
            raise SchedulerError(
                f"unknown placement policy {placement!r}; use 'round_robin', "
                f"'least_loaded', or a callable"
            )
        self._placement = placement
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._closed = False
        self._rr = 0
        self.devices: List[Device] = [add_device(spec) for spec in specs]
        self._pending = {d.ordinal: 0 for d in self.devices}
        # Epoch per device: a device reset bumps it, and the worker
        # cancels any dequeued job carrying a stale epoch — that is how
        # "reset drains the queue" is implemented without two threads
        # racing for the same queue items.
        self._epochs = {d.ordinal: 0 for d in self.devices}
        self._running_label = {d.ordinal: None for d in self.devices}
        self._queues = {
            d.ordinal: queue.Queue() for d in self.devices
        }
        self._workers = []
        self._worker_by_ordinal = {}
        for device in self.devices:
            worker = threading.Thread(
                target=self._run_worker,
                args=(device, self._queues[device.ordinal]),
                name=f"pool-dev{device.ordinal}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
            self._worker_by_ordinal[device.ordinal] = worker
            device.add_reset_hook(self._on_device_reset)

    # --- worker loop --------------------------------------------------------
    def _run_worker(self, device: Device, jobs: "queue.Queue") -> None:
        while True:
            item = jobs.get()
            if item is None:
                break
            future, fn, epoch = item
            try:
                with self._lock:
                    stale = epoch != self._epochs[device.ordinal]
                if stale:
                    future.cancel(
                        "device reset while the job was queued", retryable=True
                    )
                    continue
                if not future._start():
                    continue  # cancelled while queued
                with self._lock:
                    self._running_label[device.ordinal] = future.label
                tracer = get_tracer()
                try:
                    if tracer is None:
                        result = fn(device)
                    else:
                        # Everything the job does (launches, memcpys, stream
                        # spans via on_track inheritance) lands on this
                        # device's own track.
                        track = f"device:{device.ordinal}"
                        with tracer.on_track(track):
                            with tracer.span(
                                f"pool:{future.label}", cat="sched", track=track,
                                device=device.ordinal,
                            ):
                                result = fn(device)
                except BaseException as exc:  # noqa: BLE001 - handed to the future
                    future._set_exception(exc)
                else:
                    future._set_result(result)
            finally:
                with self._lock:
                    self._pending[device.ordinal] -= 1
                    self._running_label[device.ordinal] = None
                    if self._pending[device.ordinal] == 0:
                        self._idle.notify_all()

    # --- device reset coordination -----------------------------------------
    def _on_device_reset(self, device: Device) -> None:
        """Quiesce one pool worker ahead of a device reset.

        Bumps the device's epoch so every job queued before the reset is
        cancelled (:class:`CancelledError`, ``retryable=True``) instead of
        running against the torn-down context, then waits for the worker
        to drain — including the in-flight job, which is allowed to
        finish so the teardown never pulls the allocator out from under
        it.  No-op when the reset comes from the worker itself (a job
        calling ``ompx_device_reset`` on its own device) or when the pool
        is already closed.
        """
        with self._lock:
            if self._closed or device.ordinal not in self._epochs:
                return
            self._epochs[device.ordinal] += 1
        if threading.current_thread() is self._worker_by_ordinal.get(device.ordinal):
            return  # the worker is resetting its own device; don't self-join
        if not self.wait_idle(device, timeout=30.0):
            warnings.warn(
                f"device {device.ordinal} reset proceeding while its pool "
                f"worker is still running "
                f"{self._running_label.get(device.ordinal)!r}",
                RuntimeWarning,
                stacklevel=3,
            )

    def wait_idle(self, device, timeout: Optional[float] = None) -> bool:
        """Block until a pool device has no queued or running jobs."""
        target = self._resolve_pool_device(device)
        with self._idle:
            return self._idle.wait_for(
                lambda: self._pending[target.ordinal] == 0, timeout
            )

    # --- placement ----------------------------------------------------------
    def _resolve_pool_device(self, device) -> Device:
        """An explicit ``device=``: a pool index or one of our devices."""
        if isinstance(device, Device):
            if device not in self.devices:
                raise SchedulerError(
                    f"device {device.ordinal} does not belong to this pool"
                )
            return device
        try:
            index = int(device)
        except (TypeError, ValueError):
            raise SchedulerError(
                f"submit(device=...) takes a pool index or a pool Device, "
                f"got {device!r}"
            ) from None
        if not 0 <= index < len(self.devices):
            raise SchedulerError(
                f"pool index {index} out of range (pool has "
                f"{len(self.devices)} devices)"
            )
        return self.devices[index]

    def _place(self, device) -> Device:
        if device is not None:
            return self._resolve_pool_device(device)
        if callable(self._placement):
            chosen = self._placement(self)
            if chosen not in self.devices:
                raise SchedulerError(
                    "placement callable must return one of the pool's devices"
                )
            return chosen
        with self._lock:
            if self._placement == "round_robin":
                chosen = self.devices[self._rr % len(self.devices)]
                self._rr += 1
                return chosen
            # least_loaded: fewest queued-or-running jobs; ties go to the
            # lowest ordinal so placement is deterministic.
            return min(self.devices, key=lambda d: (self._pending[d.ordinal], d.ordinal))

    def load(self, device: Device) -> int:
        """Queued-or-running job count for one pool device."""
        with self._lock:
            return self._pending[device.ordinal]

    # --- submission ---------------------------------------------------------
    def _submit(self, fn: Callable[[Device], object], device, label: str) -> KernelFuture:
        with self._lock:
            if self._closed:
                raise SchedulerError("submit on a closed DevicePool")
        target = self._place(device)
        future = KernelFuture(label, target)
        with self._lock:
            if self._closed:
                raise SchedulerError("submit on a closed DevicePool")
            self._pending[target.ordinal] += 1
            epoch = self._epochs[target.ordinal]
        self._queues[target.ordinal].put((future, fn, epoch))
        return future

    def submit(
        self,
        kernel,
        config: LaunchConfig,
        *args,
        device=None,
        label: Optional[str] = None,
    ) -> KernelFuture:
        """Launch ``kernel`` with ``config`` on a pool device; return a future.

        ``kernel`` is anything :func:`~repro.gpu.launch.launch_kernel`
        accepts (a raw engine callable or a front-end ``KernelFunction``
        with an ``.entry``).  The future resolves to the launch's
        :class:`~repro.gpu.engine.KernelStats`.
        """
        entry = getattr(kernel, "entry", kernel)
        name = label or getattr(
            getattr(kernel, "fn", None) or kernel, "__name__", "kernel"
        )
        return self._submit(
            lambda dev: launch_kernel(config, entry, tuple(args), dev),
            device,
            name,
        )

    def submit_call(
        self,
        fn: Callable[[Device], object],
        *,
        device=None,
        label: Optional[str] = None,
        shard: bool = False,
    ) -> KernelFuture:
        """Run ``fn(device)`` on a pool worker; return a future.

        The host-side escape hatch the app sharding layer uses: the
        callable gets the placed :class:`Device` and may malloc, memcpy,
        launch and synchronize against it — all on the worker thread, so
        per-device fault selectors and trace tracks see the right device.

        ``shard`` exists for signature compatibility with
        :meth:`repro.resilience.ResilientPool.submit_call` (where it
        marks the job for re-executed-shard accounting); a plain pool has
        no recovery report, so here it is accepted and ignored.
        """
        del shard  # accounting flag; meaningful only on a ResilientPool
        name = label or getattr(fn, "__name__", "call")
        return self._submit(fn, device, name)

    # --- lifecycle ----------------------------------------------------------
    def synchronize(self) -> None:
        """Block until every queued job has finished on every device.

        Implemented as a fence job per worker: FIFO order guarantees the
        fence runs only after everything submitted before it.
        """
        fences = [
            self.submit_call(lambda dev: None, device=i, label="pool-fence")
            for i in range(len(self.devices))
        ]
        for fence in fences:
            fence.wait()

    def close(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the workers and unregister the pool's devices.

        With ``drain=True`` (the default) outstanding futures finish
        first; with ``drain=False`` every queued-but-unstarted job is
        cancelled (its future resolves to
        :class:`~repro.errors.CancelledError`) and only the jobs already
        executing run to completion.  A worker that fails to join within
        ``timeout`` seconds is reported with the label of the job it is
        stuck on (:class:`RuntimeWarning`) instead of being silently
        abandoned.  Pool :class:`DevicePointer` handles become invalid,
        as after ``cudaDeviceReset``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                # Stale-epoch jobs are cancelled by the worker as it
                # drains to the shutdown sentinel.
                for ordinal in self._epochs:
                    self._epochs[ordinal] += 1
        for device in self.devices:
            self._queues[device.ordinal].put(None)
        stuck = []
        for device, worker in zip(self.devices, self._workers):
            worker.join(timeout=timeout)
            if worker.is_alive():
                with self._lock:
                    label = self._running_label.get(device.ordinal)
                stuck.append((device.ordinal, label))
        if stuck:
            detail = ", ".join(
                f"device {ordinal} (stuck on {label!r})" for ordinal, label in stuck
            )
            warnings.warn(
                f"DevicePool.close: {len(stuck)} worker(s) failed to join "
                f"within {timeout}s: {detail}",
                RuntimeWarning,
                stacklevel=2,
            )
        for device in self.devices:
            device.remove_reset_hook(self._on_device_reset)
            remove_device(device.ordinal)

    def __enter__(self) -> "DevicePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __len__(self) -> int:
        return len(self.devices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(f"dev{d.ordinal}" for d in self.devices)
        return f"<DevicePool [{names}] placement={self._placement!r}>"
