"""The worker-process side of :mod:`repro.cluster`.

Each worker is a *spawned* OS process hosting its own slice of the
simulated machine: a fresh :class:`~repro.sched.DevicePool` over the
specs assigned to it (optionally wrapped in a
:class:`~repro.resilience.ResilientPool`, so device-level healing keeps
working *inside* the worker while the parent supervises the worker as a
whole).  The parent talks to it over one duplex pipe with a tiny framed
protocol:

parent -> worker
    ``("job", job_id, payload_bytes)``  dispatch one pickled job spec
    ``("stop", drain)``                 shut down (drain or cancel queued)

worker -> parent
    ``("hb", seq)``                     heartbeat; ``seq == 0`` means ready
    ``("rec", kind, detail, count)``    a resilient worker's recovery record
    ``("ok", job_id, result_bytes)``    job succeeded (pickled result)
    ``("err", job_id, exc_bytes)``      job failed (pickled exception)
    ``("bye",)``                        clean shutdown acknowledged

A ``rec`` message is sent as the worker's :class:`ResilientPool` records
the action, so the records a job's recovery made arrive ahead of its
reply; the parent adds each to ``ClusterPool.report``, its detail
prefixed ``worker N:``.

A job spec is one of two kinds:

``{"kind": "call", "fn": ...}``
    a picklable callable run as ``fn(device)`` on the worker's pool.
    Kernels ride this kind too: :meth:`ClusterPool.submit` ships
    :func:`_launch_by_reference` over the kernel's ``(module, qualname)``
    pair, because decorator wrapper objects do not pickle.
``{"kind": "action", "action": ...}``
    a :class:`~repro.cluster.ClusterAction` run on its own thread against
    the worker's :class:`WorkerContext` (scatter participants, the
    restart canary).

Results and exceptions (with their cause chains) are pre-pickled on the
worker; anything unpicklable is downgraded to a descriptive
:class:`~repro.errors.ClusterError` so the parent never loses a future
to a serialization failure.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, List, Optional, Tuple

from ..errors import ClusterError
from ..gpu.launch import launch_kernel
from ..resilience.report import RecoveryReport

__all__ = ["WorkerConfig", "WorkerContext"]

#: Heartbeat sequence 0 is reserved for the readiness announcement.
READY_SEQ = 0


@dataclass
class WorkerConfig:
    """Everything a spawned worker needs to build its half of the machine.

    Must stay picklable (it rides the spawn ``Process(args=...)``);
    device specs pickle by value, the fault plan travels pre-pickled so
    the parent can bind/rebind without importing worker state.
    """

    rank: int
    size: int
    global_indices: List[int]
    specs: List[Any]
    heartbeat_s: float = 0.25
    resilient: bool = False
    verify: int = 1
    seed: int = 0
    plan_bytes: Optional[bytes] = None


@dataclass
class WorkerContext:
    """What a :class:`~repro.cluster.ClusterAction` sees when it runs.

    ``global_indices`` maps the worker's local devices back to
    cluster-wide super-device indices.
    """

    rank: int
    size: int
    pool: Any
    devices: List[Any]
    global_indices: List[int]


def _fence(device) -> None:
    """Module-level no-op fence job (lambdas do not pickle)."""
    del device


def _launch_by_reference(module: str, qualname: str, config, args: Tuple,
                         device):
    """The ``call`` that :meth:`ClusterPool.submit` ships a kernel as:
    re-import it by reference and launch it on the placed device."""
    kernel = _resolve_kernel(module, qualname)
    return launch_kernel(config, getattr(kernel, "entry", kernel), args, device)


def _resolve_kernel(module: str, qualname: str):
    """Re-import a kernel shipped by reference (wrappers do not pickle)."""
    try:
        obj: Any = import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return obj
    except (ImportError, AttributeError) as exc:
        raise ClusterError(
            f"worker could not resolve kernel {module}.{qualname}: {exc}"
        ) from exc


def _relink(chain: List[BaseException]) -> BaseException:
    """Unpickle an exception sent with its cause chain (see :class:`_Chained`)."""
    for exc, cause in zip(chain, chain[1:]):
        exc.__cause__ = cause
    return chain[0]


class _Chained:
    """Pickles an exception together with its cause chain, which pickling
    alone drops, so the parent classifies a failure (a KernelFault behind
    a LaunchError, say) as an in-process caller would."""

    def __init__(self, exc: Optional[BaseException]) -> None:
        self.chain: List[BaseException] = []
        while exc is not None and len(self.chain) < 16:
            self.chain.append(exc)
            exc = exc.__cause__ or exc.__context__

    def __reduce__(self):
        return _relink, (self.chain,)


def _pickle_or_error(value: Any, *, label: str) -> bytes:
    """Pickle ``value``, an exception with its cause chain when every link
    pickles; fall back to a ClusterError describing why not."""
    try:
        if isinstance(value, BaseException):
            try:
                return pickle.dumps(_Chained(value))
            except Exception:  # noqa: BLE001 - an unpicklable cause: send the error alone
                pass
        return pickle.dumps(value)
    except Exception as exc:  # noqa: BLE001 - any pickling failure
        fallback = ClusterError(
            f"job {label!r} produced an unpicklable "
            f"{type(value).__name__}: {exc}"
        )
        return pickle.dumps(fallback)


class _ForwardedReport(RecoveryReport):
    """A resilient worker's recovery report: every record also goes to the
    parent as a ``rec`` message."""

    def __init__(self, runtime: "_WorkerRuntime") -> None:
        super().__init__()
        self._runtime = runtime

    def record(self, kind: str, detail: str = "", *, count: int = 1) -> None:
        # Recording here first refuses an unknown kind in the worker, not
        # in the parent's receiver thread.
        super().record(kind, detail, count=count)
        rank = self._runtime.config.rank
        self._runtime.send(("rec", kind, f"worker {rank}: {detail}", count))


class _WorkerRuntime:
    """The in-process state of one worker: pool, heartbeats, dispatch."""

    def __init__(self, conn, config: WorkerConfig) -> None:
        self.conn = conn
        self.config = config
        self.send_lock = threading.Lock()
        self.stop_event = threading.Event()
        self.inner_pool = None  # the raw DevicePool (owns the devices)
        self.pool = None  # what jobs run against (maybe ResilientPool)
        self.context: Optional[WorkerContext] = None
        self._plan_cm = None
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # --- plumbing -----------------------------------------------------------
    def send(self, message: Tuple) -> None:
        """Pipe sends are not atomic across threads; serialize them."""
        with self.send_lock:
            try:
                self.conn.send(message)
            except (BrokenPipeError, OSError):
                # Parent is gone; nothing left to report to.
                self.stop_event.set()

    def _job_started(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def _job_finished(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()

    def _wait_inflight(self, timeout: float) -> bool:
        """Wait for every accepted job to report back (drain shutdown)."""
        deadline = timeout
        with self._inflight_cv:
            return self._inflight_cv.wait_for(
                lambda: self._inflight == 0, timeout=deadline
            )

    def _heartbeat_loop(self) -> None:
        seq = READY_SEQ + 1
        while not self.stop_event.wait(self.config.heartbeat_s):
            self.send(("hb", seq))
            seq += 1

    # --- setup / teardown ---------------------------------------------------
    def start(self) -> None:
        from ..sched import DevicePool

        self.inner_pool = DevicePool(specs=list(self.config.specs))
        self.pool = self.inner_pool
        if self.config.plan_bytes is not None:
            from .. import faults

            plan = pickle.loads(self.config.plan_bytes)
            # Map cluster-wide super-device selectors onto this worker's
            # local pool ordinals; selectors for other workers' devices
            # keep matching raw ordinals, which local pool devices
            # (fresh registry entries above the defaults) never use.
            plan.bind_devices(
                {
                    global_idx: device.ordinal
                    for global_idx, device in zip(
                        self.config.global_indices, self.inner_pool.devices
                    )
                }
            )
            self._plan_cm = faults.inject(plan)
            self._plan_cm.__enter__()
        if self.config.resilient:
            from ..resilience import ResilientPool

            self.pool = ResilientPool(
                self.inner_pool,
                verify=self.config.verify,
                seed=self.config.seed + self.config.rank,
                report=_ForwardedReport(self),
            )
        self.context = WorkerContext(
            rank=self.config.rank,
            size=self.config.size,
            pool=self.pool,
            devices=list(self.inner_pool.devices),
            global_indices=list(self.config.global_indices),
        )

    def shutdown(self, drain: bool) -> None:
        try:
            if self.pool is not None and self.pool is not self.inner_pool:
                self.pool.close(drain=drain)
            if self.inner_pool is not None:
                self.inner_pool.close(drain=drain)
        finally:
            if self._plan_cm is not None:
                self._plan_cm.__exit__(None, None, None)
                self._plan_cm = None

    # --- job dispatch -------------------------------------------------------
    def dispatch(self, job_id: int, payload: bytes) -> None:
        try:
            spec = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            self.send(
                (
                    "err",
                    job_id,
                    pickle.dumps(
                        ClusterError(f"worker could not unpickle job: {exc}")
                    ),
                )
            )
            return
        kind = spec.get("kind")
        label = spec.get("label") or kind or "job"
        self._job_started()
        try:
            if kind == "action":
                # Actions block on their own pool's futures, so they must
                # never run on a pool worker thread: each gets its own.
                action = spec["action"]
                threading.Thread(
                    target=self._reply,
                    args=(job_id, label, lambda: action.invoke(self.context)),
                    name=f"cluster-action-{job_id}", daemon=True,
                ).start()
                return
            if kind != "call":
                raise ClusterError(f"unknown cluster job kind {kind!r}")
            future = self.pool.submit_call(
                spec["fn"],
                device=spec.get("device"),
                label=label,
                shard=bool(spec.get("shard", False)),
            )
        except Exception as exc:  # noqa: BLE001 - submission failed
            self.send(("err", job_id, _pickle_or_error(exc, label=label)))
            self._job_finished()
            return
        self._attach(job_id, label, future)

    def _attach(self, job_id: int, label: str, future) -> None:
        """Stream a future's completion back over the pipe.

        Plain :class:`KernelFuture`\\ s support ``add_done_callback`` —
        no extra thread.  :class:`ResilientFuture`\\ s resolve on the
        waiting thread (retries happen there), so those get a waiter.
        """
        if hasattr(future, "add_done_callback"):
            future.add_done_callback(
                lambda fut: self._reply(job_id, label, fut.result)
            )
            return
        waiter = threading.Thread(
            target=self._reply,
            args=(job_id, label, future.result),
            name=f"cluster-wait-{job_id}",
            daemon=True,
        )
        waiter.start()

    def _reply(self, job_id: int, label: str, outcome: Callable[[], object]) -> None:
        """Send the ``ok``/``err`` reply for one accepted job.

        ``outcome()`` returns the job's result or raises its failure — a
        future's ``result`` or an action's ``invoke``.  Whatever it raises,
        resolution blowing up included, becomes the ``err`` reply, so the
        parent always hears back and the job always leaves the in-flight
        count.
        """
        try:
            try:
                result = outcome()
            except Exception as exc:  # noqa: BLE001 - report, don't die
                self.send(("err", job_id, _pickle_or_error(exc, label=label)))
                return
            self.send(("ok", job_id, _pickle_or_error(result, label=label)))
        finally:
            self._job_finished()

    # --- main loop ----------------------------------------------------------
    def run(self) -> None:
        self.start()
        self.send(("hb", READY_SEQ))
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="cluster-heartbeat", daemon=True
        )
        heartbeat.start()
        drain = True
        try:
            while True:
                try:
                    message = self.conn.recv()
                except (EOFError, OSError):
                    drain = False
                    break
                if message[0] == "job":
                    self.dispatch(message[1], message[2])
                elif message[0] == "stop":
                    drain = bool(message[1])
                    break
        finally:
            self.stop_event.set()
            if drain:
                # Don't announce bye while completions are still in
                # flight — the parent treats post-bye silence as final.
                self._wait_inflight(timeout=30.0)
            try:
                self.shutdown(drain)
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
            self.send(("bye",))
            try:
                self.conn.close()
            except OSError:
                pass


def _worker_main(conn, config: WorkerConfig) -> None:
    """Spawn entry point (must be module-level to pickle by reference)."""
    _WorkerRuntime(conn, config).run()
