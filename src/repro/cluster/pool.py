"""The parent-side :class:`ClusterPool`: supervision over worker processes.

A :class:`ClusterPool` satisfies :class:`~repro.sched.PoolProtocol` by
sharding submissions across spawned worker OS processes, each hosting a
slice of a :class:`~repro.sched.DevicePool` (see
:mod:`repro.cluster.worker`).  The parent never touches a simulated
device itself — its ``devices`` are :class:`DeviceProxy` stand-ins, one
per remote device, numbered with cluster-wide *super-device* indices.

The robustness core is the supervisor: every worker heartbeats on its
pipe; a worker whose process exits, whose pipe drops, or whose heartbeat
goes silent past the liveness deadline is declared **lost** and handled
exactly like a failed device one tier down — the
:class:`~repro.resilience.HealthTracker` state machine quarantines the
worker (a lost worker is a quarantined *super-device*), its in-flight
unpinned jobs are redispatched to the survivors after a seeded backoff,
pinned jobs fail with :class:`~repro.errors.WorkerLost` (or
:class:`~repro.errors.HeartbeatTimeout` for silent hangs), and — when
``restart=True`` — a replacement process is spawned, canary-probed, and
readmitted to HEALTHY on a passing probe or RETIRED on a failing one.
Every recovery action lands in the shared
:class:`~repro.resilience.RecoveryReport`.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import threading
import time
import warnings
from random import Random
from typing import Callable, Dict, List, Optional, Sequence

from .. import trace
from ..errors import (
    CancelledError,
    ClusterError,
    HeartbeatTimeout,
    WorkerLost,
)
from ..faults import active_plan
from ..gpu.device import A100_SPEC, DeviceSpec
from ..gpu.kernel import kernel_name
from ..gpu.memory import DevicePointer
from ..resilience.health import HealthTracker
from ..resilience.report import RecoveryReport
from ..sched.future import Future
from .actions import ClusterAction, _Canary
from .worker import (
    READY_SEQ,
    WorkerConfig,
    _fence,
    _launch_by_reference,
    _worker_main,
)

__all__ = ["ClusterPool", "DeviceProxy", "ClusterFuture"]

_job_ids = itertools.count(1)

#: Worker handle lifecycle states (internal).
_STARTING, _UP, _LOST, _RESPAWNING, _RETIRED, _STOPPED = (
    "starting", "up", "lost", "respawning", "retired", "stopped",
)


class DeviceProxy:
    """Parent-side stand-in for one device living in a worker process.

    ``ordinal`` is the cluster-wide super-device index (what fault-plan
    ``device=`` selectors address under ``--cluster``); ``rank`` and
    ``local_index`` say where the real device lives.  Proxies expose the
    attribute surface layers above actually read (``spec``, ``ordinal``)
    — nothing device-resident crosses the process boundary.
    """

    def __init__(self, ordinal: int, spec: DeviceSpec, rank: int,
                 local_index: int) -> None:
        self.ordinal = ordinal
        self.spec = spec
        self.rank = rank
        self.local_index = local_index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DeviceProxy #{self.ordinal} {self.spec.name} "
            f"@ worker {self.rank}[{self.local_index}]>"
        )


class ClusterFuture(Future):
    """The result handle for one cluster submission.

    Shares :class:`~repro.sched.KernelFuture`'s caller surface through
    the :class:`~repro.sched.Future` base, so :func:`repro.sched.gather`
    and the serve dispatchers work unchanged.  ``attempts`` counts
    dispatches — a redispatch after a worker loss shows up exactly like
    a resilient retry.  Completion is first-writer-wins: a worker
    completing a job the supervisor already redispatched is dropped as
    stale.
    """

    def __init__(self, label: str, device: DeviceProxy, *,
                 pinned: bool) -> None:
        super().__init__(label)
        self.device = device
        self.track = f"worker:{device.rank}"
        self.pinned = pinned
        self.attempts = 0

    def cancel(self, reason: str = "cancelled", *,
               retryable: bool = False) -> bool:
        """Resolve to :class:`CancelledError` if not already completed."""
        return self._settle(exc=CancelledError(
            f"job {self.label!r} on super-device {self.device.ordinal}: "
            f"{reason}",
            retryable=retryable,
        ))

    def _describe(self) -> str:
        return f"future {self.label!r} on super-device {self.device.ordinal}"


class _Job:
    """One dispatchable unit: pre-pickled payload plus its future."""

    __slots__ = ("payload", "future")

    def __init__(self, payload: bytes, future: ClusterFuture) -> None:
        self.payload = payload
        self.future = future


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, rank: int, config: WorkerConfig) -> None:
        self.rank = rank
        self.config = config
        self.proc = None
        self.conn = None
        self.receiver: Optional[threading.Thread] = None
        self.send_lock = threading.Lock()
        self.ready = threading.Event()
        self.state = _STARTING
        self.last_seen = time.monotonic()
        self.inflight: Dict[int, _Job] = {}

    def send(self, message) -> bool:
        with self.send_lock:
            try:
                self.conn.send(message)
                return True
            except (BrokenPipeError, OSError, ValueError, TypeError,
                    AttributeError):
                # Loss handling may close (or null out) the connection
                # from the supervisor thread while a submitter is mid-
                # send; a closed/cleared handle surfaces as OSError,
                # ValueError("Connection is closed"), or a TypeError/
                # AttributeError from the stdlib writing to a None
                # handle.  All mean the same thing: the worker is gone.
                return False


class ClusterPool:
    """Work sharded across supervised worker processes, PoolProtocol-shaped.

    ``ClusterPool(3)`` spawns three workers with one A100 each;
    ``specs=[...]`` (a flat spec list, distributed round-robin) builds
    wider or heterogeneous clusters.  ``resilient=True`` wraps each
    worker's local pool in a :class:`~repro.resilience.ResilientPool`,
    stacking device-level healing *inside* workers under process-level
    supervision outside them.

    The fault plan active at construction (:func:`repro.faults.inject`)
    is pickled to every worker and re-bound so ``device=`` selectors
    address super-device indices; note fault trigger counters then count
    per worker process.
    """

    is_cluster = True

    def __init__(
        self,
        workers: int = 0,
        *,
        specs: Optional[Sequence[DeviceSpec]] = None,
        resilient: bool = False,
        verify: int = 1,
        seed: int = 0,
        report: Optional[RecoveryReport] = None,
        heartbeat_s: float = 0.25,
        deadline_s: float = 2.0,
        max_redispatch: int = 3,
        restart: bool = True,
        spawn_timeout_s: float = 30.0,
    ) -> None:
        if specs is None:
            if workers <= 0:
                raise ClusterError(
                    "ClusterPool needs workers >= 1 (or an explicit "
                    "specs= list)"
                )
            per_worker = [[A100_SPEC] for _ in range(workers)]
        else:
            specs = list(specs)
            if not specs:
                raise ClusterError("specs= must name at least one device")
            workers = workers or len(specs)
            if workers > len(specs):
                raise ClusterError(
                    f"workers={workers} exceeds len(specs)={len(specs)}"
                )
            per_worker = [specs[i::workers] for i in range(workers)]
        if deadline_s <= heartbeat_s:
            raise ClusterError(
                f"deadline_s={deadline_s} must exceed heartbeat_s="
                f"{heartbeat_s}; a deadline shorter than one heartbeat "
                f"declares every worker dead"
            )
        if resilient and verify == 2:
            narrow = [r for r, ws in enumerate(per_worker) if len(ws) < 2]
            if narrow:
                raise ClusterError(
                    f"resilient verify=2 cross-checks every shard on two "
                    f"devices inside one worker, but worker(s) {narrow} "
                    f"would host fewer than 2; pass specs= with 2 per "
                    f"worker or verify=1"
                )

        #: Whether each worker heals its own devices (a ResilientPool inside).
        self.resilient = resilient
        self.report = report or RecoveryReport()
        self.health = HealthTracker(
            workers, report=self.report, noun="worker"
        )
        self._heartbeat_s = heartbeat_s
        self._deadline_s = deadline_s
        self._max_redispatch = max_redispatch
        self._restart = restart
        self._spawn_timeout_s = spawn_timeout_s
        self._rng = Random(seed)
        self._lock = threading.Lock()
        self._rr = 0
        self._closing = False
        self._closed = False

        plan = active_plan()
        plan_bytes = pickle.dumps(plan) if plan is not None else None

        # Assign super-device indices in rank order: worker 0's devices
        # first, then worker 1's, so `--cluster 3` numbers its
        # super-devices 0..N-1 exactly like `--devices N` numbers shards.
        self._proxies: List[DeviceProxy] = []
        self._handles: List[_WorkerHandle] = []
        next_global = 0
        for rank, worker_specs in enumerate(per_worker):
            indices = list(
                range(next_global, next_global + len(worker_specs))
            )
            next_global += len(worker_specs)
            for local, (gidx, spec) in enumerate(
                zip(indices, worker_specs)
            ):
                self._proxies.append(DeviceProxy(gidx, spec, rank, local))
            self._handles.append(
                _WorkerHandle(
                    rank,
                    WorkerConfig(
                        rank=rank,
                        size=workers,
                        global_indices=indices,
                        specs=list(worker_specs),
                        heartbeat_s=heartbeat_s,
                        resilient=resilient,
                        verify=verify,
                        seed=seed,
                        plan_bytes=plan_bytes,
                    ),
                )
            )

        try:
            for handle in self._handles:
                self._start_worker(handle)
            deadline = time.monotonic() + spawn_timeout_s
            for handle in self._handles:
                remaining = max(0.0, deadline - time.monotonic())
                if not handle.ready.wait(remaining):
                    raise ClusterError(
                        f"worker {handle.rank} did not become ready within "
                        f"{spawn_timeout_s}s"
                    )
                with self._lock:
                    handle.state = _UP
                    handle.last_seen = time.monotonic()
        except Exception as exc:
            self._teardown_processes()
            if isinstance(exc, ClusterError):
                # Spawning failed outright: callers that can fall back to
                # an in-process pool (see ``repro.backend.open_pool``) key
                # off this.
                exc.degradable = True
                raise
            wrapped = ClusterError(f"cluster failed to start: {exc}")
            wrapped.degradable = True
            raise wrapped from exc

        self._supervisor = threading.Thread(
            target=self._supervise, name="cluster-supervisor", daemon=True
        )
        self._supervisor.start()

    # --- spawn / receive ----------------------------------------------------
    def _start_worker(self, handle: _WorkerHandle) -> None:
        """Spawn one worker process and its receiver thread."""
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, handle.config),
            name=f"cluster-worker-{handle.rank}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle.proc = proc
        handle.conn = parent_conn
        handle.ready.clear()
        handle.receiver = threading.Thread(
            target=self._receive,
            args=(handle,),
            name=f"cluster-recv-{handle.rank}",
            daemon=True,
        )
        handle.receiver.start()

    def _receive(self, handle: _WorkerHandle) -> None:
        conn = handle.conn
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                if not self._closing and handle.state in (_STARTING, _UP):
                    self._on_worker_lost(handle, reason="connection lost")
                return
            kind = message[0]
            if kind == "hb":
                handle.last_seen = time.monotonic()
                if message[1] == READY_SEQ:
                    handle.ready.set()
            elif kind == "rec":
                self.report.record(message[1], message[2], count=message[3])
            elif kind in ("ok", "err"):
                self._on_completion(handle, kind, message[1], message[2])
            elif kind == "bye":
                with self._lock:
                    if handle.state != _LOST:
                        handle.state = _STOPPED
                return

    def _on_completion(self, handle: _WorkerHandle, kind: str,
                       job_id: int, payload: bytes) -> None:
        with self._lock:
            job = handle.inflight.pop(job_id, None)
        if job is None:
            return  # redispatched elsewhere; stale completion
        try:
            value = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 - never lose a future
            job.future._settle(exc=ClusterError(
                f"could not unpickle worker {handle.rank}'s result for "
                f"{job.future.label!r}: {exc}"
            ))
            return
        trace.count("cluster_completions")
        if kind == "ok":
            job.future._settle(result=value)
        else:
            job.future._settle(exc=value)

    # --- supervision --------------------------------------------------------
    def _supervise(self) -> None:
        interval = max(0.05, self._heartbeat_s / 2.0)
        while not self._closing:
            time.sleep(interval)
            now = time.monotonic()
            for handle in self._handles:
                if handle.state != _UP:
                    continue
                exitcode = handle.proc.exitcode
                if exitcode is not None:
                    self._on_worker_lost(
                        handle, reason=f"process exited with code {exitcode}"
                    )
                elif now - handle.last_seen > self._deadline_s:
                    self._on_worker_lost(
                        handle,
                        reason=(
                            f"heartbeat silent for more than "
                            f"{self._deadline_s}s"
                        ),
                        hb_timeout=True,
                    )

    def _on_worker_lost(self, handle: _WorkerHandle, *, reason: str,
                        hb_timeout: bool = False) -> None:
        """Quarantine a lost worker, redispatch its orphans, respawn it."""
        if self._closing:
            return  # clean shutdown in progress; exits are expected
        with self._lock:
            if handle.state not in (_STARTING, _UP):
                return  # already handled by the other observer
            handle.state = _LOST
            orphans = list(handle.inflight.values())
            handle.inflight.clear()
        last_seen_ago = time.monotonic() - handle.last_seen
        self.report.record(
            "workers_lost", f"worker {handle.rank}: {reason}"
        )
        if hb_timeout:
            self.report.record(
                "heartbeat_timeouts",
                f"worker {handle.rank}: last heartbeat "
                f"{last_seen_ago:.2f}s ago",
            )
        self.health.quarantine(handle.rank, f"worker lost: {reason}")
        # The process is unreachable or wedged either way; reap it.
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.proc.is_alive():
            handle.proc.kill()

        def make_error() -> WorkerLost:
            if hb_timeout:
                return HeartbeatTimeout(
                    f"worker {handle.rank} lost: {reason}",
                    worker=handle.rank,
                    reason=reason,
                    jobs_lost=len(orphans),
                    deadline_s=self._deadline_s,
                    last_seen_s=round(last_seen_ago, 3),
                )
            return WorkerLost(
                f"worker {handle.rank} lost: {reason}",
                worker=handle.rank,
                reason=reason,
                jobs_lost=len(orphans),
            )

        if orphans:
            # One seeded backoff per loss event (not per job): gives a
            # crashing survivor a beat to be detected before we pile the
            # orphans onto it, deterministically under a fixed seed.
            time.sleep(self._rng.uniform(0.05, 0.15))
        for job in orphans:
            self._redispatch(job, make_error)
        if self._restart and not self._closing:
            with self._lock:
                handle.state = _RESPAWNING
            threading.Thread(
                target=self._respawn,
                args=(handle,),
                name=f"cluster-respawn-{handle.rank}",
                daemon=True,
            ).start()

    def _redispatch(self, job: _Job, make_error) -> None:
        future = job.future
        if future.done():
            return
        if future.pinned:
            # Pinned jobs touch worker-resident state; they cannot move.
            future._settle(exc=make_error())
            return
        if future.attempts > self._max_redispatch:
            future._settle(exc=ClusterError(
                f"job {future.label!r} lost {future.attempts} worker(s); "
                f"giving up after max_redispatch={self._max_redispatch}"
            ))
            return
        target = self._pick_worker(prefer_not=future.device.rank)
        if target is None:
            future._settle(exc=make_error())
            return
        self.report.record(
            "redispatches",
            f"{future.label!r}: worker {future.device.rank} -> "
            f"{target.rank}",
        )
        self._dispatch(target, job)

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Start a replacement process; canary-probe before readmitting."""
        try:
            if self._closing:
                return
            self._start_worker(handle)
            if self._closing:
                return
            if not handle.ready.wait(self._spawn_timeout_s):
                raise ClusterError(
                    f"restarted worker {handle.rank} never became ready"
                )
            with self._lock:
                handle.state = _UP
                handle.last_seen = time.monotonic()
            probe = ClusterFuture(
                f"canary:worker{handle.rank}",
                self._proxy_for(handle.rank),
                pinned=True,
            )
            job = _Job(pickle.dumps({
                "kind": "action", "action": _Canary(), "label": probe.label,
            }), probe)
            self._dispatch(handle, job)
            probe.result(timeout=self._spawn_timeout_s)
        except Exception as exc:  # noqa: BLE001 - retire on any failure
            with self._lock:
                handle.state = _RETIRED
            self.health.retire(
                handle.rank,
                f"worker {handle.rank} restart failed: {exc}",
            )
            if handle.proc is not None and handle.proc.is_alive():
                handle.proc.kill()
            return
        self.health.mark_healthy(
            handle.rank,
            f"worker {handle.rank} restarted, canary passed",
        )
        self.report.record(
            "worker_restarts", f"worker {handle.rank} back in rotation"
        )

    def _proxy_for(self, rank: int) -> DeviceProxy:
        for proxy in self._proxies:
            if proxy.rank == rank:
                return proxy
        raise ClusterError(f"no devices belong to worker {rank}")

    # --- placement ----------------------------------------------------------
    def _active_handles(self) -> List[_WorkerHandle]:
        active = set(self.health.active_indices())
        return [
            h for h in self._handles
            if h.rank in active and h.state == _UP
        ]

    def _pick_worker(
        self, prefer_not: Optional[int] = None
    ) -> Optional[_WorkerHandle]:
        candidates = self._active_handles()
        if not candidates:
            return None
        others = [h for h in candidates if h.rank != prefer_not]
        pool = others or candidates
        with self._lock:
            handle = pool[self._rr % len(pool)]
            self._rr += 1
        return handle

    def _dispatch(self, handle: _WorkerHandle, job: _Job) -> None:
        job_id = next(_job_ids)
        job.future.attempts += 1
        # Re-point the future's proxy at the target worker so redispatches
        # land correctly.  The payload never changes: only unpinned jobs
        # move, and they carry no local device.
        if job.future.device.rank != handle.rank:
            job.future.device = next(
                p for p in self._proxies if p.rank == handle.rank
            )
            job.future.track = f"worker:{handle.rank}"
        with self._lock:
            handle.inflight[job_id] = job
        trace.count("cluster_dispatches")
        if not handle.send(("job", job_id, job.payload)):
            # The pipe died under us; the loss path redispatches the
            # orphans it swept.  If the loss was handled *before* our
            # inflight insert, this job missed that sweep — pull it
            # back out and redispatch it ourselves.
            self._on_worker_lost(handle, reason="send failed")
            with self._lock:
                stranded = handle.inflight.pop(job_id, None)
            if stranded is not None:
                self._redispatch(
                    stranded,
                    lambda: WorkerLost(
                        f"worker {handle.rank} lost: send failed",
                        worker=handle.rank,
                        reason="send failed",
                        jobs_lost=1,
                    ),
                )

    # --- PoolProtocol surface -----------------------------------------------
    @property
    def devices(self) -> List[DeviceProxy]:
        """Super-device proxies on workers still eligible for placement."""
        active = set(self.health.active_indices())
        return [p for p in self._proxies if p.rank in active]

    def __len__(self) -> int:
        return len(self.devices)

    def _resolve_device(self, device) -> Optional[DeviceProxy]:
        if device is None:
            return None
        if isinstance(device, DeviceProxy):
            proxy = device
        elif isinstance(device, int):
            active = self.devices
            if not 0 <= device < len(active):
                raise ClusterError(
                    f"device index {device} out of range for {len(active)} "
                    f"active super-device(s)"
                )
            proxy = active[device]
        else:
            raise ClusterError(
                f"device= must be a DeviceProxy or an index, got "
                f"{type(device).__name__}"
            )
        if proxy.rank not in set(self.health.active_indices()):
            raise ClusterError(
                f"super-device {proxy.ordinal} lives on worker "
                f"{proxy.rank}, which is "
                f"{self.health.state(proxy.rank)}"
            )
        return proxy

    def _check_args_portable(self, values, label: str) -> None:
        for value in values:
            if isinstance(value, DevicePointer):
                raise ClusterError(
                    f"job {label!r} carries a DevicePointer argument; "
                    f"device-resident memory cannot cross the process "
                    f"boundary — pass host data and allocate inside the "
                    f"job"
                )

    def _submit_payload(self, spec: dict, device,
                        label: str) -> ClusterFuture:
        if self._closed or self._closing:
            raise ClusterError(
                f"cannot submit {label!r}: the cluster pool is closed"
            )
        proxy = self._resolve_device(device)
        pinned = proxy is not None
        if proxy is None:
            handle = self._pick_worker()
            if handle is None:
                raise ClusterError(
                    f"cannot submit {label!r}: no workers are active"
                )
            proxy = self._proxy_for(handle.rank)
        else:
            handle = self._handles[proxy.rank]
            if handle.state != _UP:
                raise ClusterError(
                    f"cannot submit {label!r}: worker {proxy.rank} is "
                    f"{handle.state}"
                )
        # Pinned jobs never move (a lost worker fails them), so the local
        # device is fixed here and the payload is pickled exactly once.
        spec["device"] = proxy.local_index if pinned else None
        try:
            payload = pickle.dumps(spec)
        except Exception as exc:  # noqa: BLE001 - any pickling failure
            raise ClusterError(
                f"job {label!r} is not picklable and cannot be shipped "
                f"to a worker process: {exc}"
            ) from exc
        future = ClusterFuture(label, proxy, pinned=pinned)
        self._dispatch(handle, _Job(payload, future))
        return future

    def submit_call(
        self,
        fn: Callable,
        *,
        device=None,
        label: Optional[str] = None,
        shard: bool = False,
    ) -> ClusterFuture:
        """Run ``fn(device)`` in a worker process; return a future.

        ``fn`` must be picklable (a module-level function or a
        ``functools.partial`` over one) and self-contained: it gets the
        *worker-local* :class:`~repro.gpu.device.Device` and must
        allocate, compute and download there.  ``device=`` pins the job
        to one super-device (no redispatch on worker loss — pinned jobs
        fail with :class:`WorkerLost` instead).
        """
        name = label or getattr(fn, "__name__", None) or getattr(
            getattr(fn, "func", None), "__name__", "call"
        )
        if isinstance(fn, functools.partial):
            self._check_args_portable(
                list(fn.args) + list(fn.keywords.values()), name
            )
        spec = {
            "kind": "call",
            "fn": fn,
            "label": name,
            "shard": bool(shard),
        }
        return self._submit_payload(spec, device, name)

    def submit(
        self,
        kernel,
        config,
        *args,
        device=None,
        label: Optional[str] = None,
    ) -> ClusterFuture:
        """Launch ``kernel`` in a worker process; return a future.

        The kernel travels *by reference* — its ``(module, qualname)``
        pair — because decorator wrapper objects do not pickle: the job
        is a ``call`` of :func:`~repro.cluster.worker._launch_by_reference`,
        which re-imports the kernel in the worker and launches it, so the
        future resolves to the launch's :class:`~repro.gpu.engine.KernelStats`.
        Arguments must be host values (NumPy arrays, scalars);
        :class:`DevicePointer`\\ s are rejected because the memory they
        name lives in a different process.
        """
        name = label or kernel_name(kernel)
        self._check_args_portable(args, name)
        module = getattr(kernel, "__module__", None)
        qualname = getattr(kernel, "__qualname__", None)
        if not module or not qualname:
            raise ClusterError(
                f"kernel {name!r} has no importable (module, qualname) "
                f"identity; cluster submission ships kernels by reference"
            )
        return self.submit_call(
            functools.partial(
                _launch_by_reference, module, qualname, config, tuple(args)
            ),
            device=device,
            label=name,
        )

    def synchronize(self) -> None:
        """Fence every active worker: returns once queued work is done."""
        fences = []
        for proxy in self.devices:
            try:
                fences.append(
                    self.submit_call(_fence, device=proxy, label="fence")
                )
            except ClusterError:
                continue  # the worker died between enumeration and submit
        for fence in fences:
            # A fence lost to a dying worker is not a failure of the
            # caller's work; surviving workers were still fenced.
            try:
                fence.result(timeout=self._spawn_timeout_s)
            except ClusterError:
                pass

    # --- collectives (see actions.py for the action types) ------------------
    def scatter(self, action) -> List[ClusterFuture]:
        """Run one copy of ``action`` on every active worker.

        Each copy gets ``rank``/``size`` stamped (armi's ``mpiActions``
        shape) and runs pinned to its worker — a scatter participant
        holds rank-specific state, so it fails with :class:`WorkerLost`
        rather than silently running twice elsewhere.  Gather the
        futures with :func:`repro.sched.gather`.
        """
        if not isinstance(action, ClusterAction):
            raise ClusterError(
                f"scatter() needs a ClusterAction, got "
                f"{type(action).__name__}"
            )
        handles = self._active_handles()
        if not handles:
            raise ClusterError("cannot scatter: no workers are active")
        futures = []
        size = len(handles)
        for position, handle in enumerate(handles):
            copy = action._with_rank(position, size)
            futures.append(
                self._submit_payload(
                    {
                        "kind": "action",
                        "action": copy,
                        "label": f"{type(action).__name__}:r{position}",
                    },
                    self._proxy_for(handle.rank),
                    f"{type(action).__name__}:r{position}",
                )
            )
        return futures

    # --- lifecycle ----------------------------------------------------------
    def close(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop every worker; drain in-flight work unless ``drain=False``.

        With ``drain=False`` workers cancel their queued jobs (those
        futures resolve to :class:`CancelledError`).  Workers that fail
        to exit within ``timeout`` are killed with a
        :class:`RuntimeWarning`; any still-unresolved future is failed
        with a :class:`ClusterError` so no caller blocks forever.
        """
        if self._closed:
            return
        self._closing = True
        stopped = []
        for handle in self._handles:
            if handle.state == _UP and handle.send(("stop", drain)):
                stopped.append(handle)
        deadline = time.monotonic() + timeout
        for handle in stopped:
            if handle.receiver is None:
                continue
            handle.receiver.join(max(0.0, deadline - time.monotonic()))
        for handle in stopped:
            if handle.proc is None:
                continue
            handle.proc.join(max(0.0, deadline - time.monotonic()))
            if handle.proc.is_alive():
                warnings.warn(
                    f"cluster worker {handle.rank} did not exit within "
                    f"{timeout}s; killing it",
                    RuntimeWarning,
                    stacklevel=2,
                )
                handle.proc.kill()
                handle.proc.join(1.0)
        self._teardown_processes()
        unresolved = [
            job for handle in self._handles
            for job in handle.inflight.values()
            if not job.future.done()
        ]
        for job in unresolved:
            job.future._settle(exc=ClusterError(
                f"job {job.future.label!r} was still in flight when the "
                f"cluster pool closed"
            ))
        self._closed = True

    def _teardown_processes(self) -> None:
        for handle in self._handles:
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
            if handle.proc is not None and handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(1.0)

    def __enter__(self) -> "ClusterPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(drain=exc_type is None)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        states = self.health.snapshot()
        return (
            f"<ClusterPool {len(self._handles)} worker(s), "
            f"{len(self._proxies)} super-device(s), health={states}>"
        )
