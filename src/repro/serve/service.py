"""KernelService: the multi-tenant serving tier over a device pool.

The service is the stack's MPS daemon: many client sessions submit
kernel launches, host calls and whole functional app runs through one
unified surface, and a fixed set of dispatcher threads executes them
over a shared backend — any :class:`~repro.sched.PoolProtocol`
implementation, so a plain :class:`~repro.sched.DevicePool` and a
self-healing :class:`~repro.resilience.ResilientPool` are
interchangeable.

What the service adds over the pool:

* **Admission control** — bounded per-tenant and global queues; an
  over-limit submission is refused with
  :class:`~repro.errors.QueueFull` carrying ``retry_after_s`` guidance
  instead of queueing unboundedly.
* **Weighted fair share** — under contention, dispatch bandwidth is
  proportional to tenant weight (stride scheduling), so a heavy tenant
  cannot starve a light one.
* **Request coalescing** — identical in-flight submissions (same
  kernel, geometry and argument values; same app, variant and
  parameters) share one execution and every waiter receives the
  result, like identical inference requests folded by a serving stack.
* **Tenant isolation** — a fault in one tenant's kernel surfaces on
  *that tenant's* future only.  The poisoned device is healed before
  other tenants' work lands on it, and cross-tenant artifacts (a sticky
  context inherited from someone else's fault, a queue drained by a
  device reset) are absorbed and redispatched transparently, never
  delivered.  Per-tenant :class:`~repro.resilience.RecoveryReport`\\ s
  record only recovery attributable to that tenant's own jobs.
"""

from __future__ import annotations

import threading
import time
import warnings
from contextlib import ExitStack
from typing import Dict, List, Optional

from .. import trace
from ..backend import open_pool
from ..errors import (
    CancelledError,
    KernelFault,
    ReproError,
    ServeError,
    StickyContextError,
)
from ..gpu.device import DeviceSpec
from ..resilience import RecoveryReport
from ..resilience.policy import exception_chain
from ..sched import PoolProtocol, gather
from .admission import AdmissionController, Request
from .coalesce import app_key, kernel_key
from .future import ServeFuture
from .quota import STAT_KEYS, TenantQuota
from .session import Session

__all__ = ["KernelService"]


class KernelService:
    """Multi-tenant kernel serving over a (resilient) device pool.

    ``KernelService(devices=4)`` owns a fresh
    :class:`~repro.sched.DevicePool` (``devices`` defaults to
    ``len(specs)`` when ``specs`` is given, else 2); ``resilient=True``
    wraps it in a :class:`~repro.resilience.ResilientPool` (with
    ``verify``/``seed`` forwarded) so backend faults are healed before
    tenants ever see them.  ``cluster=N`` serves over N supervised
    worker *processes* instead (with ``resilient`` meaning device healing
    inside each worker; without it the service resets a poisoned device
    in its worker) — lost workers are quarantined and redispatched under
    the tenants transparently.  The owned backend is built by
    :func:`repro.backend.open_pool`, exactly as :func:`repro.apps.run`
    builds one, so an active fault plan's ``device=`` selectors address
    pool indices here too, and ``seed=None`` inherits the plan's seed.
    Alternatively pass ``backend=`` — anything satisfying
    :class:`~repro.sched.PoolProtocol` — and the service will serve over
    it as built, without taking ownership of its lifecycle; the axes
    that would build a different backend (``devices``, ``specs``,
    ``cluster``, ``resilient``, ``verify``, ``seed``) are then refused
    with :class:`~repro.errors.ServeError`.  ``dispatchers``, quotas and
    ``journal_dir`` apply to either.

    The service is a context manager; :meth:`close` drains queued work
    (``drain=False`` cancels it), stops the dispatchers, and tears down
    an owned backend.
    """

    def __init__(
        self,
        devices: Optional[int] = None,
        *,
        backend: Optional[PoolProtocol] = None,
        specs: Optional[List[DeviceSpec]] = None,
        cluster: int = 0,
        resilient: bool = False,
        verify: int = 1,
        seed: Optional[int] = None,
        default_quota: Optional[TenantQuota] = None,
        global_max_queued: int = 256,
        dispatchers: Optional[int] = None,
        request_timeout_s: float = 120.0,
        max_redispatch: int = 8,
        journal_dir: Optional[str] = None,
    ) -> None:
        if max_redispatch < 1:
            raise ServeError(
                f"max_redispatch must be >= 1, got {max_redispatch}"
            )
        if dispatchers is not None and dispatchers < 1:
            raise ServeError(f"dispatchers must be >= 1, got {dispatchers}")
        if backend is not None and not isinstance(backend, PoolProtocol):
            raise ServeError(
                f"backend must satisfy repro.sched.PoolProtocol "
                f"(submit/submit_call/devices/close), got "
                f"{type(backend).__name__}"
            )
        if backend is not None:
            ignored = [
                axis for axis, on in (
                    (f"devices={devices}", devices is not None),
                    ("specs", specs is not None),
                    (f"cluster={cluster}", cluster != 0),
                    ("resilient", resilient),
                    (f"verify={verify}", verify != 1),
                    (f"seed={seed}", seed is not None),
                ) if on
            ]
            if ignored:
                raise ServeError(
                    "backend= serves over the given pool, so "
                    + ", ".join(ignored) + " would be ignored; build the "
                    "backend with them, or pass them instead of backend="
                )
        # ``journal_dir=`` journals every accepted app submission the
        # service can describe as JSON (app identity, variant, params,
        # tenant, coalescing key) and marks it done when its future is
        # delivered.  A service that crashes in between leaves pending
        # entries a fresh incarnation re-admits via :meth:`recover` —
        # deduped by coalescing key, so the replay is effectively-once.
        self._journal = None
        if journal_dir is not None:
            from ..ckpt import SubmissionJournal

            self._journal = SubmissionJournal(journal_dir)
        #: Service-level recovery report: backend healing (when the
        #: service owns a resilient backend) plus cross-tenant artifacts
        #: the dispatchers absorbed.  Per-tenant reports live on the
        #: tenants; see :meth:`session`.
        self.report = RecoveryReport()
        # A refusal past this point closes the owned backend on the way
        # out; once the service is built, close() owns it.
        with ExitStack() as stack:
            if backend is None:
                if devices is None:
                    devices = len(specs) if specs else 2
                backend = stack.enter_context(open_pool(
                    devices, cluster=cluster, specs=specs,
                    resilient=resilient, verify=verify, seed=seed,
                    report=self.report,
                ))
            count = dispatchers if dispatchers is not None \
                else max(1, len(backend.devices))
            self._admission = AdmissionController(
                global_max_queued=global_max_queued,
                dispatchers=count,
                default_quota=default_quota,
            )
            self._stack = stack.pop_all()
        self.backend = backend
        # Only a backend that heals its own devices (a ResilientPool, or a
        # cluster of resilient workers) is left to recover on its own.
        self._resilient = bool(getattr(backend, "resilient", False))
        self._max_redispatch = max_redispatch
        self._request_timeout_s = request_timeout_s
        self._sessions: List[Session] = []
        self._closed = False
        self._close_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._executions = 0
        # Device resets the service performed, by the fault that forced
        # them, until that fault's tenant claims them for its report.
        self._heal_lock = threading.Lock()
        self._owed_resets: Dict[tuple, List[int]] = {}
        self._workers = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"serve-dispatch{i}",
                daemon=True,
            )
            for i in range(count)
        ]
        for worker in self._workers:
            worker.start()

    # --- client surface -----------------------------------------------------
    @property
    def devices(self):
        """The backend's (currently eligible) devices."""
        return list(self.backend.devices)

    def session(self, tenant: str, *,
                quota: Optional[TenantQuota] = None) -> Session:
        """Open a submission session for ``tenant``.

        First use of a tenant name registers it (with ``quota``, or the
        service default); later sessions for the same name share its
        quota, queue, counters and recovery report.
        """
        if self._closed:
            raise ServeError(
                f"cannot open a session for {tenant!r}: service is closed"
            )
        state = self._admission.register(tenant, quota)
        session = Session(self, state)
        self._sessions.append(session)
        return session

    # --- submission plumbing (called by Session) ----------------------------
    def _submit_kernel(self, state, kernel, config, args, *,
                       label: Optional[str], coalesce: bool) -> ServeFuture:
        name = label or getattr(
            getattr(kernel, "fn", None) or kernel, "__name__", "kernel"
        )
        key = kernel_key(kernel, config, args) if coalesce else None
        return self._submit(
            state, "kernel", name, key,
            {"kernel": kernel, "config": config, "args": tuple(args)},
        )

    def _submit_call(self, state, fn, *,
                     label: Optional[str]) -> ServeFuture:
        name = label or getattr(fn, "__name__", "call")
        return self._submit(state, "call", name, None, {"fn": fn})

    def _submit_app(self, state, app, *, variant: str, params,
                    coalesce: bool) -> ServeFuture:
        name = f"{app.name}:{variant}"
        key = app_key(app, variant, params) if coalesce else None
        journal_id = None
        if self._journal is not None:
            journal_id = self._journal_accept(state.name, app, variant,
                                              params, key)
        try:
            return self._submit(
                state, "app", name, key,
                {"app": app, "variant": variant, "params": params},
                journal_id=journal_id,
            )
        except ServeError:
            # The submission never entered the queue; nothing to recover.
            if journal_id is not None:
                self._journal.record_done(journal_id)
            raise

    def _journal_accept(self, tenant: str, app, variant: str, params,
                        key) -> Optional[int]:
        """Journal one app submission, or ``None`` if it defies JSON.

        Only JSON-describable submissions are recoverable: a prebuilt
        ndarray parameter set cannot be rebuilt from a journal line, so
        it is skipped (counted, not failed) — recovery is best-effort
        extra safety, never a new reason for a submission to be refused.
        """
        import json as json_mod

        descriptor = {
            "tenant": tenant,
            "app": [type(app).__module__, type(app).__qualname__],
            "variant": variant,
            "params": None if params is None else dict(params),
            "key": None if key is None else repr(key),
        }
        try:
            json_mod.dumps(descriptor)
        except (TypeError, ValueError):
            trace.count("serve_journal_skipped")
            return None
        return self._journal.record_accepted(descriptor)

    def _submit(self, state, kind: str, label: str, key,
                payload: dict, *, journal_id: Optional[int] = None) -> ServeFuture:
        future = ServeFuture(state.name, label)
        future.journal_id = journal_id
        request = Request(
            kind=kind, label=label, key=key, tenant_name=state.name,
            future=future, payload=payload,
        )
        trace.count("serve_submitted")
        trace.count(f"serve_submitted[{state.name}]")
        try:
            outcome = self._admission.submit(state, request)
        except ServeError:
            # QueueFull (backpressure) or closed-service refusal: the
            # caller gets the structured error, not a dead future.
            trace.count("serve_rejected")
            trace.count(f"serve_rejected[{state.name}]")
            raise
        if outcome == "coalesced":
            trace.count("serve_coalesced")
            trace.count(f"serve_coalesced[{state.name}]")
        else:
            trace.count("serve_admitted")
        return future

    # --- dispatcher ---------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            request = self._admission.next_ready()
            if request is None:
                return
            self._handle(request)

    def _handle(self, request: Request) -> None:
        start = time.monotonic()
        if all(future.done() for future in request.futures):
            # Every waiter cancelled while the request was queued; skip
            # the execution entirely (the pool-future cancel semantics).
            self._admission.finish(request, elapsed_s=0.0, failed=False)
            return
        value = None
        exc: Optional[BaseException] = None
        tracer = trace.get_tracer()
        try:
            if tracer is None:
                value = self._run_guarded(request)
            else:
                with tracer.on_track("serve"):
                    with tracer.span(
                        f"serve:{request.label}", cat="serve", track="serve",
                        tenant=request.tenant_name, kind=request.kind,
                        waiters=len(request.futures),
                    ):
                        value = self._run_guarded(request)
        except BaseException as caught:  # noqa: BLE001 - handed to the futures
            exc = caught
        failed = exc is not None
        deliver, resubmit = self._admission.finish(
            request, elapsed_s=time.monotonic() - start, failed=failed
        )
        for future in deliver:
            written = future._set_exception(exc) if failed \
                else future._set_result(value)
            if written:
                self._tally_result(future.tenant, failed)
                self._journal_done(future)
        for future in resubmit:
            self._resubmit(future, request)

    def _journal_done(self, future: ServeFuture) -> None:
        """Mark a delivered future's journal entry finished (either way).

        Delivery — success *or* failure — means the service will never
        run this submission again on its own, so recovery must not
        either.  Cancelled-before-dispatch futures are deliberately NOT
        marked: the service never ran them, and a restarted incarnation
        re-admitting them is the journal working as intended.
        """
        entry_id = getattr(future, "journal_id", None)
        if self._journal is not None and entry_id is not None:
            self._journal.record_done(entry_id)

    def _resubmit(self, future: ServeFuture, request: Request) -> None:
        """Re-enqueue a follower privately after its shared execution failed.

        The leader's failure belongs to the leader alone; each follower
        re-runs uncoalesced (``key=None``) so its own future reflects
        its own outcome.
        """
        tenant = self._admission.tenants[future.tenant]
        retry = Request(
            kind=request.kind, label=request.label, key=None,
            tenant_name=tenant.name, future=future, payload=request.payload,
        )
        self._admission.bump(tenant.name, "redispatched")
        trace.count("serve_redispatches")
        try:
            self._admission.submit(tenant, retry, count_submitted=False)
        except ReproError as refused:
            if future._set_exception(refused):
                self._tally_result(future.tenant, True)
                self._journal_done(future)

    def _tally_result(self, tenant_name: str, failed: bool) -> None:
        key = "failed" if failed else "completed"
        self._admission.bump(tenant_name, key)
        trace.count(f"serve_{key}")
        trace.count(f"serve_{key}[{tenant_name}]")

    # --- execution with the isolation guard ---------------------------------
    def _run_guarded(self, request: Request):
        """Execute one request, absorbing cross-tenant artifacts.

        The isolation contract, mechanically:

        * A :class:`KernelFault` raised by the tenant's own execution is
          the tenant's own failure — surface it, but first heal the
          device it poisoned so no other tenant inherits the sticky
          context.  The resets its fault forced land in the *faulting*
          tenant's report, whichever dispatcher performed them.
        * A :class:`StickyContextError` whose chain shows no fault of
          our own is inherited poison from another tenant's job that
          landed on the device first — heal and redispatch
          transparently; this tenant never observes it.
        * A retryable :class:`CancelledError` is a scheduler artifact
          (the queue drained by a device reset during someone else's
          heal) — redispatch transparently.
        * Everything else is the tenant's own outcome and surfaces
          unchanged, exactly as a direct pool submission would fail.
        """
        with self._stats_lock:
            self._executions += 1
        trace.count("serve_executions")
        trace.count(f"serve_executions[{request.tenant_name}]")
        while True:
            try:
                return self._execute_once(request)
            except ReproError as exc:
                action = self._classify(exc)
                if action == "own-fault":
                    self._heal_backend()
                    self._claim_resets(exc, self._tenant_report(request))
                    raise
                if action == "fatal":
                    raise
                if request.redispatches >= self._max_redispatch:
                    raise ServeError(
                        f"serve job {request.label!r} (tenant "
                        f"{request.tenant_name}) was redispatched "
                        f"{request.redispatches} times without completing; "
                        f"giving up"
                    ) from exc
                request.redispatches += 1
                self._admission.bump(request.tenant_name, "redispatched")
                trace.count("serve_redispatches")
                if action == "inherited-poison":
                    self._heal_backend()
                # Cross-tenant artifact: recorded on the service report,
                # NOT the tenant's (its jobs caused none of this).
                self.report.record(
                    "retries",
                    f"{request.label}: transparent redispatch after "
                    f"cross-tenant {type(exc).__name__}",
                )

    def _execute_once(self, request: Request):
        payload = request.payload
        if request.kind == "app":
            # The unified app entry point over our backend: sharded
            # decomposition, and run_to_completion when it is resilient.
            from ..apps.common import ExecutionConfig
            from ..apps.common import run as run_app

            return run_app(
                payload["app"],
                ExecutionConfig(
                    variant=payload["variant"],
                    params=payload["params"],
                    pool=self.backend,
                ),
            )
        if request.kind == "kernel":
            inner = self.backend.submit(
                payload["kernel"], payload["config"], *payload["args"],
                label=request.label,
            )
        else:
            inner = self.backend.submit_call(
                payload["fn"], label=request.label
            )
        value = inner.result(timeout=self._request_timeout_s)
        # A resilient backend may have retried the submission behind the
        # future; attribute those retries to the submitting tenant.
        attempts = getattr(inner, "attempts", 1)
        if attempts > 1:
            self._tenant_report(request).record(
                "retries",
                f"{request.label}: backend retried "
                f"{attempts - 1} time(s)",
                count=attempts - 1,
            )
        return value

    def _classify(self, exc: BaseException) -> str:
        # StickyContextError outranks the KernelFault in its chain: a
        # sticky-context refusal is always *secondhand* (the context was
        # poisoned before this job touched the device — the original
        # fault already surfaced on its own tenant's launch), while a
        # firsthand fault raises bare, without the sticky wrapper.
        chain = list(exception_chain(exc))
        if any(isinstance(e, StickyContextError) for e in chain):
            return "inherited-poison"
        if any(isinstance(e, KernelFault) for e in chain):
            return "own-fault"
        if any(
            isinstance(e, CancelledError) and getattr(e, "retryable", False)
            for e in chain
        ):
            return "requeued"
        return "fatal"

    def _tenant_report(self, request: Request) -> RecoveryReport:
        return self._admission.tenants[request.tenant_name].report

    def _heal_backend(self) -> None:
        """Reset any poisoned backend device (non-resilient backends).

        A resilient backend owns its device recovery (quarantine, reset,
        canary probe); over a plain pool the service itself must clear
        sticky contexts so one tenant's fault cannot poison the next
        tenant's placement.  A plain cluster's devices live in its worker
        processes, so each worker resets its own.  Each reset is owed to
        the fault that poisoned the device: a bystander may heal before
        the faulting tenant's dispatcher does, so the reset waits for
        :meth:`_claim_resets`.
        """
        if self._resilient:
            return
        with self._heal_lock:
            if getattr(self.backend, "is_cluster", False):
                from ..cluster.actions import _ResetPoisoned

                healed = sum(gather(self.backend.scatter(_ResetPoisoned())), [])
            else:
                from ..ompx.host import ompx_device_reset

                healed = []
                for device in self.backend.devices:
                    fault = device.sticky_error
                    if fault is not None:
                        ompx_device_reset(device=device.ordinal)
                        healed.append((device.ordinal, fault))
            for ordinal, fault in healed:
                self._owed_resets.setdefault(_fault_key(fault), []).append(ordinal)

    def _claim_resets(self, exc: BaseException,
                      report: RecoveryReport) -> None:
        """Record in ``report`` every reset that cleared the kernel fault
        in ``exc``'s chain: the device's sticky error, which is also the
        ``original`` of every StickyContextError it caused."""
        fault = next(e for e in exception_chain(exc)
                     if isinstance(e, KernelFault))
        with self._heal_lock:
            ordinals = self._owed_resets.pop(_fault_key(fault), [])
        for ordinal in ordinals:
            report.record("resets", f"device {ordinal}: serve heal after a fault")

    # --- crash recovery -----------------------------------------------------
    def recover(self) -> List[ServeFuture]:
        """Re-admit accepted-but-unfinished submissions from the journal.

        Call this on a *fresh* service incarnation pointed at the dead
        one's ``journal_dir``.  Every pending entry — accepted by the
        old service, never marked done — is resubmitted under its
        original tenant through the normal session surface, so quotas,
        fair share and coalescing all apply; entries that would have
        coalesced in the old process are deduped by coalescing key
        before re-admission.  Together: effectively-once, not
        at-least-once.

        The old entries are marked done as they are re-admitted (the new
        incarnation's own accepted/done pair takes over responsibility),
        so a second crash replays the re-admissions, not the originals
        twice.  Returns the futures of the re-admitted submissions.
        """
        import importlib

        if self._journal is None:
            raise ServeError(
                "recover() requires the service to be built with "
                "journal_dir="
            )
        futures: List[ServeFuture] = []
        every_pending = self._journal.pending(dedupe=False)
        for entry in self._journal.pending():
            module_name, qualname = entry["app"]
            obj = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            app = obj()
            session = self.session(str(entry.get("tenant", "recovered")))
            futures.append(
                session.submit_app(
                    app,
                    variant=str(entry["variant"]),
                    params=entry.get("params"),
                )
            )
            trace.count("serve_recovered")
        # Retire every old pending entry — re-admitted leaders AND the
        # duplicates they deduped (the one re-admission covers them all;
        # the new incarnation's own accepted/done pair takes over).
        for entry in every_pending:
            self._journal.record_done(int(entry["id"]))
        return futures

    # --- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, dict]:
        """Structured counters: per-tenant snapshots plus service totals."""
        tenants = self._admission.snapshot()
        totals = {key: sum(t[key] for t in tenants.values())
                  for key in STAT_KEYS}
        with self._stats_lock:
            executions = self._executions
        return {
            "service": {
                "tenants": len(tenants),
                "devices": len(self.backend.devices),
                "dispatchers": len(self._workers),
                "resilient": self._resilient,
                "queued": self._admission.depth(),
                "executions": executions,
                **totals,
            },
            "tenants": tenants,
        }

    def summary(self) -> str:
        """Human-readable service report, printed by the CLI."""
        stats = self.stats()
        service = stats["service"]
        mode = "resilient backend" if service["resilient"] else "plain pool"
        lines = [
            f"kernel service: {service['tenants']} tenant(s) over "
            f"{service['devices']} device(s), {service['dispatchers']} "
            f"dispatcher(s), {mode}",
        ]
        for name in sorted(stats["tenants"]):
            tenant = stats["tenants"][name]
            fields = " ".join(f"{key}={tenant[key]}" for key in STAT_KEYS)
            lines.append(f"  {name}: {fields}")
        saved = service["coalesced"]
        lines.append(
            f"  totals: {service['submitted']} submitted, "
            f"{service['executions']} executed "
            f"({saved} coalesced away), {service['failed']} failed, "
            f"{service['rejected']} rejected"
        )
        return "\n".join(lines)

    # --- lifecycle ----------------------------------------------------------
    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop serving; tear down an owned backend.

        ``drain=True`` lets queued submissions execute first;
        ``drain=False`` fails every undispatched future with
        :class:`~repro.errors.CancelledError`.  In-flight executions
        always run to completion (pool workers cannot be interrupted).
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for session in self._sessions:
            session.close()
        self._admission.close()
        if not drain:
            for request in self._admission.flush():
                refused = CancelledError(
                    f"serve job {request.label!r} cancelled: service "
                    f"closed before dispatch"
                )
                for future in request.futures:
                    if future._set_exception(refused):
                        self._tally_result(future.tenant, True)
        stuck = []
        for worker in self._workers:
            worker.join(timeout=timeout)
            if worker.is_alive():
                stuck.append(worker.name)
        if stuck:
            warnings.warn(
                f"KernelService.close: {len(stuck)} dispatcher(s) failed "
                f"to join within {timeout}s: {', '.join(stuck)}",
                RuntimeWarning,
                stacklevel=2,
            )
        self._stack.close()
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "KernelService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"<KernelService {len(self._admission.tenants)} tenant(s) "
            f"over {self.backend!r} ({state})>"
        )


def _fault_key(fault: BaseException) -> tuple:
    """Identify a kernel fault, also after a cluster worker pickled it:
    by type and message.  Field equality would not do, because an injected
    fault on a lane engine holds per-lane index arrays in ``block``, and
    those compare by identity."""
    return type(fault), fault.args
