"""Admission control, backpressure, and weighted fair-share dispatch.

The controller is the serving tier's single synchronization point: it
owns the per-tenant queues, the global depth bound, the coalescing index
and the stride scheduler, all under one lock, so every ordering decision
the service makes is taken atomically.

Backpressure is *refusal with guidance*, not blocking: a submission over
the tenant or global bound raises :class:`~repro.errors.QueueFull`
carrying ``retry_after_s`` — the controller's estimate of when capacity
frees, derived from an EWMA of observed service times and the depth of
work ahead — so clients implement retry loops without guessing.

Dispatch order under contention is stride scheduling: each tenant
advances a virtual-time "pass" by ``stride = K / weight`` per dispatch
and the ready tenant with the smallest pass goes next, which converges
to bandwidth proportional to weight while staying strictly
deterministic (ties break on tenant name).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..errors import QueueFull, ServeError
from .quota import TenantQuota, TenantState

__all__ = ["Request", "AdmissionController"]

#: Request lifecycle states (guarded by the controller lock).
QUEUED, RUNNING, DONE = "queued", "running", "done"


class Request:
    """One admitted unit of work (and every future fanned onto it).

    ``futures[0]`` is the *leader* — the submission that created the
    request and whose tenant is charged for queue depth and inflight
    accounting.  Later identical submissions attach as followers via the
    coalescing index; on success every future receives the shared
    result, on failure only the leader sees the error and followers are
    resubmitted privately (a follower must never inherit another
    tenant's failure).
    """

    __slots__ = (
        "kind", "label", "key", "tenant_name", "futures", "payload",
        "redispatches", "state",
    )

    def __init__(self, *, kind: str, label: str, key, tenant_name: str,
                 future, payload: dict) -> None:
        self.kind = kind
        self.label = label
        self.key = key
        self.tenant_name = tenant_name
        self.futures = [future]
        self.payload = payload
        self.redispatches = 0
        self.state = QUEUED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Request {self.kind}:{self.label!r} tenant={self.tenant_name} "
            f"waiters={len(self.futures)} ({self.state})>"
        )


class AdmissionController:
    """Queues, quotas, coalescing index and stride scheduler in one lock."""

    #: EWMA smoothing for observed service times (new sample weight).
    _EWMA_ALPHA = 0.2

    def __init__(self, *, global_max_queued: int = 256,
                 dispatchers: int = 1,
                 default_quota: Optional[TenantQuota] = None) -> None:
        if global_max_queued < 1:
            raise ServeError(
                f"global_max_queued must be >= 1, got {global_max_queued}"
            )
        self._default_quota = default_quota or TenantQuota()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self.tenants: Dict[str, TenantState] = {}
        self._coalesce: Dict[object, Request] = {}
        self._global_max_queued = global_max_queued
        self._dispatchers = max(1, dispatchers)
        self._queued_total = 0
        self._closed = False
        #: Seed estimate until real completions arrive; any positive
        #: value works — retry_after_s converges with the EWMA.
        self._service_s = 0.01

    # --- tenant registry ----------------------------------------------------
    def register(self, name: str,
                 quota: Optional[TenantQuota] = None) -> TenantState:
        """Create (or fetch) the tenant ``name``; idempotent per name.

        Re-registering an existing tenant with a *different* quota is an
        error — quotas are a contract, not a per-session preference.
        A new tenant joins the stride scheduler at the current minimum
        pass value so it neither starves nor gets a catch-up burst.
        """
        with self._lock:
            state = self.tenants.get(name)
            if state is not None:
                if quota is not None and quota != state.quota:
                    raise ServeError(
                        f"tenant {name!r} is already registered with "
                        f"{state.quota}; open a session without a quota "
                        f"(or with the same one) to share it"
                    )
                return state
            state = TenantState(name, quota or self._default_quota)
            if self.tenants:
                state.pass_value = min(
                    t.pass_value for t in self.tenants.values()
                )
            self.tenants[name] = state
            return state

    # --- submission ---------------------------------------------------------
    def submit(self, tenant: TenantState, request: Request, *,
               count_submitted: bool = True) -> str:
        """Admit, coalesce, or refuse one request.

        Returns ``"queued"`` (the request now waits for dispatch) or
        ``"coalesced"`` (the request's future joined an identical
        in-flight request and ``request`` itself was discarded).  Raises
        :class:`QueueFull` with ``retry_after_s`` guidance when a bound
        is hit, :class:`ServeError` after :meth:`close`.
        """
        with self._cond:
            if count_submitted:
                tenant.stats["submitted"] += 1
            if self._closed:
                raise ServeError(
                    f"submission {request.label!r} arrived on a closed "
                    f"kernel service"
                )
            if request.key is not None:
                existing = self._coalesce.get(request.key)
                if existing is not None and existing.state != DONE:
                    existing.futures.append(request.futures[0])
                    request.futures[0].coalesced = True
                    tenant.stats["coalesced"] += 1
                    return "coalesced"
            if len(tenant.queue) >= tenant.quota.max_queued:
                tenant.stats["rejected"] += 1
                raise QueueFull(
                    f"tenant {tenant.name!r} already has "
                    f"{len(tenant.queue)} submissions queued "
                    f"(max_queued={tenant.quota.max_queued})",
                    tenant=tenant.name,
                    scope="tenant",
                    retry_after_s=self._retry_after_locked(tenant),
                )
            if self._queued_total >= self._global_max_queued:
                tenant.stats["rejected"] += 1
                raise QueueFull(
                    f"the service already has {self._queued_total} "
                    f"submissions queued "
                    f"(global_max_queued={self._global_max_queued})",
                    tenant=tenant.name,
                    scope="global",
                    retry_after_s=self._retry_after_locked(None),
                )
            tenant.queue.append(request)
            tenant.stats["admitted"] += 1
            self._queued_total += 1
            if request.key is not None:
                self._coalesce[request.key] = request
            self._cond.notify_all()
            return "queued"

    def _retry_after_locked(self, tenant: Optional[TenantState]) -> float:
        """Estimated seconds until the refused scope frees capacity."""
        if tenant is not None:
            ahead = len(tenant.queue) + tenant.inflight
            lanes = min(tenant.quota.max_inflight, self._dispatchers)
        else:
            ahead = self._queued_total + sum(
                t.inflight for t in self.tenants.values()
            )
            lanes = self._dispatchers
        return max(1e-3, self._service_s * ahead / max(1, lanes))

    # --- dispatch -----------------------------------------------------------
    def _pick_locked(self) -> Optional[TenantState]:
        best = None
        for state in self.tenants.values():
            if not state.queue or state.inflight >= state.quota.max_inflight:
                continue
            if best is None or (
                (state.pass_value, state.name)
                < (best.pass_value, best.name)
            ):
                best = state
        return best

    def next_ready(self) -> Optional[Request]:
        """Block for the next dispatchable request (fair-share order).

        Returns ``None`` only at shutdown: the controller is closed and
        every queue is empty.  The periodic re-check is a belt against
        lost wakeups, not a polling loop — every state change notifies.
        """
        with self._cond:
            while True:
                tenant = self._pick_locked()
                if tenant is not None:
                    request = tenant.queue.popleft()
                    self._queued_total -= 1
                    tenant.inflight += 1
                    tenant.pass_value += tenant.stride
                    request.state = RUNNING
                    return request
                if self._closed and self._queued_total == 0:
                    return None
                self._cond.wait(0.5)

    # --- completion ---------------------------------------------------------
    def finish(self, request: Request, *, elapsed_s: float,
               failed: bool) -> Tuple[List, List]:
        """Retire one dispatched request; split its waiters for fan-out.

        Returns ``(deliver, resubmit)``: futures that receive this
        execution's outcome, and follower futures that must be
        re-executed privately because the shared execution failed (only
        the leader inherits the failure — a follower's tenant did not
        cause it and must not observe it).
        """
        with self._cond:
            request.state = DONE
            if request.key is not None \
                    and self._coalesce.get(request.key) is request:
                del self._coalesce[request.key]
            leader = self.tenants[request.tenant_name]
            leader.inflight -= 1
            self._service_s += self._EWMA_ALPHA * (
                max(elapsed_s, 0.0) - self._service_s
            )
            futures = list(request.futures)
            if failed and len(futures) > 1:
                deliver, resubmit = futures[:1], futures[1:]
            else:
                deliver, resubmit = futures, []
            self._cond.notify_all()
            return deliver, resubmit

    def bump(self, tenant_name: str, key: str, count: int = 1) -> None:
        """Thread-safe increment of one tenant counter."""
        with self._lock:
            self.tenants[tenant_name].stats[key] += count

    # --- shutdown -----------------------------------------------------------
    def close(self) -> None:
        """Refuse new submissions; dispatchers drain what is queued."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def flush(self) -> List[Request]:
        """Pop every queued (undispatched) request; caller fails them."""
        with self._cond:
            drained: List[Request] = []
            for state in self.tenants.values():
                while state.queue:
                    request = state.queue.popleft()
                    request.state = DONE
                    if request.key is not None \
                            and self._coalesce.get(request.key) is request:
                        del self._coalesce[request.key]
                    drained.append(request)
                    self._queued_total -= 1
            self._cond.notify_all()
            return drained

    # --- introspection ------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def depth(self) -> int:
        """Total queued (not yet dispatched) requests."""
        with self._lock:
            return self._queued_total

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant counter copies (see :meth:`TenantState.snapshot`)."""
        with self._lock:
            return {
                name: state.snapshot()
                for name, state in self.tenants.items()
            }
