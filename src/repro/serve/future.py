"""ServeFuture: the client-side handle for one serving-tier submission.

Same single-assignment discipline as every :class:`~repro.sched.Future`
— the first writer (dispatcher result, dispatcher exception, client
cancel) wins and later completions are dropped — but the failure a
ServeFuture resolves to is always the *tenant's own* outcome: the
dispatcher redispatches cross-tenant artifacts (inherited sticky
contexts, reset cancellations) transparently and only stores errors
attributable to this submission.
"""

from __future__ import annotations

import time
from typing import Optional

from ..errors import CancelledError, ServeError
from ..sched.future import Future

__all__ = ["ServeFuture"]


class ServeFuture(Future):
    """The result handle one :class:`~repro.serve.Session` submission returns.

    ``tenant`` and ``label`` identify the submission; ``coalesced`` is
    ``True`` when this future joined an identical in-flight request
    instead of enqueueing new work (its result is then the *shared*
    object of that execution — treat it as read-only).
    ``submitted_s``/``done_s`` are monotonic timestamps bounding the
    request's service latency, which is what the throughput benchmark
    aggregates into percentiles.
    """

    timeout_error = ServeError

    def __init__(self, tenant: str, label: str) -> None:
        super().__init__(label)
        self.tenant = tenant
        self.coalesced = False
        self.submitted_s = time.monotonic()

    def cancel(self, reason: str = "cancelled by client") -> bool:
        """Resolve the future with a :class:`CancelledError` if still open.

        Returns ``True`` when the cancel won the race.  A queued request
        whose futures are all resolved is skipped by the dispatcher; an
        execution already in flight is not interrupted — its eventual
        completion is dropped as stale, exactly like a pool future the
        watchdog timed out.
        """
        return self._settle(exc=CancelledError(
            f"serve job {self.label!r} (tenant {self.tenant}): {reason}"
        ))

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-completion wall time, or ``None`` while pending."""
        if self.done_s is None:
            return None
        return self.done_s - self.submitted_s

    def _describe(self) -> str:
        return f"serve job {self.label!r} (tenant {self.tenant})"
