"""The future base every backend's result handle builds on.

A :class:`Future` is a single-assignment result cell.  The first writer
wins — a worker's result or exception, a cancel, a watchdog timeout, a
supervisor verdict — and a later completion is dropped as stale:
:meth:`Future._settle` returns ``False`` for it and the stored outcome
never changes.  The caller surface (``done``/``wait``/``cancelled``/
``exception``/``result``) is therefore the same on every backend, which
is what lets :func:`repro.sched.gather` and the serve dispatchers treat
the four handles alike:

* :class:`~repro.sched.KernelFuture` adds the pending → running
  lifecycle, cancel-while-pending, done-callbacks and the stale hook;
* :class:`~repro.resilience.ResilientFuture` drives its retries from
  :meth:`~Future.wait` and settles once they reach a final outcome;
* :class:`~repro.cluster.ClusterFuture` adds dispatch bookkeeping
  (``attempts``, ``pinned``, ``track``);
* :class:`~repro.serve.ServeFuture` adds the tenant, coalescing flag and
  latency timestamps.

There is deliberately no ``add_done_callback`` here: a lazily resolved
future (``ResilientFuture``) would never fire one, and the cluster
worker picks between a callback and a waiter thread by checking for it.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from ..errors import CancelledError, SchedulerError

__all__ = ["Future"]


class Future:
    """First-writer-wins result cell with the shared caller surface."""

    #: What :meth:`exception`/:meth:`result` raise when ``timeout``
    #: elapses before the future resolves.
    timeout_error = SchedulerError

    def __init__(self, label: str) -> None:
        self.label = label
        #: Monotonic completion time, set before waiters wake (``None``
        #: while pending).
        self.done_s: Optional[float] = None
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result = None
        self._exception: Optional[BaseException] = None

    # --- completion side ----------------------------------------------------
    def _settle(self, result=None, exc: Optional[BaseException] = None) -> bool:
        """Record the outcome; ``False`` (stale, dropped) if already settled."""
        with self._lock:
            if self._event.is_set():
                return False
            self._result = result
            self._exception = exc
            self.done_s = time.monotonic()
            self._event.set()
        return True

    def _set_result(self, value) -> bool:
        return self._settle(result=value)

    def _set_exception(self, exc: BaseException) -> bool:
        return self._settle(exc=exc)

    # --- caller side --------------------------------------------------------
    def done(self) -> bool:
        """Whether the future has a final outcome (value or exception)."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved; ``False`` on timeout."""
        return self._event.wait(timeout)

    def cancelled(self) -> bool:
        """Whether the future resolved to a :class:`CancelledError`."""
        return self.done() and isinstance(self._exception, CancelledError)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The job's exception (or ``None``), waiting for completion first."""
        if not self.wait(timeout):
            raise self.timeout_error(
                f"{self._describe()} did not complete within {timeout}s"
            )
        return self._exception

    def result(self, timeout: Optional[float] = None):
        """The job's return value; re-raises the job's exception."""
        exc = self.exception(timeout)
        if exc is not None:
            raise exc
        return self._result

    def _describe(self) -> str:
        """What the job is, for timeout messages and ``repr``."""
        return f"future {self.label!r}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "pending" if not self.done()
            else "cancelled" if self.cancelled()
            else "failed" if self._exception is not None
            else "done"
        )
        return f"<{type(self).__name__} {self._describe()} ({state})>"
