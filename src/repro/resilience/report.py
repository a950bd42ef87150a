"""The post-run recovery report: what resilience actually did.

Counts and logs every recovery action — retries, quarantines,
readmissions, retirements, watchdog fires, re-executed shards, and the
cluster tier's lost, restarted and redispatched workers — and mirrors
each one into the process tracer (counter ``resilience_<kind>`` plus an
instant span on the ``resilience`` track), so a Perfetto export shows
recovery activity interleaved with the kernels it recovered.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from ..trace import get_tracer

__all__ = ["RecoveryReport"]

#: Event kinds, in the order the summary prints their counters.
KINDS = (
    "retries",
    "watchdog_timeouts",
    "quarantines",
    "readmissions",
    "retirements",
    "resets",
    "cancelled_jobs",
    "reexecuted_shards",
    "runs_reexecuted",
    "verify_mismatches",
    "stale_completions",
    # The cluster tier (repro.cluster): supervised worker processes.
    "workers_lost",
    "heartbeat_timeouts",
    "worker_restarts",
    "redispatches",
    "degraded",
)


class RecoveryReport:
    """Thread-safe counters + event log for one resilient run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {kind: 0 for kind in KINDS}
        self.events: List[Tuple[int, str, str]] = []

    def record(self, kind: str, detail: str = "", *, count: int = 1) -> None:
        """Count one recovery action (and trace it).

        ``kind`` must be one of the module's :data:`KINDS`; ``count``
        lets bulk actions (re-executing N shards) land as one event with
        weight N.
        """
        if kind not in self.counts:
            raise KeyError(
                f"unknown recovery event kind {kind!r}; known: "
                f"{tuple(self.counts)}"
            )
        with self._lock:
            self.counts[kind] += count
            entry = (len(self.events), kind, detail)
            self.events.append(entry)
        tracer = get_tracer()
        if tracer is not None:
            tracer.counter(f"resilience_{kind}", delta=float(count))
            tracer.add_span(
                f"resilience:{kind}", "resilience", "resilience",
                tracer.now_us(), 0.0,
                {"detail": detail, "count": count, "seq": entry[0]},
            )

    def __getitem__(self, kind: str) -> int:
        with self._lock:
            return self.counts[kind]

    @property
    def total(self) -> int:
        """Total recovery actions recorded (event count, not weights)."""
        with self._lock:
            return len(self.events)

    def summary(self) -> str:
        """Human-readable report, printed by the CLI after resilient runs."""
        with self._lock:
            counts = dict(self.counts)
            events = list(self.events)
        if not events:
            return "recovery report: no recovery actions (clean run)"
        nonzero = ", ".join(
            f"{kind}={count}" for kind, count in counts.items() if count
        )
        lines = [f"recovery report: {nonzero}"]
        for seq, kind, detail in events:
            lines.append(f"  #{seq}: {kind}" + (f" — {detail}" if detail else ""))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nonzero = {k: v for k, v in self.counts.items() if v}
        return f"RecoveryReport({nonzero})"
