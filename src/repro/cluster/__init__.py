"""``repro.cluster`` — process-isolated workers with supervision.

The last execution tier from the ROADMAP: where :mod:`repro.sched`
stops at one process / N simulated devices (every NumPy kernel fighting
the same GIL, one hung interpreter taking the whole "machine" down),
:class:`ClusterPool` shards work across spawned worker OS processes,
each hosting its own slice of a :class:`~repro.sched.DevicePool` —
behind the same :class:`~repro.sched.PoolProtocol`, so ``repro.serve``
and ``repro.resilience`` compose with it unchanged.

- :class:`ClusterPool` / :class:`ClusterFuture` / :class:`DeviceProxy` —
  the supervised multi-process pool (heartbeats, quarantined
  super-devices, redispatch, canary-probed restarts).
- :class:`ClusterAction` — armi-style picklable scatter/gather units;
  ``pool.scatter`` / ``pool.broadcast`` / ``pool.all_reduce`` are the
  failure-aware collectives over them.
- :func:`cluster_pool` — the graceful-degradation factory the CLI uses:
  falls back to an in-process :class:`~repro.sched.DevicePool` (with a
  :class:`RuntimeWarning` and a ``degraded`` recovery event) when no
  worker can be spawned at all.
"""

from __future__ import annotations

import warnings
from typing import Optional

from ..errors import ClusterError
from ..resilience.report import RecoveryReport
from .actions import ClusterAction
from .pool import CLUSTER_KINDS, ClusterFuture, ClusterPool, DeviceProxy
from .worker import WorkerConfig, WorkerContext

__all__ = [
    "CLUSTER_KINDS",
    "ClusterAction",
    "ClusterFuture",
    "ClusterPool",
    "DeviceProxy",
    "WorkerConfig",
    "WorkerContext",
    "cluster_pool",
]


def cluster_pool(
    workers: int,
    *,
    report: Optional[RecoveryReport] = None,
    **kwargs,
):
    """A :class:`ClusterPool`, or an in-process fallback if spawning fails.

    Graceful degradation: when no worker process can be spawned at all
    (sandboxed environment, fork/spawn restrictions), warn, record a
    ``degraded`` recovery event, and return a plain
    :class:`~repro.sched.DevicePool` with the same super-device count —
    the run still completes, bit-identical, just without process
    isolation.  Misuse errors (bad arguments) are *not* degradable and
    re-raise.

    ``plan=`` is honoured on the fallback too: the parent binds it over
    the in-process pool devices exactly like ``--devices N`` does.
    """
    report = report or RecoveryReport()
    report.ensure_kinds(CLUSTER_KINDS)
    try:
        return ClusterPool(workers, report=report, **kwargs)
    except ClusterError as exc:
        if not getattr(exc, "degradable", False):
            raise
        warnings.warn(
            f"cluster degraded to the in-process pool: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        report.record("degraded", str(exc))
        from ..sched import DevicePool

        devices = max(1, workers * int(kwargs.get("devices_per_worker", 1)))
        specs = kwargs.get("specs")
        pool = (
            DevicePool(specs=list(specs)) if specs else DevicePool(devices)
        )
        plan = kwargs.get("plan")
        if plan is not None:
            from ..faults import FaultPlan

            if isinstance(plan, str):
                plan = FaultPlan.parse(plan)
            plan.bind_devices(
                {i: d.ordinal for i, d in enumerate(pool.devices)}
            )
        return pool
