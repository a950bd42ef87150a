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
- :class:`ClusterAction` — armi-style picklable scatter/gather units:
  ``pool.scatter(action)`` runs one rank-stamped copy per worker and
  :func:`repro.sched.gather` collects them, failing as a unit when a
  participant's worker dies.

The pipe to a worker carries two job kinds: a ``call`` (a picklable
callable run on the worker's pool; kernels ride it by reference) and an
``action`` (a :class:`ClusterAction` on its own thread; scatter copies
and the restart canary).  Lost workers, heartbeat timeouts, restarts,
redispatches and degradation are counted in the shared
:class:`~repro.resilience.RecoveryReport`.

Callers that want graceful degradation (an in-process pool, with a
:class:`RuntimeWarning` and a ``degraded`` recovery event, when no worker
can be spawned at all) build the pool with
:func:`repro.backend.open_pool`, as ``run(app, cluster=N)`` and
``KernelService(cluster=N)`` do.
"""

from __future__ import annotations

from .actions import ClusterAction
from .pool import ClusterFuture, ClusterPool, DeviceProxy
from .worker import WorkerConfig, WorkerContext

__all__ = [
    "ClusterAction",
    "ClusterFuture",
    "ClusterPool",
    "DeviceProxy",
    "WorkerConfig",
    "WorkerContext",
]
