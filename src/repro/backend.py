"""The one builder of the pool a pooled run executes on.

:func:`repro.apps.run`, :class:`repro.serve.KernelService` and the
cluster's in-process fallback all open their backend through
:func:`open_pool`, so two decisions are made in one place: which pool
stack to build (a process :class:`~repro.cluster.ClusterPool`, a
:class:`~repro.sched.DevicePool`, or a
:class:`~repro.resilience.ResilientPool` over one), and how the active
fault plan's ``device=`` selectors bind to it.  It lives below the
serving tier, as :mod:`repro.digest` does, so no execution layer imports
:mod:`repro.serve` to get it.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from .errors import ClusterError
from .faults import active_plan
from .gpu.device import DeviceSpec
from .sched import DevicePool, PoolProtocol

__all__ = ["open_pool"]


@contextmanager
def open_pool(
    devices: int = 1,
    *,
    cluster: int = 0,
    specs: Optional[Sequence[DeviceSpec]] = None,
    resilient: bool = False,
    verify: int = 1,
    seed: Optional[int] = None,
    report: Optional[object] = None,
) -> Iterator[PoolProtocol]:
    """Build the backend for these settings, yield it, and close it on exit.

    * ``cluster > 0`` builds a :class:`~repro.cluster.ClusterPool` of that
      many worker processes; ``resilient``/``verify``/``seed`` apply
      inside each worker, and the active fault plan ships to them.  When
      no worker can be spawned at all, it warns with a
      :class:`RuntimeWarning`, records a ``degraded`` event in ``report``
      and falls through to the in-process stack below, one device per
      spec (or per requested worker): the run still completes,
      bit-identical, and still resilient when asked.  Misuse errors (a
      ``verify=2`` cluster with one device per worker, an empty
      ``specs``) are not degradable and re-raise.
    * Otherwise a :class:`~repro.sched.DevicePool` of ``devices`` (or
      ``specs``) gets the active fault plan's ``device=`` selectors bound
      to its pool indices, so the same spec addresses the same shard on
      every pooled path, and is wrapped in a
      :class:`~repro.resilience.ResilientPool` when ``resilient``.

    ``seed=None`` inherits the active fault plan's seed (0 without one),
    so chaos replays stay deterministic.
    """
    plan = active_plan()
    if seed is None:
        seed = plan.seed if plan is not None else 0
    if cluster > 0:
        from .cluster import ClusterPool
        from .resilience import RecoveryReport

        if report is None:
            report = RecoveryReport()
        try:
            pool = ClusterPool(cluster, specs=specs, resilient=resilient,
                               verify=verify, seed=seed, report=report)
        except ClusterError as exc:
            if not getattr(exc, "degradable", False):
                raise
            warnings.warn(f"cluster degraded to the in-process pool: {exc}",
                          RuntimeWarning, stacklevel=3)
            report.record("degraded", str(exc))
            devices = len(specs or ()) or cluster
        else:
            try:
                yield pool
            finally:
                pool.close()
            return
    with DevicePool(devices, specs=specs) as pool:
        if plan is not None:
            plan.bind_devices({i: d.ordinal for i, d in enumerate(pool.devices)})
        if not resilient:
            yield pool
            return
        from .resilience import ResilientPool

        with ResilientPool(pool, verify=verify, seed=seed, report=report) as rpool:
            yield rpool
