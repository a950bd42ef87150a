"""Picklable :class:`ClusterAction`\\ s: scatter/gather work units.

Modeled on armi's ``mpiActions`` (see SNIPPETS.md): an action is a small
picklable object that travels to a worker process, runs
:meth:`ClusterAction.invoke` against that worker's
:class:`~repro.cluster.worker.WorkerContext`, and ships its return value
back.  ``rank``/``size`` are stamped by the pool at scatter time (armi's
``broadcast``/``invokeHook`` shape), so one action instance describes
the whole collective and each copy knows which slice is its own.

Subclass it for real work::

    class SumShard(ClusterAction):
        def __init__(self, data):
            self.data = data           # picklable state only

        def invoke(self, ctx):
            lo, hi = self.my_slice(len(self.data))
            return float(np.sum(self.data[lo:hi]))

    total = pool.all_reduce(SumShard(data), op="sum")

The failure contract is the pool's: a participant whose worker dies
mid-collective surfaces as :class:`~repro.errors.WorkerLost` from the
gather — collectives fail as a unit instead of silently reducing over a
partial set.
"""

from __future__ import annotations

import copy
from typing import Any, List, Tuple

from ..errors import ClusterError

__all__ = ["ClusterAction"]


class ClusterAction:
    """One scatterable unit of work; subclasses implement :meth:`invoke`.

    Instances must stay picklable: plain attributes, no device handles,
    no open files.  ``rank``/``size`` are ``None`` until the pool stamps
    them (:meth:`_with_rank`), so an action accidentally invoked without
    going through ``scatter`` fails loudly instead of computing rank 0's
    slice everywhere.
    """

    rank: Any = None
    size: Any = None

    def invoke(self, ctx) -> Any:  # pragma: no cover - abstract
        """Run this action's slice on one worker; the return value is
        gathered by the parent.  ``ctx`` is a
        :class:`~repro.cluster.worker.WorkerContext`."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement invoke(ctx)"
        )

    def _with_rank(self, rank: int, size: int) -> "ClusterAction":
        """A per-worker copy with its collective coordinates stamped."""
        clone = copy.copy(self)
        clone.rank = rank
        clone.size = size
        return clone

    def my_slice(self, n: int) -> Tuple[int, int]:
        """This rank's ``[lo, hi)`` share of ``n`` items (block layout).

        The first ``n % size`` ranks take one extra item, matching
        :func:`repro.sched.shard`'s remainder handling, so action-based
        decompositions line up with future-based ones.
        """
        if self.rank is None or self.size is None:
            raise ClusterError(
                f"{type(self).__name__} has no rank/size; actions must be "
                f"dispatched via ClusterPool.scatter()/all_reduce()"
            )
        base, extra = divmod(n, self.size)
        lo = self.rank * base + min(self.rank, extra)
        hi = lo + base + (1 if self.rank < extra else 0)
        return lo, hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} rank={self.rank}/{self.size}>"


class _StoreAction(ClusterAction):
    """Park a value in the worker's context store (broadcast payload)."""

    def __init__(self, key: str, value: Any) -> None:
        self.key = key
        self.value = value

    def invoke(self, ctx) -> Any:
        ctx.store[self.key] = self.value
        return self.value


class _ResetPoisoned(ClusterAction):
    """Reset every poisoned device of the worker; returns their super-device
    indices.  A device's sticky context lives in its worker process, so a
    parent that heals a plain cluster (the serving tier does) resets there."""

    def invoke(self, ctx) -> List[int]:
        from ..ompx.host import ompx_device_reset

        reset = []
        for index, device in zip(ctx.global_indices, ctx.devices):
            if device.is_poisoned:
                ompx_device_reset(device=device.ordinal)
                reset.append(index)
        return reset
