"""``repro.sched`` — multi-device scheduling over the simulated GPU stack.

The ROADMAP's "sharding, batching, async, multi-backend" north star,
built on the primitives the rest of the library already provides:
registry devices, the unified :func:`~repro.gpu.launch.launch_kernel`
choke point, streams/events for cross-device ordering, peer memcpys for
halo exchange, and the fault/trace subsystems (which see pool workers as
first-class devices).

- :class:`DevicePool` / :class:`KernelFuture` — N devices, one worker
  thread each, futures-based submission with pluggable placement.
- :class:`Future` — the first-writer-wins base every backend's result
  handle (kernel, resilient, cluster, serve) builds on.
- :class:`PoolProtocol` — the structural typing surface both
  :class:`DevicePool` and :class:`~repro.resilience.ResilientPool`
  satisfy, so layers above (the app sharding helpers, ``repro.serve``)
  can treat either as an interchangeable backend.
- :func:`shard` / :func:`gather` — data-parallel decomposition helpers;
  ``python -m repro.apps xsbench --devices 4`` is built from them.
- :func:`estimate_scaling` — the modeled single- vs multi-device wall
  clock (compute/Amdahl/interconnect), for the scaling benchmarks.
"""

from typing import Callable, List, Optional, Protocol, runtime_checkable

from .future import Future
from .model import ScalingEstimate, estimate_scaling
from .pool import DevicePool, KernelFuture
from .shard import gather, shard

__all__ = [
    "DevicePool",
    "Future",
    "KernelFuture",
    "PoolProtocol",
    "ScalingEstimate",
    "estimate_scaling",
    "gather",
    "shard",
]


@runtime_checkable
class PoolProtocol(Protocol):
    """What a submission backend must look like (structural, not nominal).

    :class:`DevicePool` and :class:`~repro.resilience.ResilientPool`
    both satisfy this protocol with *signature-compatible* methods: the
    same keyword names for ``submit``/``submit_call`` (including the
    ``shard=`` accounting flag), the same ``close(drain=..., timeout=...)``
    spelling, and context-manager semantics that call :meth:`close`.
    Code written against the protocol — ``repro.apps.run`` and the
    ``repro.serve`` dispatchers — runs on either without caring whether
    futures self-heal.

    ``isinstance(obj, PoolProtocol)`` checks attribute presence only
    (:func:`typing.runtime_checkable` semantics); the signature-level
    agreement is asserted by ``tests/sched/test_pool_protocol.py``.
    """

    @property
    def devices(self) -> List:  # pragma: no cover - protocol declaration
        ...

    def submit(
        self, kernel, config, *args, device=None, label: Optional[str] = None
    ):  # pragma: no cover - protocol declaration
        """Enqueue a kernel launch; return a future resolving to its stats."""
        ...

    def submit_call(
        self,
        fn: Callable,
        *,
        device=None,
        label: Optional[str] = None,
        shard: bool = False,
    ):  # pragma: no cover - protocol declaration
        """Enqueue ``fn(device)`` as a host job; return a result future."""
        ...

    def synchronize(self) -> None:  # pragma: no cover - protocol declaration
        """Block until every job submitted so far has finished."""
        ...

    def close(
        self, *, drain: bool = True, timeout: float = 10.0
    ) -> None:  # pragma: no cover - protocol declaration
        """Shut the pool down, draining queued work unless ``drain=False``."""
        ...

    def __len__(self) -> int:  # pragma: no cover - protocol declaration
        ...
