"""ResilientPool: retries, quarantine, and self-healing over a DevicePool.

The wrapper keeps the DevicePool's submission API (``submit``,
``submit_call``, ``devices``, ``len``) so the app sharding layer runs on
either unchanged — but every submission comes back as a
:class:`ResilientFuture` that transparently re-executes retryable
failures, and ``devices`` exposes only the *healthy* devices, so a
sharded run started after a retirement decomposes over the survivors.

Recovery is synchronous and deterministic: retries happen on the thread
that waits on the future (there is no hidden retry executor racing the
caller), backoff jitter comes from one seeded RNG, and device healing is
serialized per device.  For workloads that drive devices directly
instead of going through futures — Stencil-1D enqueues its halo loop on
raw streams — :meth:`ResilientPool.run_to_completion` provides the outer
self-healing loop: heal every device, then re-execute the whole run.
"""

from __future__ import annotations

import threading
import time
from random import Random
from typing import Callable, List, Optional

import numpy as np

from ..digest import digest
from ..errors import (
    GpuError,
    KernelFault,
    ReproError,
    SchedulerError,
    StickyContextError,
    WatchdogTimeout,
)
from ..gpu.device import Device
from ..gpu.kernel import kernel_name
from ..gpu.launch import LaunchConfig, launch_kernel
from ..sched import DevicePool, Future, KernelFuture
from .health import HEALTHY, QUARANTINED, RETIRED, SUSPECT, HealthTracker
from .policy import RetryPolicy, exception_chain
from .report import RecoveryReport
from .watchdog import Watchdog

__all__ = ["ResilientPool", "ResilientFuture"]

#: Cells in the canary buffer — big enough to exercise a full warp on
#: both vendor presets, small enough to probe in microseconds.
_CANARY_N = 64


def _canary_kernel(ctx, out, n):
    i = ctx.flat_thread_id
    view = ctx.deref(out, n, np.float64)
    if i < n:
        view[i] = float(i + 1)


# No barrier, shared memory, collective or atomic: declared sync-free, the
# lowered body runs on ``vector``; undeclared it would stay on block-thread.
_canary_kernel.sync_free = True


def _canary_probe(device: Device):
    """malloc + launch + readback + compare: is this device usable again?"""
    alloc = device.allocator
    ptr = alloc.malloc(_CANARY_N * 8)
    try:
        launch_kernel(
            LaunchConfig.create(1, _CANARY_N), _canary_kernel,
            (ptr, _CANARY_N), device,
        )
        seen = np.zeros(_CANARY_N)
        alloc.memcpy_d2h(seen, ptr)
    finally:
        alloc.free(ptr)
    expected = np.arange(1, _CANARY_N + 1, dtype=np.float64)
    if not np.array_equal(seen, expected):
        raise GpuError(
            f"canary kernel mismatch on device {device.ordinal}: the "
            f"context answered but computed wrong values"
        )
    return True


def _digest(value):
    """A comparable fingerprint of a job result, or ``None`` if opaque.

    ``verify=2`` cross-checks a shard by running it twice and comparing
    digests.  A FunctionalResult compares by variant, checksum and
    output; anything else digests with :func:`repro.digest.digest`, so
    timing-ish objects (KernelStats) and arbitrary objects digest to
    ``None`` and skip the comparison rather than reporting spurious
    mismatches.
    """
    checksum = getattr(value, "checksum", None)
    output = getattr(value, "output", None)
    if checksum is not None and isinstance(output, np.ndarray):
        return ("functional", getattr(value, "variant", None),
                float(checksum), digest(output))
    return digest(value)


def _is_context_fault(exc: BaseException) -> bool:
    """Whether the failure implicates the device context itself."""
    return any(
        isinstance(e, (KernelFault, StickyContextError, WatchdogTimeout))
        for e in exception_chain(exc)
    )


class ResilientFuture(Future):
    """A future whose failures are healed and retried before you see them.

    Resolution is lazy and runs on the waiting thread: ``wait``/
    ``result``/``exception`` drive the retry loop (heal the device,
    back off, resubmit) until the job succeeds, exhausts
    ``policy.max_attempts``, or fails un-retryably, and then settle the
    :class:`~repro.sched.Future` base with the final outcome.
    Compatible with :func:`repro.sched.gather`.
    """

    def __init__(
        self,
        rpool: "ResilientPool",
        fn: Callable[[Device], object],
        *,
        inner_index: Optional[int],
        label: str,
        shard: bool = False,
    ) -> None:
        super().__init__(label)
        self._rpool = rpool
        self._fn = fn
        self._pinned = inner_index
        self._shard = shard
        self.attempts = 0
        self._resolve_lock = threading.Lock()
        self._inner = self._submit_attempt(inner_index)

    # --- submission ---------------------------------------------------------
    def _submit_attempt(self, inner_index: Optional[int]) -> KernelFuture:
        if inner_index is None:
            inner_index = self._rpool._next_active_index()
        # Remember which heal generation this attempt ran under, so a
        # failure does not re-heal a device another waiter already fixed.
        self._gen = self._rpool._generation(inner_index)
        future = self._rpool.pool.submit_call(
            self._fn, device=inner_index, label=self.label
        )
        self.attempts += 1
        self._rpool._watch(future)
        return future

    # --- introspection ------------------------------------------------------
    @property
    def device(self) -> Device:
        """The device of the most recent attempt."""
        return self._inner.device

    @property
    def track(self) -> str:
        """The trace track of the most recent attempt."""
        return self._inner.track

    # --- resolution ---------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Drive retries to a final outcome; ``False`` if an attempt
        out-waits ``timeout`` (the timeout bounds each attempt, not the
        whole retry sequence — healing and backoff are unbounded work)."""
        with self._resolve_lock:
            while not self.done():
                if not self._inner.wait(timeout):
                    return False
                exc = self._inner.exception()
                if exc is None:
                    value = self._inner.result()
                    if self._verify_ok(value):
                        self._settle(result=value)
                    continue
                self._on_failure(exc)
            return True

    def _on_failure(self, exc: BaseException) -> None:
        rpool = self._rpool
        policy = rpool.policy
        if not policy.is_retryable(exc) or self.attempts >= policy.max_attempts:
            self._settle(exc=exc)
            return
        failed_index = rpool._inner_index_of(self._inner.device)
        healed = rpool.heal_device(failed_index, exc, seen_generation=self._gen)
        if self._pinned is not None and not healed:
            # The job is pinned to device-resident state (buffers it set
            # up earlier); with that device retired the retry cannot
            # mean anything — surface the original failure and let the
            # run-level recovery re-decompose over the survivors.
            self._settle(exc=exc)
            return
        rpool.report.record(
            "retries",
            f"{self.label}: attempt {self.attempts} failed with "
            f"{type(exc).__name__}, retrying",
        )
        if self._shard:
            rpool.report.record("reexecuted_shards", self.label)
        time.sleep(rpool._backoff_s(self.attempts))
        try:
            self._inner = self._submit_attempt(self._pinned)
        except SchedulerError as placement_exc:
            # No healthy devices remain: the retry is impossible.
            placement_exc.__cause__ = exc
            self._settle(exc=placement_exc)

    # --- verify=2 shadow execution ------------------------------------------
    def _verify_ok(self, value) -> bool:
        """Dual-device cross-check; ``True`` when the result may stand."""
        rpool = self._rpool
        if rpool.verify < 2 or self._pinned is not None:
            return True  # pinned jobs are device-resident, not relocatable
        expected = _digest(value)
        if expected is None:
            return True
        primary = rpool._inner_index_of(self._inner.device)
        others = [i for i in rpool.health.active_indices() if i != primary]
        if not others:
            return True
        shadow_index = others[self.attempts % len(others)]
        shadow = rpool.pool.submit_call(
            self._fn, device=shadow_index, label=f"{self.label}#shadow"
        )
        rpool._watch(shadow)
        try:
            shadow_value = shadow.result()
        except ReproError as exc:
            # The shadow device failed, not the primary result: heal it
            # and accept the primary (it would have passed under verify=1).
            rpool.heal_device(shadow_index, exc)
            return True
        if _digest(shadow_value) == expected:
            return True
        rpool.report.record(
            "verify_mismatches",
            f"{self.label}: devices {self._inner.device.ordinal} and "
            f"{shadow.device.ordinal} disagree",
        )
        if self.attempts >= rpool.policy.max_attempts:
            self._settle(exc=GpuError(
                f"verify=2 cross-check for {self.label!r} still "
                f"disagrees after {self.attempts} attempts"
            ))
            return False
        # Re-run the primary on a fresh placement; both devices are now
        # suspect, so neither result is trusted as-is.
        rpool.health.mark_suspect(primary)
        rpool.health.mark_suspect(shadow_index)
        self._inner = self._submit_attempt(None)
        return False

    def _describe(self) -> str:
        return f"resilient future {self.label!r} (attempt {self.attempts})"


class ResilientPool:
    """The fault-tolerant face of a :class:`~repro.sched.DevicePool`.

    Does not own the wrapped pool's lifecycle — create the DevicePool as
    a context manager and wrap it — but does own the watchdog thread;
    use ``with ResilientPool(pool) as rpool`` (or call :meth:`close`) to
    stop it.

    ``verify=2`` additionally runs every relocatable (unpinned)
    submission on a second device and compares result digests, catching
    corruption (e.g. an injected truncated memcpy) that produces a wrong
    answer instead of an exception.  It needs a pool of at least two
    devices; a smaller pool is refused at construction.
    """

    #: It heals its own devices, so a service over it leaves recovery to it.
    resilient = True

    def __init__(
        self,
        pool: DevicePool,
        *,
        policy: Optional[RetryPolicy] = None,
        report: Optional[RecoveryReport] = None,
        verify: int = 1,
        seed: int = 0,
        watchdog_deadline_s: Optional[float] = 5.0,
        heal_timeout_s: float = 30.0,
    ) -> None:
        if verify not in (1, 2):
            raise SchedulerError(f"verify must be 1 or 2, got {verify}")
        if verify == 2 and len(pool.devices) < 2:
            raise SchedulerError(
                f"verify=2 cross-checks every shard on a second device, but "
                f"the pool has {len(pool.devices)}; use at least 2 devices "
                f"or verify=1"
            )
        self.pool = pool
        self.policy = policy or RetryPolicy()
        self.report = report or RecoveryReport()
        self.verify = verify
        self.health = HealthTracker(len(pool.devices), report=self.report)
        self.watchdog_deadline_s = watchdog_deadline_s
        self._heal_timeout_s = heal_timeout_s
        self._rng = Random(seed)
        self._lock = threading.Lock()
        self._rr = 0
        self._heal_locks = [threading.Lock() for _ in pool.devices]
        # Bumped every time a device completes a heal; attempts remember
        # the generation they ran under so concurrent waiters do not
        # re-heal a device that was already fixed after their failure.
        self._heal_gens = [0] * len(pool.devices)
        self.watchdog = Watchdog(
            report=self.report, on_timeout=self._on_watchdog_timeout
        )

    # --- DevicePool-compatible surface --------------------------------------
    @property
    def devices(self) -> List[Device]:
        """The devices currently eligible for work (healthy or suspect).

        Sharded runners enumerate ``pool.devices`` to decompose the
        problem; exposing only the active ones is what makes a re-run
        after a retirement decompose over the survivors.
        """
        return [self.pool.devices[i] for i in self.health.active_indices()]

    def __len__(self) -> int:
        return len(self.health.active_indices())

    def submit_call(
        self,
        fn: Callable[[Device], object],
        *,
        device=None,
        label: Optional[str] = None,
        shard: bool = False,
    ) -> ResilientFuture:
        """Like :meth:`DevicePool.submit_call`, with recovery.

        ``device`` (an index into :attr:`devices`, or one of them) *pins*
        the job: retries stay on that device after healing, and never
        relocate — pinned jobs touch device-resident state.  Unpinned
        jobs must be self-contained and may be re-placed or shadow-run
        freely.  ``shard=True`` marks the job as one shard of a sharded
        run, counting its retries as re-executed shards in the report.
        """
        return ResilientFuture(
            self,
            fn,
            inner_index=None if device is None else self._resolve_active(device),
            label=label or getattr(fn, "__name__", "call"),
            shard=shard,
        )

    def submit(
        self,
        kernel,
        config,
        *args,
        device=None,
        label: Optional[str] = None,
    ) -> ResilientFuture:
        """Like :meth:`DevicePool.submit`, with recovery."""
        return self.submit_call(
            lambda dev: launch_kernel(config, kernel, tuple(args), dev),
            device=device,
            label=label or kernel_name(kernel),
        )

    def synchronize(self) -> None:
        """Drain every queued job on the wrapped pool (fence per device)."""
        self.pool.synchronize()

    def close(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the watchdog; optionally drain the wrapped pool first.

        Signature-compatible with :meth:`DevicePool.close` (the
        :class:`~repro.sched.PoolProtocol` contract), so backends are
        interchangeable to layers like ``repro.serve``.  The wrapped
        pool's lifecycle still belongs to its owner: ``drain=True`` waits
        (bounded by ``timeout`` per device) for in-flight work before the
        watchdog stops, but the pool's workers and devices are torn down
        by :meth:`DevicePool.close`, not here.
        """
        if drain:
            for index in range(len(self.pool.devices)):
                self.pool.wait_idle(index, timeout=timeout)
        self.watchdog.stop()

    def __enter__(self) -> "ResilientPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # --- placement over healthy devices -------------------------------------
    def _resolve_active(self, device) -> int:
        """Resolve ``device=`` (active index or Device) to an inner index."""
        active = self.health.active_indices()
        if isinstance(device, Device):
            for inner in active:
                if self.pool.devices[inner] is device:
                    return inner
            raise SchedulerError(
                f"device {device.ordinal} is not an active device of this "
                f"resilient pool"
            )
        index = int(device)
        if not 0 <= index < len(active):
            raise SchedulerError(
                f"active-device index {index} out of range (pool has "
                f"{len(active)} active devices)"
            )
        return active[index]

    def _next_active_index(self) -> int:
        active = self.health.active_indices()
        if not active:
            raise SchedulerError(
                "no healthy devices remain in the resilient pool"
            )
        with self._lock:
            chosen = active[self._rr % len(active)]
            self._rr += 1
        return chosen

    def _inner_index_of(self, device: Device) -> int:
        return self.pool.devices.index(device)

    def _generation(self, index: int) -> int:
        with self._lock:
            return self._heal_gens[index]

    def _bump_generation(self, index: int) -> None:
        with self._lock:
            self._heal_gens[index] += 1

    def _backoff_s(self, retry_number: int) -> float:
        with self._lock:
            return self.policy.backoff_s(retry_number, self._rng)

    def _watch(self, future: KernelFuture) -> None:
        if self.watchdog_deadline_s is not None:
            future.stale_callback = lambda: self.report.record(
                "stale_completions", future.label
            )
            self.watchdog.watch(future, self.watchdog_deadline_s)

    def _on_watchdog_timeout(self, future: KernelFuture) -> None:
        # Evidence, not yet a verdict: the retry path (or run-level
        # healing) escalates to quarantine and actually resets the device.
        try:
            self.health.mark_suspect(self._inner_index_of(future.device))
        except ValueError:  # device no longer in the pool (close race)
            pass

    # --- healing ------------------------------------------------------------
    def heal_device(
        self,
        index: int,
        exc: BaseException,
        *,
        seen_generation: Optional[int] = None,
    ) -> bool:
        """Restore one device after a failure; ``True`` if it may be used.

        Transient failures (injected OOM, aborted enqueue) leave the
        context intact: the device is marked SUSPECT and stays in
        placement.  Context faults (kernel fault / sticky poison /
        watchdog fire) quarantine the device: wait for its worker to go
        idle, ``ompx_device_reset`` it (which also cancels its queued
        jobs deterministically), then probe with a canary kernel —
        readmit on success, retire permanently on failure.

        ``seen_generation`` (from :meth:`_generation` at submit time)
        makes healing idempotent per fault: a waiter whose failure
        predates an already-completed heal skips the redundant
        reset/probe cycle.
        """
        device = self.pool.devices[index]
        with self._heal_locks[index]:
            state = self.health.state(index)
            if state == RETIRED:
                return False
            if (
                seen_generation is not None
                and self._generation(index) != seen_generation
            ):
                return state in (HEALTHY, SUSPECT)
            if not device.is_poisoned and not _is_context_fault(exc):
                self.health.mark_suspect(index)
                return True
            if state != QUARANTINED:
                self.health.quarantine(
                    index,
                    f"device {device.ordinal}: {type(exc).__name__}",
                )
            self.pool.wait_idle(index, timeout=self._heal_timeout_s)
            self._reset_device(index)
            self._bump_generation(index)
            return self._probe(index)

    def _reset_device(self, index: int) -> None:
        from ..ompx.host import ompx_device_reset

        device = self.pool.devices[index]
        ompx_device_reset(device=device.ordinal)
        self.report.record("resets", f"device {device.ordinal}")

    def _probe(self, index: int) -> bool:
        """Canary-probe a quarantined device; readmit or retire it."""
        device = self.pool.devices[index]
        canary = self.pool.submit_call(
            _canary_probe, device=index, label=f"canary:dev{device.ordinal}"
        )
        deadline = self.watchdog_deadline_s or 5.0
        self.watchdog.watch(canary, deadline)
        try:
            canary.result(timeout=deadline * 2)
        except ReproError as exc:
            self.health.retire(
                index,
                f"device {device.ordinal}: canary failed "
                f"({type(exc).__name__}: {exc})",
            )
            return False
        self.health.mark_healthy(
            index, f"device {device.ordinal}: canary passed"
        )
        return True

    # --- whole-run self-healing ---------------------------------------------
    def run_to_completion(
        self,
        fn: Callable[["ResilientPool"], object],
        *,
        label: str = "run",
    ):
        """Execute ``fn(self)``, healing and re-running on retryable failure.

        The outer recovery loop for workloads that drive devices directly
        (raw streams, peer copies) where a mid-run fault escapes the
        future layer.  Before each re-run every non-retired device is
        reset — poisoned ones through the full quarantine/canary cycle,
        clean ones with a plain reset to reclaim buffers and peer links
        the aborted run leaked — so the re-execution starts from the same
        state the first run did.  Each re-run counts the surviving device
        count as re-executed shards.
        """
        attempt = 1
        while True:
            try:
                return fn(self)
            except ReproError as exc:
                if (
                    attempt >= self.policy.max_attempts
                    or not self.policy.is_retryable(exc)
                ):
                    raise
                self.report.record(
                    "runs_reexecuted",
                    f"{label}: attempt {attempt} failed with "
                    f"{type(exc).__name__}",
                )
                self._heal_all(exc)
                count = len(self.health.active_indices())
                self.report.record(
                    "reexecuted_shards",
                    f"{label}: re-running {count} shard(s)",
                    count=count,
                )
                time.sleep(self._backoff_s(attempt))
                attempt += 1

    def _heal_all(self, exc: BaseException) -> None:
        """Bring every non-retired device back to a clean, probed state."""
        for index, device in enumerate(self.pool.devices):
            state = self.health.state(index)
            if state == RETIRED:
                continue
            if device.is_poisoned:
                with self._heal_locks[index]:
                    if self.health.state(index) != QUARANTINED:
                        self.health.quarantine(
                            index,
                            f"device {device.ordinal}: poisoned "
                            f"({type(exc).__name__})",
                        )
                    self.pool.wait_idle(index, timeout=self._heal_timeout_s)
                    self._reset_device(index)
                    self._bump_generation(index)
                    self._probe(index)
            else:
                # Clean but mid-aborted-run: reclaim leaked buffers, peer
                # enablement and queued stream work for a fresh start.
                self.pool.wait_idle(index, timeout=self._heal_timeout_s)
                self._reset_device(index)
                self._bump_generation(index)
                if state == SUSPECT:
                    self.health.mark_healthy(index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ResilientPool over {self.pool!r} "
            f"health={self.health.snapshot()}>"
        )
