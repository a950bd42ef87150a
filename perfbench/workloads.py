"""The four benchmark workloads, and the child process that runs one.

Each workload drives the simulator through its public API only
(``repro.apps.run``, ``ClusterPool``, ``KernelService``,
``faults.inject``, ``repro.trace``) and checks every op's output with
``np.array_equal`` against an untimed single-device reference, which is
itself checked once against ``app.reference()`` by ``app.verify``.

Run as a script, this module is the fresh process :mod:`bench` starts for
every measurement::

    python perfbench/workloads.py WORKLOAD --seed N --seconds S [--setup-only]
        [--trace PATH]

It prints one JSON object as its last line.  A :mod:`hostclock` child
process times the host's speed throughout.  ``--setup-only`` times one
cold set-up and exits; otherwise the process sets up, computes the
references, runs the timed phase and reports.  With ``--trace`` it runs
an untraced half and a traced half of the same length, exports the
traced half as a Chrome trace to ``PATH`` and reports the per-layer
metrics of :mod:`layers`.

Spawn safety: :class:`~repro.cluster.ClusterPool` workers are spawned
processes that re-import this file as ``__mp_main__``, so everything
that does work sits under the ``__main__`` check and every callable
shipped to a worker is a module-level function.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SRC = ROOT / "src"

# The benchmark measures the sources next to it, never an installed copy.
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no repro sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import faults  # noqa: E402
from repro import trace as trace_mod  # noqa: E402
from repro.apps import (  # noqa: E402
    PORTFOLIO_APPS,
    SU3,
    SU3ET,
    AIDW,
    Adam,
    MLPStep,
    RSBench,
    Stencil1D,
    XSBench,
    run,
)
from repro.ckpt import list_snapshots  # noqa: E402
from repro.cluster import ClusterPool  # noqa: E402
from repro.resilience import RecoveryReport  # noqa: E402
from repro.sched import DevicePool  # noqa: E402
from repro.serve import KernelService, TenantQuota  # noqa: E402

import layers  # noqa: E402
from hostclock import HostClock, host_slowdown  # noqa: E402

#: ``functional_params()`` overrides for the portfolio workloads: every
#: op then takes 45-220 ms on one simulated device, long enough that
#: engine and vendor spans cover most of an op's wall time.
BENCH_SCALE = {
    XSBench: {"lookups": 12000},
    RSBench: {"lookups": 400},
    SU3: {"sites": 480},
    AIDW: {"inum": 120},
    Adam: {"n": 30000, "steps": 200},
    Stencil1D: {"n": 6000},
    MLPStep: {"models": 600, "batch": 16, "features": 16, "hidden": 16},
    SU3ET: {"sites": 9600},
}

#: ``recover-ckpt`` runs at functional scale, with these two enlarged so
#: their eight checkpoint shards are not trivially small.
RECOVER_SCALE = {XSBench: {"lookups": 2000}, Stencil1D: {"n": 4000}}

#: Injected into every ``recover-ckpt`` write op: every third launch on
#: pool device 1 faults, so the resilient pool resets, probes and
#: retries deterministically.
FAULT_SPEC = "launch:kernel_fault,every=3,device=1"

#: Stencil-1D is not served: a second ``run(Stencil1D(), pool=p)`` on one
#: DevicePool re-enables peer access and raises ``GpuError`` (pinned by
#: ``test_bench_harness.py::test_stencil_reused_pool``).
SERVE_APPS = tuple(cls for cls in PORTFOLIO_APPS if cls is not Stencil1D)

#: Open-loop stages of ``serve-open``: (stage, requests per second, share
#: of the run), in order.  Both rates are light load: the service drains
#: bursts at about 70 req/s on a 2-vCPU VM, so these stages time a
#: request's dispatch and execution more than its queueing.  Near that
#: capacity the p95 follows the host's speed non-linearly: at 28 req/s a
#: host running 30% slow varied it threefold.  Stage ``hi`` gets 62.5% of
#: the run so its p95 has ten requests beyond it.
SERVE_STAGES = (("lo", 8.0, 0.075), ("hi", 16.0, 0.625))
#: The rest of the run sends bursts of this many requests at once (each
#: app four times), the next when all are answered: the queue is then
#: full, and the drain rate is the service's capacity.  A 20 s run gets
#: about ten bursts, whose median rate is reported.
BURST_SIZE = 28
#: Open-loop stages run in segments of about this many seconds; between
#: segments the generator waits for every answer and times a host block.
SEGMENT_S = 2.0
#: Host blocks timed just before and again just after each set-up, which
#: ``setup_s`` is scaled by.
SETUP_BLOCKS = 5
TENANT_WEIGHTS = (2.0, 1.0, 1.0, 1.0)
COALESCE_SHARE = 0.3
LATENCY_LIMIT_S = 0.5


def app_key(app) -> str:
    """The name an app's per-app metrics use (``xsbench``, ``su3et``...)."""
    return type(app).__name__.lower()


@dataclass
class Op:
    """One timed operation, in ``time.monotonic()`` seconds.

    ``due`` is when the op should have started: the scheduled arrival in
    an open loop (a burst's start for all its requests), the previous
    op's return in a closed loop.  ``window`` numbers the closed loop's
    rounds and the open loop's segments and bursts; throughput is a
    median over them.  ``slowdown`` is the host's during the window
    (:func:`window_slowdowns`).
    """

    app: str
    kind: str
    stage: str
    due: float
    start: float
    end: float
    ok: bool
    window: int = 0
    slowdown: float = 1.0

    @property
    def latency(self) -> float:
        return self.end - (self.due if self.kind == "request" else self.start)


class TimedPool:
    """A :class:`~repro.sched.PoolProtocol` proxy that traces job timing.

    While a tracer is active, each ``submit_call`` records a
    ``bench:pool_wait`` span from submission to the job's start on an
    in-process pool, or a ``bench:shard`` span from submission to the
    observed result on a cluster pool (whose jobs run in other
    processes).  With tracing off it forwards untouched.
    """

    def __init__(self, pool) -> None:
        self.pool = pool

    def __getattr__(self, name):
        return getattr(self.pool, name)

    def __len__(self) -> int:
        return len(self.pool)

    def submit_call(self, fn, *, device=None, label=None, shard=False):
        tracer = trace_mod.get_tracer()
        if tracer is None:
            return self.pool.submit_call(fn, device=device, label=label,
                                         shard=shard)
        submitted = tracer.now_us()
        if getattr(self.pool, "is_cluster", False):
            future = self.pool.submit_call(fn, device=device, label=label,
                                           shard=shard)
            return _RoundTrip(future, tracer, submitted, label)

        def stamped(dev):
            tracer.add_span("bench:pool_wait", "bench", f"device:{dev.ordinal}",
                            submitted, tracer.now_us() - submitted,
                            {"job": label})
            return fn(dev)

        return self.pool.submit_call(stamped, device=device, label=label,
                                     shard=shard)


class _RoundTrip:
    """Cluster future wrapper: records the round trip when first seen done."""

    def __init__(self, future, tracer, submitted: float, label) -> None:
        self._future = future
        self._tracer = tracer
        self._submitted = submitted
        self._label = label
        self._seen = False

    def __getattr__(self, name):
        return getattr(self._future, name)

    def _stamp(self) -> None:
        if not self._seen and self._future.done():
            self._seen = True
            now = self._tracer.now_us()
            self._tracer.add_span("bench:shard", "bench", self._future.track,
                                  self._submitted, now - self._submitted,
                                  {"job": self._label})

    def wait(self, timeout=None):
        done = self._future.wait(timeout)
        self._stamp()
        return done

    def exception(self, timeout=None):
        exc = self._future.exception(timeout)
        self._stamp()
        return exc

    def result(self, timeout=None):
        value = self._future.result(timeout)
        self._stamp()
        return value


class Workload:
    """Set-up, references, timed phase and teardown of one workload."""

    name = ""
    #: App classes and their ``functional_params()`` overrides.
    scale: Dict[type, dict] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.apps = []
        for cls, overrides in self.scale.items():
            app = cls()
            self.apps.append((app, {**app.functional_params(), **overrides}))
        self.refs: Dict[str, np.ndarray] = {}
        self.references_ok = True

    def setup(self) -> None:
        """Build the backend and run one cold warm-up op per app."""
        raise NotImplementedError

    def references(self) -> None:
        """Untimed single-device outputs every op is compared against."""
        for app, params in self.apps:
            result = run(app, params=params)
            self.references_ok &= app.verify(result, params)
            self.refs[app_key(app)] = result.output

    def layer_counts(self, ops: List[Op]) -> Dict[str, float]:
        """Layer counts taken from objects rather than trace counters."""
        return {}

    def close(self) -> None:
        pass

    def check(self, app, output) -> bool:
        return output is not None and np.array_equal(output, self.refs[app_key(app)])

    def make_round(self):
        """One seeded round of the closed loop: ``(app, kind, call)``s.

        Work done between yields (copying a checkpoint chain) is untimed.
        """
        raise NotImplementedError

    def run(self, seconds: float, clock: HostClock) -> List[Op]:
        """Run rounds back to back until ``seconds`` have passed.

        Only whole rounds run, so per-op counts of the op mix are exact.
        ``clock`` times a host block before each round and after the
        last, while no op is in flight.
        """
        ops: List[Op] = []
        blocks = []
        deadline = time.monotonic() + seconds
        for window in itertools.count():
            blocks.append(clock.block())
            due = time.monotonic()
            for app, kind, call in self.make_round():
                tracer = trace_mod.get_tracer()
                start = time.monotonic()
                try:
                    output = call().output
                except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                    print(f"{self.name}: {app_key(app)} {kind} failed: {exc!r}",
                          file=sys.stderr)
                    output = None
                end = time.monotonic()
                ops.append(Op(app_key(app), kind, "", due, start, end,
                              self.check(app, output), window))
                if tracer is not None:
                    add_op_span(tracer, ops[-1], "bench:client")
                due = time.monotonic()
            if time.monotonic() >= deadline:
                blocks.append(clock.block())
                return window_slowdowns(ops, blocks)


def window_slowdowns(ops: List[Op], blocks: List[float]) -> List[Op]:
    """Give each op its window's host slowdown, and return ``ops``.

    ``blocks[w]`` was timed just before window ``w`` and ``blocks[w + 1]``
    just after it; the slowdown is their :func:`host_slowdown`.  On a
    shared VM the host's speed moved within seconds, and op times divided
    by the blocks around their own window varied less from run to run
    than op times divided by the whole run's blocks.
    """
    for op in ops:
        op.slowdown = host_slowdown(blocks[op.window:op.window + 2])
    return ops


def add_op_span(tracer, op: Op, track: str) -> None:
    """Record ``op`` as a ``bench:op`` span on the tracer's clock."""
    begin = op.due if op.kind == "request" else op.start
    to_us = tracer.now_us() - time.monotonic() * 1e6
    tracer.add_span(f"bench:op:{op.app}", "bench", track, begin * 1e6 + to_us,
                    op.latency * 1e6, {"app": op.app, "kind": op.kind,
                                       "ok": op.ok})


class PortfolioLocal(Workload):
    """All eight apps at bench scale on the thread-current device."""

    name = "portfolio-local"
    scale = BENCH_SCALE
    pool = None

    def setup(self) -> None:
        for app, params in self.apps:
            run(app, params=params, pool=self.pool)

    def make_round(self):
        for i in self.rng.permutation(len(self.apps)):
            app, params = self.apps[i]
            yield app, "op", functools.partial(run, app, params=params,
                                               pool=self.pool)


class PortfolioCluster(PortfolioLocal):
    """The same op stream through one pre-spawned two-worker ClusterPool."""

    name = "portfolio-cluster"

    def setup(self) -> None:
        self.pool = TimedPool(ClusterPool(2))
        super().setup()

    def layer_counts(self, ops: List[Op]) -> Dict[str, float]:
        report = self.pool.report
        return {"cluster.workers_lost": report["workers_lost"],
                "cluster.redispatches": report["redispatches"],
                "cluster.pipe_bytes": self._pipe_bytes(ops)}

    def _pipe_bytes(self, ops: List[Op]) -> float:
        """Bytes per op crossing the pipe: computed, not measured.

        An op ships its pickled shard jobs and receives the pickled
        shard outputs, whose total is about one pickled full output.
        """
        sizes = {}
        for app, params in self.apps:
            jobs = [functools.partial(app.run_single, "ompx", sub)
                    for sub in app.shard_functional_params(params, len(self.pool))]
            sizes[app_key(app)] = (
                sum(len(pickle.dumps(job)) for job in jobs)
                + len(pickle.dumps(self.refs[app_key(app)])))
        return sum(sizes[op.app] for op in ops) / len(ops)

    def close(self) -> None:
        self.pool.close()


class ServeOpen(Workload):
    """Seeded arrivals at two fixed rates, then bursts, into a two-device
    KernelService."""

    name = "serve-open"
    scale = {cls: {} for cls in SERVE_APPS}

    def setup(self) -> None:
        self.pool = DevicePool(2)
        self.service = KernelService(backend=TimedPool(self.pool),
                                     dispatchers=2)
        self.sessions = [
            self.service.session(f"tenant{i}", quota=TenantQuota(
                max_queued=64, max_inflight=4, weight=weight))
            for i, weight in enumerate(TENANT_WEIGHTS)
        ]
        for app, params in self.apps:
            self.sessions[0].submit_app(app, params=params,
                                        coalesce=False).result(timeout=60)

    def _mix(self, count: int):
        """Seeded ``(app, tenant, coalesce)`` columns of ``count`` requests:
        apps, tenants and coalescing flags in fixed proportions, shuffled."""
        apps = self.rng.permutation(np.resize(np.arange(len(self.apps)), count))
        tenants = self.rng.permutation(
            np.resize(np.arange(len(self.sessions)), count))
        coalesce = self.rng.permutation(
            np.arange(count) < round(COALESCE_SHARE * count))
        return apps, tenants, coalesce

    def _segments(self, seconds: float):
        """The open-loop requests of each segment: ``(stage, [(offset, app,
        tenant, coalesce), ...])`` with offsets from the segment's start.

        Request ``k`` of a stage arrives at a random point of the ``k``-th
        ``1/rate`` slot.  Poisson arrivals and independent draws made the
        stage-``hi`` p95 vary twofold from seed to seed at this length;
        jittered slots and a fixed mix keep the offered load the same for
        every seed and leave only its order to the seed.
        """
        segments = []
        for stage, rate, share in SERVE_STAGES:
            length = share * seconds
            count = max(1, round(rate * length))
            dues = (np.arange(count) + self.rng.random(count)) / rate
            apps, tenants, coalesce = self._mix(count)
            parts = max(1, round(length / SEGMENT_S))
            part = np.minimum((dues * parts / length).astype(int), parts - 1)
            for k in range(parts):
                pick = part == k
                offsets = dues[pick] - k * length / parts
                segments.append((stage, list(zip(offsets, apps[pick],
                                                 tenants[pick], coalesce[pick]))))
        return segments

    def run(self, seconds: float, clock: HostClock) -> List[Op]:
        """Send each segment's requests on schedule and wait for them; then
        send bursts until the run's time is up (at least one).

        The host block runs before each segment and burst and after the
        last, while nothing is in flight.
        """
        ops, futures, blocks = [], [], []
        windows = itertools.count()
        for stage, requests in self._segments(seconds):
            blocks.append(clock.block())
            self._send(stage, requests, next(windows), ops, futures)
        burst_s = (1.0 - sum(share for *_, share in SERVE_STAGES)) * seconds
        deadline = time.monotonic() + burst_s
        while True:
            blocks.append(clock.block())
            columns = self._mix(BURST_SIZE)
            self._send("burst", list(zip([0.0] * BURST_SIZE, *columns)),
                       next(windows), ops, futures)
            if time.monotonic() >= deadline:
                break
        blocks.append(clock.block())
        tracer = trace_mod.get_tracer()
        if tracer is not None:
            add_serve_wait_spans(tracer, ops, futures)
        return window_slowdowns(ops, blocks)

    def _send(self, stage: str, requests, window: int, ops: List[Op],
              futures: list) -> None:
        """Submit ``requests`` on schedule, then wait for every answer."""
        tracer = trace_mod.get_tracer()
        submitted = []
        t0 = time.monotonic()
        for offset, a, tenant, coalesce in requests:
            due = t0 + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            app, params = self.apps[a]
            start = time.monotonic()
            try:
                future = self.sessions[tenant].submit_app(
                    app, params=params, coalesce=bool(coalesce))
            except Exception as exc:  # noqa: BLE001 - a refusal is counted, not fatal
                print(f"{self.name}: refused: {exc!r}", file=sys.stderr)
                future = None
            submitted.append((app, due, start, future))
        for app, due, start, future in submitted:
            output, end = None, time.monotonic()
            if future is not None:
                try:
                    output = future.result(timeout=60).output
                except Exception as exc:  # noqa: BLE001 - a failed request is counted
                    print(f"{self.name}: request failed: {exc!r}",
                          file=sys.stderr)
                end = future.done_s if future.done_s is not None else end
            ops.append(Op(app_key(app), "request", stage, due, start, end,
                          self.check(app, output), window))
            futures.append(future)
            if tracer is not None:
                add_op_span(tracer, ops[-1], "bench:requests")

    def close(self) -> None:
        self.service.close()
        self.pool.close()


def add_serve_wait_spans(tracer, ops: List[Op], futures) -> None:
    """Record each request's wait for a dispatcher as ``bench:serve_wait``.

    A request's execution is the latest ``serve:<label>`` span that ended
    before its future resolved; the wait runs from its due time to that
    span's start.
    """
    to_us = tracer.now_us() - time.monotonic() * 1e6
    ends: Dict[str, List[tuple]] = {}
    for sp in tracer.spans:
        if sp.cat == "serve":
            ends.setdefault(sp.name, []).append((sp.ts_us + sp.dur_us, sp.ts_us))
    for spans in ends.values():
        spans.sort()
    for op, future in zip(ops, futures):
        if future is None or future.done_s is None:
            continue
        done_us = future.done_s * 1e6 + to_us
        candidates = [s for s in ends.get(f"serve:{future.label}", ())
                      if s[0] <= done_us + 1e3]
        if not candidates:
            continue
        exec_start = candidates[-1][1]
        due_us = op.due * 1e6 + to_us
        tracer.add_span("bench:serve_wait", "bench", "bench:requests", due_us,
                        max(0.0, exec_start - due_us),
                        {"app": op.app, "stage": op.stage,
                         "exec_us": candidates[-1][0] - exec_start})


class RecoverCkpt(Workload):
    """Checkpointed resilient runs under injected faults, and resumes."""

    name = "recover-ckpt"
    scale = {cls: RECOVER_SCALE.get(cls, {}) for cls in PORTFOLIO_APPS}

    def setup(self) -> None:
        """One warm-up per app writes the chain resume ops start from."""
        self.workdir = tempfile.mkdtemp(prefix="recover-", dir=OUT_DIR)
        self.chains = {}
        self._ops = 0
        for app, params in self.apps:
            chain = os.path.join(self.workdir, f"chain-{app_key(app)}")
            self._checkpointed(app, params, chain)
            newest = list_snapshots(chain)[-1][1]
            os.unlink(newest)
            self.chains[app_key(app)] = chain

    def _checkpointed(self, app, params, directory, **config):
        return run(app, params=params, devices=2, resilient=True,
                   checkpoint_dir=directory, checkpoint_every=2,
                   checkpoint_shards=8, **config)

    def _write(self, app, params, directory):
        with faults.inject(FAULT_SPEC, seed=self.seed):
            return self._checkpointed(app, params, directory,
                                      report=RecoveryReport())

    def make_round(self):
        for i in self.rng.permutation(len(self.apps)):
            app, params = self.apps[i]
            self._ops += 1
            directory = os.path.join(self.workdir, f"op-{self._ops}")
            yield app, "write", functools.partial(self._write, app, params,
                                                  directory)
            shutil.rmtree(directory, ignore_errors=True)
            shutil.copytree(self.chains[app_key(app)], directory)
            yield app, "resume", functools.partial(
                self._checkpointed, app, params, directory, resume=True)
            shutil.rmtree(directory, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in
             (PortfolioLocal, PortfolioCluster, ServeOpen, RecoverCkpt)}


def end_to_end(ops: List[Op], raw: bool = False) -> Dict[str, float]:
    """End-to-end metrics of one phase (setup and memory are added later).

    * ``throughput_ops_per_s`` counts correct ops per second of wall
      time, per closed-loop round or ``serve-open`` burst, and reports
      the median, so a spell of host noise moves one round.  The open
      loop's stages are left out: their rate is the schedule's.
    * Latencies are those of closed-loop ops, call to return, or of
      ``serve-open`` stage ``hi`` requests, due time to completion.
      ``op_s.p50_gmean`` is each app's median latency, combined over the
      apps by geometric mean: the median of all ops sits on the gap
      between two apps' latencies and jumps from one to the other.
    * ``op_s.p95`` is the 95th percentile of all correct ops.

    Unless ``raw``, times are divided by their window's host slowdown
    (:func:`window_slowdowns`) and rates multiplied by it.
    """
    def slowdown(op: Op) -> float:
        return 1.0 if raw else op.slowdown

    windows: Dict[int, List[Op]] = {}
    for op in ops:
        if op.stage in ("", "burst"):
            windows.setdefault(op.window, []).append(op)
    rates = [sum(op.ok for op in members) * slowdown(members[0])
             / (max(op.end for op in members) - min(op.due for op in members))
             for members in windows.values()]
    by_app: Dict[str, List[float]] = {}
    for op in ops:
        if op.ok and op.stage in ("", "hi"):
            by_app.setdefault(op.app, []).append(op.latency / slowdown(op))
    return {
        "throughput_ops_per_s": statistics.median(rates),
        "op_s.p50_gmean": float(np.exp(np.mean(
            [np.log(np.median(v)) for v in by_app.values()]))),
        "op_s.p95": layers.percentile([x for v in by_app.values() for x in v], 95),
    }


def phase_detail(ops: List[Op]) -> Dict[str, float]:
    """The phase's metrics as measured, the host's mean slowdown, and per
    stage of the open loop its latency percentiles (scaled like
    ``op_s.*``) and the share of requests answered correctly within the
    latency limit."""
    detail = {f"raw.{key}": value for key, value in end_to_end(ops, raw=True).items()}
    detail["host.slowdown"] = statistics.mean(op.slowdown for op in ops)
    for stage in [name for name, *_ in SERVE_STAGES] + ["burst"]:
        staged = [op for op in ops if op.stage == stage]
        latencies = [op.latency / op.slowdown for op in staged if op.ok]
        if latencies:
            detail[f"op_s.p50.{stage}"] = layers.percentile(latencies, 50)
            detail[f"op_s.p95.{stage}"] = layers.percentile(latencies, 95)
            detail[f"ops.{stage}"] = len(staged)
            detail[f"within_limit.{stage}"] = sum(
                op.ok and op.latency <= LATENCY_LIMIT_S for op in staged) / len(staged)
    detail["bench.late_s.max"] = layers.late_s_max(ops)
    return detail


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(name: str, seed: int, seconds: float,
            trace_path: Optional[str] = None, setup_only: bool = False) -> dict:
    """Set up one workload in this process and measure it; see module doc."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed)
    with HostClock() as clock:
        return _measure(workload, clock, seconds, trace_path, setup_only)


def _measure(workload: Workload, clock: HostClock, seconds: float,
             trace_path: Optional[str], setup_only: bool) -> dict:
    blocks = [clock.block() for _ in range(SETUP_BLOCKS)]
    started = time.monotonic()
    workload.setup()
    raw_setup_s = time.monotonic() - started
    blocks += [clock.block() for _ in range(SETUP_BLOCKS)]
    result = {"setup_s": raw_setup_s / host_slowdown(blocks),
              "raw_setup_s": raw_setup_s}
    try:
        if setup_only:
            return result
        workload.references()
        if trace_path is None:
            ops = workload.run(seconds, clock)
            result["e2e"] = end_to_end(ops)
        else:
            untraced = workload.run(seconds / 2, clock)
            tracer = trace_mod.Tracer()
            with trace_mod.tracing(tracer):
                ops = workload.run(seconds / 2, clock)
            tracer.export_chrome(trace_path)
            trace_mod.validate_chrome_trace(trace_path)
            result["layers"] = layers.layer_metrics(
                tracer.to_records(), tracer.counters, ops,
                workload.layer_counts(ops),
                untraced_p50=end_to_end(untraced)["op_s.p50_gmean"],
                traced_p50=end_to_end(ops)["op_s.p50_gmean"])
        result["detail"] = phase_detail(ops)
        result["attempted"] = len(ops)
        result["failed"] = sum(not op.ok for op in ops)
        result["references_ok"] = bool(workload.references_ok)
    finally:
        workload.close()
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds,
                     trace_path=args.trace, setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
