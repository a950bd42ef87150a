"""Per-layer metrics of one traced benchmark phase.

The simulator already emits spans at its layer boundaries (``kernel:*``,
``ompx_memcpy``, ``vendor:*``, ``pool:*``, ``serve:*``, ``ckpt:write``,
``ckpt:read``) and counters (``launches``, ``vendor_flops``,
``resilience_*``, ``ckpt_*``, ``serve_*``...).  The benchmark adds its
own ``bench:*`` spans from outside the program: one per op, and the pool
queue waits, cluster round trips and serve dispatch waits that the
program does not record.

Time breakdown
--------------
Every instant inside some op is attributed to the first layer of
:data:`BREAKDOWN` with a span open at that instant, or to ``apps.host``
when none is, so the shares of one phase add up to 100%.  A layer's
share therefore counts only the time no lower layer explains: its self
time, measured on the wall clock even when two devices work at once.

Cluster workers record no spans (their tracer is not shipped back), so
under ``portfolio-cluster`` the GPU and vendor layers read zero and the
worker-side time shows as ``cluster.shard``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

#: (layer, span category or None, span name or None), lowest layer first.
BREAKDOWN = (
    ("gpu.kernel", "kernel", None),
    ("gpu.memcpy", "memcpy", None),
    ("vendor.busy", "vendor", None),
    ("ckpt.write", None, "ckpt:write"),
    ("ckpt.read", None, "ckpt:read"),
    ("sched.job", "sched", None),
    ("sched.wait", None, "bench:pool_wait"),
    ("cluster.shard", None, "bench:shard"),
    ("serve.exec", "serve", None),
    ("serve.wait", None, "bench:serve_wait"),
)
HOST = "apps.host"

#: ``serve-open`` stages whose requests' waits for a dispatcher are
#: reported as a share of their time from due to executed
#: (``serve.wait_frac.<stage>``): the light open loop and the bursts.
SERVE_WAIT_STAGES = ("hi", "burst")

APPS = ("xsbench", "rsbench", "su3", "aidw", "adam", "stencil1d", "mlpstep",
        "su3et")

#: Trace counters reported per op: metric -> (counter, unit).
PER_OP_COUNTERS = {
    "gpu.launches": ("launches", "count/op"),
    "vendor.calls": ("vendor_calls", "count/op"),
    "vendor.flops": ("vendor_flops", "flop/op"),
    "resilience.retries": ("resilience_retries", "count/op"),
    "resilience.resets": ("resilience_resets", "count/op"),
    "resilience.reexecuted_shards": ("resilience_reexecuted_shards", "count/op"),
    "faults.injected": ("faults_injected", "count/op"),
    "ckpt.writes": ("ckpt_writes", "count/op"),
    "ckpt.bytes_written": ("ckpt_bytes_written", "B/op"),
    "ckpt.reads": ("ckpt_reads", "count/op"),
    "ckpt.steps_skipped": ("ckpt_steps_skipped", "count/op"),
}

#: Every metric a traced run reports, with its unit.
UNITS: Dict[str, str] = {
    **{f"{layer}_pct": "%" for layer, _, _ in BREAKDOWN},
    f"{HOST}_pct": "%",
    f"{HOST}_s": "s",
    **{name: unit for name, (_, unit) in PER_OP_COUNTERS.items()},
    "gpu.engine_fallbacks": "count",
    "gpu.threads_per_s": "threads/s",
    "vendor.flops_per_s": "flop/s",
    "sched.jobs": "count/op",
    "cluster.pipe_bytes": "B/op",
    "cluster.workers_lost": "count",
    "cluster.redispatches": "count",
    "serve.coalesced_frac": "fraction",
    "serve.rejected": "count",
    "serve.executions": "count/op",
    **{f"serve.wait_frac.{stage}": "fraction" for stage in SERVE_WAIT_STAGES},
    **{f"apps.{app}.time_pct": "%" for app in APPS},
    "trace.overhead_pct": "%",
    "bench.late_s.max": "s",
}


def _layer_index(record) -> int:
    for i, (_, cat, name) in enumerate(BREAKDOWN):
        if record["cat"] == cat or record["name"] == name:
            return i
    return -1


def attribute(windows: List[Tuple[float, float]],
              layered: List[List[Tuple[float, float]]]) -> List[float]:
    """Split the union of ``windows`` among ``layered`` interval lists.

    Each elementary interval inside a window goes to the first layer
    with an interval open over it, else to a remainder, which is
    returned last.
    """
    events = []
    for owner, intervals in enumerate([windows] + layered):
        for lo, hi in intervals:
            if hi > lo:
                events += ((lo, owner, 1), (hi, owner, -1))
    events.sort()
    active = [0] * (len(layered) + 1)
    covered = [0.0] * (len(layered) + 1)
    prev = None
    for t, owner, delta in events:
        if prev is not None and t > prev and active[0]:
            layer = next((i for i in range(1, len(active)) if active[i]), 0)
            covered[layer] += t - prev
        active[owner] += delta
        prev = t
    return covered[1:] + covered[:1]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values``, or 0 when there are none."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def late_s_max(ops) -> float:
    """How late the latest op started after it was due.

    A burst's requests share one due time and are sent one after another
    on purpose, so they are left out.
    """
    return max((op.start - op.due for op in ops if op.stage != "burst"),
               default=0.0)


def layer_metrics(records, counters, ops, counts, *, untraced_p50,
                  traced_p50) -> dict:
    """The reported metrics (``metrics``) and the full breakdown (``detail``).

    ``records`` are the tracer's span records, ``ops`` the phase's
    :class:`~workloads.Op` list, ``counts`` what the workload measured
    outside the trace (cluster report, computed pipe bytes).
    """
    n_ops = len(ops)
    spans = [r for r in records if r.get("id") is not None]
    windows, layered = [], [[] for _ in BREAKDOWN]
    groups = defaultdict(list)  # spans by category; bench and ckpt by name
    for r in spans:
        interval = (r["ts_us"], r["ts_us"] + r["dur_us"])
        if r["name"].startswith("bench:op:"):
            windows.append(interval)
            continue
        i = _layer_index(r)
        if i >= 0:
            layered[i].append(interval)
        groups[r["name"] if r["cat"] in ("bench", "ckpt") else r["cat"]].append(r)
    covered = attribute(windows, layered)
    total = sum(covered) or 1.0
    layer_names = [layer for layer, _, _ in BREAKDOWN] + [HOST]

    metrics = {f"{name}_pct": 100.0 * c / total
               for name, c in zip(layer_names, covered)}
    metrics[f"{HOST}_s"] = covered[-1] / 1e6 / n_ops
    for name, (counter, _) in PER_OP_COUNTERS.items():
        metrics[name] = counters.get(counter, 0.0) / n_ops
    kernels = groups["kernel"]
    kernel_s = sum(r["dur_us"] for r in kernels) / 1e6
    vendor_s = sum(r["dur_us"] for r in groups["vendor"]) / 1e6
    submitted = counters.get("serve_submitted", 0.0)
    metrics.update({
        "gpu.engine_fallbacks": counters.get("engine_fallbacks", 0.0),
        "gpu.threads_per_s": (sum(r["args"].get("threads_run", 0) for r in kernels)
                              / kernel_s if kernel_s else 0.0),
        "vendor.flops_per_s": (counters.get("vendor_flops", 0.0) / vendor_s
                               if vendor_s else 0.0),
        "sched.jobs": len(groups["sched"]) / n_ops,
        "cluster.pipe_bytes": 0.0,
        "cluster.workers_lost": 0.0,
        "cluster.redispatches": 0.0,
        "serve.coalesced_frac": (counters.get("serve_coalesced", 0.0) / submitted
                                 if submitted else 0.0),
        "serve.rejected": counters.get("serve_rejected", 0.0),
        "serve.executions": counters.get("serve_executions", 0.0) / n_ops,
        "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
        "bench.late_s.max": late_s_max(ops),
    })
    for stage in SERVE_WAIT_STAGES:
        waits = [r for r in groups["bench:serve_wait"] if r["args"]["stage"] == stage]
        answered = sum(r["dur_us"] + r["args"]["exec_us"] for r in waits)
        metrics[f"serve.wait_frac.{stage}"] = (
            sum(r["dur_us"] for r in waits) / answered if answered else 0.0)
    metrics.update(counts)
    op_time = defaultdict(list)
    for op in ops:
        op_time[op.app].append(op.latency)
    all_time = sum(map(sum, op_time.values()))
    for app in APPS:
        metrics[f"apps.{app}.time_pct"] = 100.0 * sum(op_time[app]) / all_time

    def durations(key):
        return [r["dur_us"] / 1e6 for r in groups[key]]

    detail = {
        "ops": n_ops,
        **{f"{name}.busy_s": c / 1e6 / n_ops
           for name, c in zip(layer_names, covered)},
        "sched.queue_wait_s.p50": percentile(durations("bench:pool_wait"), 50),
        "sched.queue_wait_s.p95": percentile(durations("bench:pool_wait"), 95),
        "sched.job_s.p50": percentile(durations("sched"), 50),
        "cluster.shard_rtt_s.p50": percentile(durations("bench:shard"), 50),
        "serve.queue_wait_s.p50": percentile(durations("bench:serve_wait"), 50),
        "serve.queue_wait_s.p95": percentile(durations("bench:serve_wait"), 95),
        "serve.exec_s.p50": percentile([r["args"]["exec_us"] / 1e6
                                        for r in groups["bench:serve_wait"]], 50),
        "ckpt.write_s.p50": percentile(durations("ckpt:write"), 50),
        "ckpt.read_s.p50": percentile(durations("ckpt:read"), 50),
        **{f"apps.{app}.op_s.p50": percentile(op_time[app], 50) for app in APPS},
        "counters": dict(sorted(counters.items())),
    }
    return {"metrics": metrics, "detail": detail}
