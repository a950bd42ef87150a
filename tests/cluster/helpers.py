"""Module-level picklable payloads for the cluster test suites.

Everything a :class:`~repro.cluster.ClusterPool` ships to a worker
crosses a pipe as a pickle, so the callables and actions the tests
submit must live at module scope (lambdas and test-local closures do not
pickle).  Keeping them in one shared module also lets the spawn children
resolve them by ``(module, qualname)`` reference without re-importing
whole test files.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.cluster import ClusterAction
from repro.errors import GpuError


def touch_kernel(ctx, n):
    """A kernel shipped by (module, qualname) reference; host-value args
    only — cluster submission rejects DevicePointer arguments."""
    i = ctx.global_id_x
    if i < n:
        pass


def ordinal_probe(device):
    """Report the worker-local ordinal that served the call."""
    return device.ordinal


def spec_probe(device):
    """Report the spec name that served the call."""
    return device.spec.name


def pid_probe(device):
    """Report the worker process id (proves process isolation)."""
    return os.getpid()


def slow_probe(device, seconds=0.6):
    """Sleep long enough for a mid-flight kill to orphan the job."""
    time.sleep(seconds)
    return "done"


def failing_probe(device):
    """Raise a library error inside the worker (travels back pickled)."""
    raise GpuError("deliberate worker-side failure")


def sum_on_device(device, data):
    """A tiny numeric payload with a deterministic answer."""
    return float(np.sum(data))


class RankReport(ClusterAction):
    """Echo collective coordinates plus the worker's own view of them."""

    def invoke(self, ctx):
        return (self.rank, self.size, ctx.rank, len(ctx.devices))


class PartialSum(ClusterAction):
    """Sum this rank's block slice of ``data``."""

    def __init__(self, data):
        self.data = list(data)

    def invoke(self, ctx):
        lo, hi = self.my_slice(len(self.data))
        return float(sum(self.data[lo:hi]))


class SlowAction(ClusterAction):
    """An action slow enough to be caught by a mid-collective kill."""

    def __init__(self, seconds=1.0):
        self.seconds = seconds

    def invoke(self, ctx):
        time.sleep(self.seconds)
        return ctx.rank
