"""Regression: ``ompx_device_reset`` on a pooled device drains its queue.

Before the epoch mechanism, resetting a device that a pool worker was
serving raced the worker for the queue: jobs queued before the reset
could run against the torn-down context (stale allocator, cleared
streams) and fail nondeterministically.  Now the reset hook bumps the
device's epoch, every job queued under the old epoch resolves to a
*retryable* :class:`~repro.errors.CancelledError` instead of running,
and the in-flight job is allowed to finish before the teardown proceeds.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import CancelledError
from repro.gpu import LaunchConfig
from repro.gpu.launch import launch_kernel
from repro.ompx.host import ompx_device_reset
from repro.sched import DevicePool

pytestmark = [pytest.mark.sched, pytest.mark.timeout(60)]


def _fill(ctx, out, n):
    i = ctx.flat_thread_id
    view = ctx.deref(out, n, np.float64)
    if i < n:
        view[i] = float(i)


def test_reset_cancels_queued_jobs_deterministically():
    gate = threading.Event()
    started = threading.Event()
    ran = []
    with DevicePool(1) as pool:
        device = pool.devices[0]

        def blocker(dev):
            started.set()
            gate.wait(timeout=30)
            return "survived"

        head = pool.submit_call(blocker, label="in-flight")
        queued = [
            pool.submit_call(
                lambda dev, i=i: ran.append(i), label=f"stale{i}"
            )
            for i in range(3)
        ]
        # The blocker must be running, not queued, before the reset:
        # a reset that beats the worker to it cancels it as queued.
        assert started.wait(timeout=10)

        # Release the in-flight job just after the reset starts waiting
        # for the worker to go idle.
        releaser = threading.Timer(0.2, gate.set)
        releaser.start()
        ompx_device_reset(device=device.ordinal)
        releaser.join()

        # The in-flight job was allowed to complete; everything queued
        # behind it was cancelled retryably, and none of it executed.
        assert head.result(timeout=10) == "survived"
        for future in queued:
            exc = future.exception(timeout=10)
            assert isinstance(exc, CancelledError)
            assert exc.retryable is True
            assert "reset" in str(exc)
        assert ran == []

        # The device is immediately usable again after the reset.
        after = pool.submit_call(lambda dev: dev.ordinal, label="after")
        assert after.result(timeout=10) == device.ordinal


def test_reset_from_the_worker_itself_does_not_deadlock():
    # A job calling ompx_device_reset on its *own* device must not wait
    # for its own worker to go idle (it never would); it still drains the
    # jobs queued behind it.
    with DevicePool(1) as pool:
        device = pool.devices[0]

        def self_reset(dev):
            time.sleep(0.05)  # let the stale job get queued behind us
            ompx_device_reset(device=dev.ordinal)
            return "reset-ok"

        head = pool.submit_call(self_reset, label="self-reset")
        stale = pool.submit_call(lambda dev: "should not run", label="stale")
        assert head.result(timeout=10) == "reset-ok"
        exc = stale.exception(timeout=10)
        assert isinstance(exc, CancelledError)
        assert exc.retryable is True


def test_jobs_submitted_after_the_reset_run_normally():
    with DevicePool(1) as pool:
        device = pool.devices[0]
        ompx_device_reset(device=device.ordinal)
        n = 8
        ptr = device.allocator.malloc(n * 8)
        pool.submit_call(
            lambda dev: launch_kernel(
                LaunchConfig.create(1, n), _fill, (ptr, n), dev
            ),
            device=0,
            label="post-reset-launch",
        ).result(timeout=10)
        out = np.zeros(n)
        device.allocator.memcpy_d2h(out, ptr)
        device.allocator.free(ptr)
        np.testing.assert_array_equal(out, np.arange(n, dtype=np.float64))
