"""Shared fixtures.

Devices are process-wide singletons (like real GPUs); tests that mutate
device state (allocations, data environments) get function-scoped helper
fixtures that clean up after themselves.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.gpu.device import get_device

try:  # the real plugin wins when it is installed
    import pytest_timeout as _pytest_timeout  # noqa: F401

    _HAVE_TIMEOUT_PLUGIN = True
except ImportError:
    _HAVE_TIMEOUT_PLUGIN = False


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """SIGALRM fallback for ``@pytest.mark.timeout(N)`` markers.

    The scheduler tests guard against pool/stream deadlocks with timeout
    markers so a hung worker fails fast instead of wedging the whole run.
    When pytest-timeout is unavailable (this environment does not ship
    it), enforce the marker with a plain alarm; threads stuck in a
    deadlock keep the process alive, but the alarm interrupts the main
    thread and fails the test.  No-op off the main thread or where
    SIGALRM does not exist (Windows).
    """
    marker = item.get_closest_marker("timeout")
    # Resilience tests exercise watchdogs, healing and retries — the one
    # part of the library whose *bugs* look like hangs.  They get a
    # generous default deadline even without an explicit timeout marker.
    # Serving-tier tests (dispatcher threads blocking on admission
    # queues) hang the same way when wakeups are lost, so they get one
    # too.
    if marker is None and item.get_closest_marker("resilience") is not None:
        seconds = 120
    elif marker is None and item.get_closest_marker("serve") is not None:
        seconds = 120
    elif marker is None and item.get_closest_marker("cluster") is not None:
        # Cluster tests spawn worker processes and deliberately kill
        # them; a supervision bug (lost heartbeat wakeup, join on a dead
        # pipe) hangs exactly like a resilience bug does.
        seconds = 120
    elif marker is None and item.get_closest_marker("ckpt") is not None:
        # Checkpoint tests kill supervisors mid-run and resume in fresh
        # processes; a stuck resume (waiting on a snapshot that will
        # never appear) hangs exactly like a cluster bug does.
        seconds = 120
    elif marker is not None:
        seconds = int(marker.args[0]) if marker.args else 60
    else:
        seconds = None
    usable = (
        seconds is not None
        and not _HAVE_TIMEOUT_PLUGIN
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {seconds}s timeout marker (SIGALRM fallback)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def nvidia():
    """The A100 preset device."""
    return get_device(0)


@pytest.fixture
def amd():
    """The MI250 preset device."""
    return get_device(1)


@pytest.fixture
def intel():
    """The Intel XeHPC preset device (ordinal 3)."""
    return get_device(3)


@pytest.fixture(params=[0, 1], ids=["a100", "mi250"])
def any_device(request):
    """Parametrized over both device presets."""
    return get_device(request.param)


class DeviceArrays:
    """Allocate-and-track helper so tests cannot leak device memory."""

    def __init__(self, device):
        self.device = device
        self._ptrs = []

    def upload(self, host: np.ndarray):
        ptr = self.device.allocator.malloc(host.nbytes)
        self.device.allocator.memcpy_h2d(ptr, np.ascontiguousarray(host))
        self._ptrs.append(ptr)
        return ptr

    def alloc(self, nbytes: int):
        ptr = self.device.allocator.malloc(nbytes)
        self._ptrs.append(ptr)
        return ptr

    def download(self, ptr, shape, dtype) -> np.ndarray:
        out = np.zeros(shape, dtype=dtype)
        self.device.allocator.memcpy_d2h(out, ptr)
        return out

    def release(self):
        for ptr in self._ptrs:
            self.device.allocator.free(ptr)
        self._ptrs.clear()


@pytest.fixture
def dev_arrays(any_device):
    helper = DeviceArrays(any_device)
    yield helper
    helper.release()


@pytest.fixture
def nvidia_arrays(nvidia):
    helper = DeviceArrays(nvidia)
    yield helper
    helper.release()
