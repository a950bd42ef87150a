"""The host's speed, timed in a process that runs no simulator code.

On a shared 2-vCPU VM the host's speed drifted by up to 40% within a
minute, and op times with it.  The benchmark therefore divides its
times by how much slower than a reference the host ran a fixed block of
work (:func:`host_block`), timed just before and just after each round
of ops.

The block runs in a separate process (this file, run as a script),
never in the process that measures: there a regression that burns CPU
in a background thread (a dispatcher that polls, a busier heartbeat)
would slow the block through the interpreter lock as much as the ops,
and the scaling would cancel it.  The measuring process asks for a
block only while none of its ops is in flight, and waits without the
lock while the block runs on the other vCPU.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List

import numpy as np

#: What :func:`host_block` takes on an unloaded host: about its median on
#: a quiet 2-vCPU x86-64 VM.
REFERENCE_BLOCK_S = 0.025

class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def host_block(stream: np.ndarray) -> float:
    """Time one fixed block of work, in seconds.

    The block runs an arithmetic loop in the interpreter, allocates,
    hashes and sorts small objects, applies NumPy to a cache-sized array
    many times and streams ``stream`` (16 MB, past the caches) through
    NumPy once.  The simulator's ops mix all of these, and on a shared VM
    other tenants slow each by a different amount.  Any one part alone
    tracked some workloads' op times well and others' poorly.
    """
    start = time.monotonic()
    acc, table = 0, {}
    for i in range(20000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    points = [_Point(i, 2 * i) for i in range(6000)]
    buckets: dict = {}
    for p in points:
        buckets[p.x % 97] = buckets.get(p.x % 97, 0) + p.y
    points.sort(key=lambda p: (p.y * 31) % 101)
    values = np.arange(50000, dtype=np.float64)
    for _ in range(40):
        values = np.sqrt(values * 1.0001 + 1.0)
    np.sqrt(stream * 1.0001 + 1.0)
    return time.monotonic() - start


def host_slowdown(blocks: List[float]) -> float:
    """How much slower than the reference the host ran ``blocks``.

    The mean, not the median: a host that withholds the CPU now and then
    slows some blocks and not others, and ops pay the average.
    """
    return statistics.mean(blocks) / REFERENCE_BLOCK_S


class HostClock:
    """A child process that times :func:`host_block` on request."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.block()  # the child's imports finish before anything is timed

    def block(self) -> float:
        """Time one block in the child; the caller holds no op in flight."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host clock exited with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> int:
    stream = np.arange(2_000_000, dtype=np.float64)
    for _ in sys.stdin:
        print(repr(host_block(stream)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
