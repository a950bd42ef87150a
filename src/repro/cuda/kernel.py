"""CUDA kernel definition (``__global__``).

``@kernel`` marks a function as a ``__global__`` entry point.  The
chevron launch ``kernel<<<grid, block, shared, stream>>>(args...)`` is
the host runtime's ``launch`` (:mod:`repro.cuda.runtime`).
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from .builtins import CudaThread

__all__ = ["kernel", "KernelFunction"]


class KernelFunction:
    """A compiled-in-spirit ``__global__`` function.

    Wraps the user's ``fn(t, *args)`` so the engine's ``(ctx, *args)``
    calling convention is adapted to the CUDA façade.  Carries metadata the
    compiler model reads: ``language``, ``sync_free`` and the original
    Python function (for source analysis).
    """

    def __init__(
        self,
        fn: Callable,
        *,
        sync_free: bool = False,
        language: str = "cuda",
        vectorize: bool = False,
    ) -> None:
        functools.update_wrapper(self, fn)
        self.fn = fn
        self.language = language
        self.sync_free = sync_free
        self.vectorize = vectorize

        def with_body(body: Callable) -> Callable:
            def entry(ctx, *args):
                return body(CudaThread(ctx), *args)

            return entry

        adapter = with_body(fn)
        adapter.sync_free = sync_free
        adapter.vectorize = vectorize
        adapter.fn = fn  # what engine selection / compile analysis reads
        # The lowering pass (repro.compiler.lower) builds its lane-batched
        # entry from these: the same façade around a generated body.
        adapter.facade = CudaThread
        adapter.with_body = with_body
        self._adapter = adapter

    @property
    def entry(self) -> Callable:
        """The engine-facing callable."""
        return self._adapter

    def __call__(self, t, *args):
        """Direct call — usable as a ``__device__`` function from other kernels."""
        return self.fn(t, *args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.language} kernel {self.fn.__name__}>"


def kernel(
    fn: Optional[Callable] = None,
    *,
    sync_free: bool = False,
    language: str = "cuda",
    vectorize: bool = False,
):
    """Decorator marking a ``__global__`` kernel.

    ``sync_free=True`` asserts the kernel never synchronizes within a
    block, unlocking the fast sequential engine.  Misuse is caught: any
    sync call under the fast engine raises ``SyncError``.

    ``vectorize=True`` vouches that the body is hand-batched against the
    portable lane-batched intrinsics (``select``/``load``/``store``/
    ``loop_max``) so the :class:`~repro.gpu.engine.WaveVectorEngine` may
    run it as written.  The default, ``vectorize=False``, is per-thread
    source: the lane-batched engines run the body
    :mod:`repro.compiler.lower` derives from it, or a scalar engine runs
    it when the pass declines.
    """
    if fn is None:
        return lambda f: KernelFunction(
            f, sync_free=sync_free, language=language, vectorize=vectorize
        )
    return KernelFunction(fn, sync_free=sync_free, language=language, vectorize=vectorize)
