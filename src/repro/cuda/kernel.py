"""CUDA kernel definition and launch (``__global__`` + chevron syntax).

``@kernel`` marks a function as a ``__global__`` entry point; ``launch``
is the chevron ``kernel<<<grid, block, shared, stream>>>(args...)``.
Launches are asynchronous with respect to the host — work is enqueued on a
stream (the default stream if none is given) — matching the behaviour the
paper contrasts with OpenMP's synchronous ``target`` in §2.3.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence

from ..errors import LaunchError
from ..gpu.device import Device, Placement
from ..gpu.dim import DimLike
from ..gpu.launch import LaunchConfig, launch_kernel
from ..gpu.stream import Stream
from .builtins import CudaThread

__all__ = ["kernel", "launch", "KernelFunction"]


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


def launch(
    kern: KernelFunction,
    grid: DimLike,
    block: DimLike,
    args: Sequence = (),
    *,
    device: Placement = None,
    shared_bytes: int = 0,
    stream: Optional[Stream] = None,
    engine: Optional[str] = None,
) -> None:
    """``kern<<<grid, block, shared_bytes, stream>>>(*args)``.

    Asynchronous: returns as soon as the work is enqueued.  Synchronize
    with ``cudaDeviceSynchronize``/``cudaStreamSynchronize`` before reading
    results on the host (Figure 1's ``cudaDeviceSynchronize`` call).
    ``device`` defaults to the caller's current CUDA device, like the
    chevron syntax.
    """
    if not isinstance(kern, KernelFunction):
        raise LaunchError(
            f"launch() needs a @kernel-decorated function, got {kern!r}; "
            f"plain Python functions cannot be __global__ entry points"
        )
    from ..gpu.device import resolve_placement
    from .runtime import current_cuda_device

    device = resolve_placement(device, default=current_cuda_device)
    config = LaunchConfig.create(
        grid, block, shared_bytes,
        stream=stream if stream is not None else device.default_stream,
        engine=engine,
    )
    launch_kernel(config, kern.entry, tuple(args), device, synchronous=False)
