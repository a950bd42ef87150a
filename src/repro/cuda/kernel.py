"""CUDA kernel definition (``__global__``).

``@kernel`` marks a function as a ``__global__`` entry point: a
:class:`~repro.gpu.kernel.Kernel` over the :class:`CudaThread` façade.
The chevron launch ``kernel<<<grid, block, shared, stream>>>(args...)``
is the host runtime's ``launch`` (:mod:`repro.cuda.runtime`).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..gpu.kernel import Kernel
from .builtins import CudaThread

__all__ = ["kernel", "KernelFunction"]


class KernelFunction(Kernel):
    """A compiled-in-spirit ``__global__`` function ``fn(t, *args)``.

    The engine-facing :class:`~repro.gpu.kernel.Kernel` over the
    :class:`CudaThread` façade; ``language="hip"`` makes it HIP's, whose
    device code is textually CUDA's.
    """

    def __init__(self, fn: Callable, *, sync_free: bool = False,
                 language: str = "cuda", vectorize: bool = False) -> None:
        super().__init__(fn, CudaThread, language=language,
                         sync_free=sync_free, vectorize=vectorize)


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
