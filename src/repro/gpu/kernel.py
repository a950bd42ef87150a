"""The one engine-facing kernel object every front end builds.

A CUDA or HIP ``__global__`` function, an ompx bare-region body and an
OpenMP SIMT region (paper Figures 3 and 4) are the same per-thread body
behind different façades.  :class:`Kernel` is that body plus its façade:
an engine calls ``kernel(ctx, *args)``, which runs ``fn(facade(ctx),
*args)``.  Anything else an engine runs is a raw ``(ctx, *args)``
function; :func:`kernel_name` names either.
"""

from __future__ import annotations

import functools
from typing import Callable

__all__ = ["Kernel", "kernel_name"]


class Kernel:
    """A per-thread body ``fn(facade, *args)`` as engines call it.

    ``language`` names the front end (``"cuda"``, ``"hip"``, ``"ompx"``,
    ``"omp"``); ``sync_free`` and ``vectorize`` are the flags
    :func:`~repro.gpu.engine.select_engine` reads.
    """

    def __init__(self, fn: Callable, facade: type, *, language: str,
                 sync_free: bool = False, vectorize: bool = False) -> None:
        functools.update_wrapper(self, fn)
        self.fn = fn
        self.facade = facade
        self.language = language
        self.sync_free = sync_free
        self.vectorize = vectorize
        self._entry = self.with_body(fn)

    def __call__(self, ctx, *args):
        return self._entry(ctx, *args)

    def with_body(self, body: Callable) -> Callable:
        """A ``(ctx, *args)`` callable running ``body`` behind this
        kernel's façade; the lowering pass passes its lane-batched body."""
        facade = self.facade

        def entry(ctx, *args):
            return body(facade(ctx), *args)

        return entry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.language} kernel {kernel_name(self)}>"


def kernel_name(kernel: Callable) -> str:
    """The ``__name__`` of a :class:`Kernel`'s body or of a raw kernel
    (``"kernel"`` if it has none), as spans, errors and labels show it."""
    fn = kernel.fn if isinstance(kernel, Kernel) else kernel
    return getattr(fn, "__name__", "kernel")
