"""repro.trace — nvprof/rocprof-style profiling & tracing for the stack.

The paper's evaluation is a *measurement* exercise: Figures 6–8 exist
because CUPTI (``nvprof``/``nsys``) and rocprof could observe what the
native runtimes did.  This package is the same observability layer for
the simulated stack: with tracing enabled, every kernel launch, stream
operation, ompx host API call and perf-model estimate records a span,
and the result exports as a Chrome/Perfetto trace, an ``nvprof``-style
text summary, or plain records the harness report can embed.

Quickstart
----------
::

    import repro.trace as trace

    with trace.tracing() as tracer:          # or trace.enable()/disable()
        app.run_single("ompx", params, device)
    tracer.export_chrome("out.json")         # load in ui.perfetto.dev
    print(tracer.summary())                  # nvprof-style table
    records = tracer.to_records()            # structured, for reports

or from the command line (any Figure 6 app)::

    python -m repro.apps stencil1d --run --trace out.json

What gets recorded
------------------
* ``kernel:<name>`` spans (cat ``kernel``) for every
  :func:`~repro.gpu.launch.launch_kernel` — the selected engine,
  grid/block geometry and the harvested
  :class:`~repro.gpu.engine.KernelStats` counters, identically for all
  four front ends (CUDA chevron, HIP, ``target teams``, ``ompx_bare``).
* ``queued:<op>`` / ``exec:<op>`` span pairs on each stream's track —
  the wait in the queue versus the execution, which is what makes
  cross-stream overlap (and ``depend(interopobj:)`` enqueues) visible.
* ``ompx_malloc`` / ``ompx_memcpy`` / ``ompx_memset`` spans with byte
  counts and inferred copy direction (cat ``memcpy``/``host-api``).
* perf-model predictions (:func:`~repro.perf.timing.estimate_time`),
  joined onto matching kernel spans as ``predicted_per_launch_s`` so
  predicted-vs-observed can be diffed per Figure 8 cell.

Enabling and cost
-----------------
One process-wide tracer is installed with :func:`enable` (idempotent in
spirit: the last installed wins) and removed with :func:`disable`;
:func:`get_tracer` returns it or ``None``.  Instrumented call sites test
``get_tracer() is None`` and skip everything else — with tracing
disabled the stack records nothing and pays one global read per hook
(asserted by ``benchmarks/test_trace_overhead.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .export import (
    export_chrome,
    summary,
    to_records,
    validate_chrome_trace,
    validate_trace_events,
)
from .tracer import Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "enable",
    "disable",
    "get_tracer",
    "count",
    "tracing",
    "to_records",
    "export_chrome",
    "summary",
    "validate_trace_events",
    "validate_chrome_trace",
]

#: The process-wide active tracer; ``None`` means tracing is disabled.
_active: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The active :class:`Tracer`, or ``None`` when tracing is disabled.

    This is the hook every instrumented call site uses; the disabled
    path is a single module-global read.
    """
    return _active


def count(name: str, delta: float = 1.0) -> None:
    """Bump counter ``name`` by ``delta`` on the active tracer, if any."""
    tracer = _active
    if tracer is not None:
        tracer.counter(name, delta=delta)


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the process-wide tracer.

    Pass an existing :class:`Tracer` to resume recording into it, e.g.
    across several measured sections of one session.
    """
    global _active
    _active = tracer if tracer is not None else Tracer()
    return _active


def disable() -> Optional[Tracer]:
    """Uninstall the active tracer and return it (``None`` if none was)."""
    global _active
    tracer, _active = _active, None
    return tracer


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Context manager: tracing enabled inside, restored state outside.

    Nesting restores the previously active tracer on exit rather than
    disabling tracing outright, so a traced harness can wrap traced
    helpers safely.
    """
    global _active
    prev = _active
    installed = enable(tracer)
    try:
        yield installed
    finally:
        _active = prev
