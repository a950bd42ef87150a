"""repro — a reproduction of *OpenMP Kernel Language Extensions for
Performance Portable GPU Codes* (Tian, Scogland, Chapman, Doerfert;
SC-W 2023) on a simulated SIMT substrate.

Layer map (bottom to top):

* :mod:`repro.gpu`      — the virtual GPU: devices, memory, warps, streams.
* :mod:`repro.cuda` / :mod:`repro.hip` — the native kernel-language layers.
* :mod:`repro.openmp`   — the classic OpenMP runtime + codegen model.
* :mod:`repro.ompx`     — **the paper's contribution**: bare regions,
  device/host APIs, multi-dim launches, ``depend(interopobj:)``, vendor
  wrappers.
* :mod:`repro.compiler` — the toolchain model (registers, binaries, codegen).
* :mod:`repro.perf`     — occupancy + roofline + overhead timing model.
* :mod:`repro.apps`     — the six evaluated applications (Figure 6).
* :mod:`repro.port`     — the CUDA -> ompx source rewriting tools.
* :mod:`repro.harness`  — regenerates Figures 6, 7 and 8.
* :mod:`repro.trace`    — nvprof/rocprof-style profiling & tracing of the
  whole stack (Chrome/Perfetto export, text summaries).

Execution engines
-----------------

Every front end (CUDA chevron, HIP, ``target teams``, ``ompx_bare``)
launches through :func:`repro.gpu.launch_kernel` with a config-first
signature — ``launch_kernel(LaunchConfig.create(grid, block), kernel,
args, dev)``.  Three engines execute kernels on the virtual GPU, chosen
per launch by :func:`repro.gpu.engine.select_engine`:

* ``"block-thread"`` — one cooperative OS thread per GPU thread; the
  full-SIMT reference for barriers, warp collectives and atomics.
* ``"map"`` — ``sync_free`` kernels as a sequential per-thread loop.
* ``"vector"`` / ``"wave"`` — the lane-batched
  :class:`~repro.gpu.engine.WaveVectorEngine`: hand-batched kernels
  written against the portable ``select``/``load``/``store``/``loop_max``
  intrinsics run as whole NumPy arrays, either fused across blocks
  (sync-free ``"vector"`` mode) or many whole blocks per lockstep batch,
  each block with its own shared memory (``"wave"`` mode, for barriers or
  shared memory).
  Per-thread kernels run there too, as the lane-batched body the
  lowering pass (:mod:`repro.compiler.lower`) derives from their
  unchanged source.  This is what makes paper-scale launch sizes
  tractable.

An explicit ``LaunchConfig(engine=...)`` hint overrides the selection,
and a pinned ``"vector"``/``"wave"`` runs the lowered body of per-thread
source.  ``vectorize`` has two values: ``True`` runs a hand-batched body
as written; the default, ``False``, is per-thread source, which reaches
the lane-batched engines only through the lowering pass and otherwise
stays on the legacy ``map``/``block-thread`` split.  No static-analysis
guess runs per-thread source as written.  All engines produce
bit-identical outputs and identical
:class:`~repro.gpu.engine.KernelStats` for any kernel they can run.

The pre-1.0 kernel-first ``launch_kernel(kernel, config, ...)`` order
still works behind a ``DeprecationWarning`` shim; it will be removed in
release 1.3 (see the README's deprecation timeline).

Quickstart::

    import numpy as np
    from repro.gpu import get_device
    from repro import ompx

    dev = get_device(0)                     # the A100 preset
    n = 1 << 10
    d_a = ompx.ompx_malloc(n * 8, dev)      # §3.4 host API
    ompx.ompx_memcpy(d_a, np.arange(n, dtype=np.float64), n * 8, dev)

    @ompx.bare_kernel                        # §3.1 ompx_bare
    def scale(x, a, n):
        i = x.global_thread_id_x()           # §3.3 device API
        if i < n:
            x.array(a, n, np.float64)[i] *= 2.0

    ompx.target_teams_bare(dev, (n + 255) // 256, 256, scale, (d_a, n))
"""

__version__ = "1.2.0"

from . import apps, compiler, cuda, gpu, harness, hip, openmp, ompx, perf, port, trace
from .errors import ReproError

__all__ = [
    "apps",
    "compiler",
    "cuda",
    "gpu",
    "harness",
    "hip",
    "openmp",
    "ompx",
    "perf",
    "port",
    "trace",
    "ReproError",
    "__version__",
]
