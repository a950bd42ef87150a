"""Run a benchmark application from the command line.

Mirrors how the paper ran the HeCBench binaries — same command lines as
Figure 6 — with two modes:

* ``--estimate`` (default): price the run with the performance model at
  the given (paper) parameters, printing the four Figure 8 bars per
  system.
* ``--run``: execute the chosen variant *functionally* on the virtual GPU
  at the app's reduced functional scale, verify against the NumPy
  reference, and print the checksum.

``--trace OUT.json`` profiles either mode through :mod:`repro.trace`:
the run's spans (kernel launches, stream ops, ompx host calls, perf-model
predictions) are written as a Chrome/Perfetto ``trace_event`` JSON and an
``nvprof``-style summary table is printed.

``--faults SPEC`` runs the app under a seeded :mod:`repro.faults`
injection plan (e.g. ``"malloc:oom@3;seed=7"``) and prints the injected
fault log afterwards; ``--memcheck`` runs it under the memory sanitizer
and prints the leak/OOB report.

``--resilient`` wraps the run's DevicePool in :mod:`repro.resilience`:
failed shards are retried with deterministic backoff, poisoned devices
are quarantined, reset and canary-probed, and the whole decomposition is
re-executed over the survivors when a fault escapes mid-run — so a
seeded fault plan that kills a plain ``--devices 4`` run completes with
the same checksum as a fault-free run, followed by the recovery report.
``--verify 2`` additionally runs every shard on two devices and
cross-checks the results.  ``device=`` selectors in ``--faults`` refer
to pool indices (0..N-1) whenever a pool is in play.

``--cluster N`` shards the run across N supervised worker OS
processes (:mod:`repro.cluster`), each hosting its own device — true
multi-process parallelism past the GIL, with heartbeat supervision:
a SIGKILLed or hung worker is quarantined like a failed super-device,
its shards are redispatched to the survivors, and a restarted worker is
canary-probed back in.  The recovery report prints afterwards.
Composes with ``--resilient`` (device healing *inside* each worker),
``--faults`` (the plan is shipped to and re-bound inside the workers;
trigger counters then count per worker process), ``--trace`` and
``--serve``.  Degrades to the in-process pool with a warning when no
worker can be spawned.

``--serve --tenants N`` runs the app through :mod:`repro.serve`: N
concurrent tenant sessions submit the same functional run to a
:class:`~repro.serve.KernelService` over the device pool, identical
submissions coalesce onto one execution (MPS-style), every tenant's
future receives the verified result, and the per-tenant service stats
are printed.  Combine with ``--resilient`` for a self-healing backend.

``--checkpoint DIR`` makes the run crash-consistent through
:mod:`repro.ckpt`: the work is split into shards and a schema-versioned,
digest-verified snapshot of the completed shard outputs (plus the fault
plan's replay cursor) is atomically published to DIR every
``--checkpoint-every N`` shards.  After a crash — up to and including
``kill -9`` of the supervisor itself — rerunning the same command with
``--resume`` loads the newest intact snapshot (falling back down the
chain past a torn one), re-executes only the missing shards, and
produces output bit-identical to an uninterrupted run.  A
``checkpoint[DIR]: writes=... resumed_step=... steps_skipped=...``
summary prints afterwards.  Composes with ``--devices``, ``--cluster``
(worker loss and supervisor loss recover from the same chain),
``--resilient`` (retries resume from the last snapshot instead of step
zero), ``--faults`` (the replay cursor keeps injected faults
deterministic across the cut; ``checkpoint_write``/``checkpoint_read``
are themselves injectable sites) and ``--trace``.  With
``--serve`` the flag instead journals accepted submissions to
DIR/journal.jsonl and ``--resume`` re-admits the not-yet-retired ones
effectively once.  ``--resume`` without ``--checkpoint`` is an error.

Examples::

    python -m repro.apps xsbench -m event
    python -m repro.apps su3 -i 1000 -l 32 -t 128 -v 3 -w 1 --estimate
    python -m repro.apps stencil1d 134217728 1000 --run --variant ompx
    python -m repro.apps stencil1d --run --trace out.json
    python -m repro.apps stencil1d --run --faults "memcpy:truncate@1,bytes=64;seed=1"
    python -m repro.apps adam --run --memcheck
    python -m repro.apps stencil1d --run --devices 4 --resilient --faults 'kernel_fault@3 device=1'
    python -m repro.apps xsbench --serve --tenants 4
    python -m repro.apps stencil1d --run --serve --resilient --devices 2
    python -m repro.apps xsbench --run --cluster 3 --faults 'kernel_fault@2 device=1'
    python -m repro.apps mlpstep --run --devices 2
    python -m repro.apps su3et --run --variant ompx --device-spec xehpc
    python -m repro.apps xsbench --run --checkpoint /tmp/xs-chain --checkpoint-every 2
    python -m repro.apps xsbench --run --checkpoint /tmp/xs-chain --resume --cluster 2
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from typing import List, Optional, Sequence

from .. import faults as faults_mod
from .. import trace as trace_mod
from ..errors import AppError, FaultSpecError, ReproError
from ..harness.report import format_seconds
from ..perf.timing import AMD_SYSTEM, NVIDIA_SYSTEM
from . import PORTFOLIO_APPS, ExecutionConfig, VersionLabel
from . import run as run_app

#: CLI key -> app class, straight from the portfolio registry.
_BY_KEY = {
    app.name.lower().replace("-", "").replace(" ", ""): app
    for app in PORTFOLIO_APPS
}


def _split_args(argv: Sequence[str]):
    """Separate app arguments from our ``--`` flags.

    App command lines use single-dash flags (``-m event``, ``-i 1000``);
    everything from the first double-dash token onward belongs to us.
    """
    for i, arg in enumerate(argv):
        if arg.startswith("--"):
            return list(argv[:i]), list(argv[i:])
    return list(argv), []


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("apps:", ", ".join(sorted(_BY_KEY)))
        return 0

    key = argv[0].lower()
    if key not in _BY_KEY:
        print(f"unknown app {key!r}; choose from {sorted(_BY_KEY)}", file=sys.stderr)
        return 2
    app = _BY_KEY[key]()

    app_args, flag_args = _split_args(argv[1:])
    parser = argparse.ArgumentParser(prog=f"repro.apps {key}", add_help=False)
    parser.add_argument("--run", action="store_true",
                        help="functional run at reduced scale (default: estimate)")
    parser.add_argument("--estimate", action="store_true")
    parser.add_argument("--variant", default=VersionLabel.OMPX,
                        choices=list(VersionLabel.ALL))
    parser.add_argument("--device", type=int, default=0, choices=[0, 1, 2, 3])
    parser.add_argument("--device-spec", metavar="NAME", default=None,
                        help="run on the first registered device matching the "
                             "named preset (a100, mi250, xehpc — see "
                             "repro.gpu.PRESETS); overrides --device")
    parser.add_argument("--devices", type=int, default=1, metavar="N",
                        help="run data-parallel across a DevicePool of N "
                             "devices (--run mode; N=1 is the single-device "
                             "path). In --estimate mode, also print the "
                             "modeled multi-device scaling.")
    parser.add_argument("--cluster", type=int, default=0, metavar="N",
                        help="run data-parallel across N supervised worker "
                             "OS processes (repro.cluster), one device per "
                             "worker; lost workers are quarantined and their "
                             "shards redispatched. Composes with "
                             "--resilient/--faults/--trace/--serve.")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="profile the run and write a Chrome/Perfetto "
                             "trace_event JSON to this path")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="run under a seeded fault-injection plan, e.g. "
                             "'malloc:oom@3;seed=7' (see repro.faults)")
    parser.add_argument("--memcheck", action="store_true",
                        help="run under the memory sanitizer and print its "
                             "report")
    parser.add_argument("--resilient", action="store_true",
                        help="run the pool under repro.resilience: retry "
                             "failed shards, quarantine/reset/probe faulty "
                             "devices, re-execute the run over survivors, "
                             "and print the recovery report")
    parser.add_argument("--verify", type=int, default=1, choices=[1, 2],
                        help="with --resilient, 2 runs every shard on two "
                             "devices and cross-checks the results")
    parser.add_argument("--serve", action="store_true",
                        help="run the app through the repro.serve multi-"
                             "tenant kernel service: N tenant sessions "
                             "submit the same functional run concurrently "
                             "(identical submissions coalesce to one "
                             "execution) and the service stats are printed")
    parser.add_argument("--tenants", type=int, default=2, metavar="N",
                        help="number of tenant sessions for --serve "
                             "(default 2)")
    parser.add_argument("--checkpoint", metavar="DIR", default=None,
                        help="snapshot the run's completed shards (plus the "
                             "fault-plan replay cursor) into DIR after every "
                             "--checkpoint-every shards, crash-consistently "
                             "(repro.ckpt); with --serve, journal accepted "
                             "submissions into DIR instead. Composes with "
                             "--devices/--cluster/--resilient/--trace/"
                             "--faults.")
    parser.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                        help="checkpoint cadence in shards (default 1: "
                             "snapshot after every shard)")
    parser.add_argument("--resume", action="store_true",
                        help="restore the newest valid snapshot from "
                             "--checkpoint DIR and execute only the "
                             "unfinished shards; the result is bit-identical "
                             "to an uninterrupted run")
    flags = parser.parse_args(flag_args)
    if flags.serve:
        flags.run = True  # --serve is a functional-run mode
    if flags.device_spec is not None:
        from ..gpu.device import get_spec, registered_devices

        try:
            spec = get_spec(flags.device_spec)
        except ReproError as exc:
            print(f"bad --device-spec: {exc}", file=sys.stderr)
            return 2
        flags.device = next(
            ordinal for ordinal, dev in sorted(registered_devices().items())
            if dev.spec is spec
        )

    try:
        params = app.parse_args(app_args) if app_args else app.paper_params()
    except AppError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return 2

    try:
        plan = faults_mod.FaultPlan.parse(flags.faults) if flags.faults else None
    except FaultSpecError as exc:
        print(f"bad --faults spec: {exc}", file=sys.stderr)
        return 2

    tracer = trace_mod.enable() if flags.trace else None
    try:
        return _run_instrumented(app, flags, params, plan)
    finally:
        if tracer is not None:
            trace_mod.disable()
            tracer.export_chrome(flags.trace)
            print()
            print(tracer.summary())
            print(f"trace written to {flags.trace} "
                  f"(load it at https://ui.perfetto.dev)")


def _run_instrumented(app, flags, params, plan) -> int:
    """Dispatch one app run under the requested fault/sanitizer scopes.

    A library error — a configuration the backend refuses, or, with a
    fault plan active, the *expected* outcome of an injected fault — is
    reported cleanly (with the injected-fault log, if any; exit code 1)
    instead of a traceback.
    """
    checker = None
    try:
        with ExitStack() as scopes:
            if plan is not None:
                scopes.enter_context(faults_mod.inject(plan))
            if flags.memcheck:
                checker = scopes.enter_context(faults_mod.memcheck())
            code = _dispatch(app, flags, params)
    except ReproError as exc:
        print(f"\n{type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    finally:
        if plan is not None:
            print()
            print(plan.summary())
    if checker is not None:
        print()
        print(checker.report.summary())
        if not checker.report.clean:
            code = code or 1
    return code


def _dispatch(app, flags, params) -> int:
    """Run one app in ``--run`` or ``--estimate`` mode; returns exit code."""
    if flags.devices < 1:
        print(f"--devices must be >= 1, got {flags.devices}", file=sys.stderr)
        return 2
    if flags.cluster < 0:
        print(f"--cluster must be >= 0, got {flags.cluster}", file=sys.stderr)
        return 2
    if flags.resume and not flags.checkpoint:
        print("--resume requires --checkpoint DIR", file=sys.stderr)
        return 2
    if flags.checkpoint_every < 1:
        print(f"--checkpoint-every must be >= 1, got {flags.checkpoint_every}",
              file=sys.stderr)
        return 2
    if flags.run:
        run_params = app.functional_params()
        if flags.serve:
            return _run_serve(app, flags, run_params)
        config = ExecutionConfig(
            variant=flags.variant,
            params=run_params,
            device=flags.device,
            devices=flags.devices,
            cluster=flags.cluster,
            resilient=flags.resilient,
            verify=flags.verify,
            checkpoint_dir=flags.checkpoint,
            checkpoint_every=flags.checkpoint_every,
            resume=flags.resume,
        )
        if flags.checkpoint:
            word = "resuming" if flags.resume else "checkpointing"
            print(f"{app.name}: {word} into {flags.checkpoint} "
                  f"(cadence: every {flags.checkpoint_every} shard(s))")
        if flags.cluster > 0:
            mode = "resilient, " if flags.resilient else ""
            print(f"{app.name}: functional run of variant {flags.variant!r} "
                  f"sharded across {flags.cluster} worker processes ({mode}"
                  f"reduced scale: {dict(run_params)})")
            result = _run_pooled(app, config)
        elif flags.devices > 1 or flags.resilient:
            mode = "resilient, " if flags.resilient else ""
            print(f"{app.name}: functional run of variant {flags.variant!r} "
                  f"sharded across {flags.devices} pool devices ({mode}"
                  f"reduced scale: {dict(run_params)})")
            result = _run_pooled(app, config)
        else:
            print(f"{app.name}: functional run of variant {flags.variant!r} on "
                  f"device {flags.device} (reduced scale: {dict(run_params)})")
            result = run_app(app, config)
        if getattr(result, "checkpoint", None) is not None:
            print(result.checkpoint.summary())
        ok = app.verify(result, run_params)
        print(f"checksum = {result.checksum:.6f}  "
              f"verification {'PASSED' if ok else 'FAILED'}")
        return 0 if ok else 1

    print(f"{app.name} ({app.command_line}): performance-model estimates")
    for system in (NVIDIA_SYSTEM, AMD_SYSTEM):
        parts = []
        for label in VersionLabel.ALL:
            display = VersionLabel.display(label, system)
            if label == VersionLabel.OMP and getattr(app, "omp_excluded_in_paper", False):
                parts.append(f"{display}=excluded")
                continue
            tb = app.estimate(label, system, params)
            parts.append(f"{display}={format_seconds(app.reported_seconds(tb))}")
        print(f"  {system.name:7s} " + "  ".join(parts))
    if flags.devices > 1:
        _print_scaling(app, flags, params)
    return 0


def _run_pooled(app, config: ExecutionConfig):
    """Run one app through the unified entry point on a pool.

    With ``resilient=True`` the recovery report prints even when recovery
    ultimately fails (retry budget exhausted, every device retired): what
    was attempted is exactly what the operator needs to see next to the
    final error.  Fault-plan ``device=`` selectors are bound to pool
    indices by :func:`repro.apps.run` itself.
    """
    if not config.resilient and not config.cluster:
        return run_app(app, config)
    from ..resilience import RecoveryReport

    report = RecoveryReport()
    try:
        return run_app(app, config, report=report)
    finally:
        print()
        print(report.summary())


def _run_serve(app, flags, run_params) -> int:
    """Serve one app's functional run to N concurrent tenant sessions.

    Every tenant submits the *same* (variant, params) job, so the serving
    tier's request coalescing collapses them onto one execution and fans
    the result out — the MPS-daemon behaviour, visible in the printed
    service stats.
    """
    from ..serve import KernelService

    variant = flags.variant
    if variant == VersionLabel.NATIVE_VENDOR:
        variant = VersionLabel.NATIVE_LLVM  # same sources
    plan = faults_mod.active_plan()
    backing = (
        f"{flags.cluster} cluster worker(s)" if flags.cluster
        else f"{flags.devices} pool device(s)"
    )
    print(f"{app.name}: serving variant {variant!r} to {flags.tenants} "
          f"tenant(s) over {backing} "
          f"(reduced scale: {dict(run_params)})")
    failures = 0
    with KernelService(
        devices=flags.devices,
        cluster=flags.cluster,
        resilient=flags.resilient,
        verify=flags.verify,
        seed=plan.seed if plan is not None else 0,
        journal_dir=flags.checkpoint,
    ) as service:
        if flags.resume and flags.checkpoint:
            recovered = service.recover()
            if recovered:
                print(f"  re-admitted {len(recovered)} journaled "
                      f"submission(s) from {flags.checkpoint}")
        sessions = [
            service.session(f"tenant{i}") for i in range(flags.tenants)
        ]
        futures = [
            session.submit_app(app, variant=variant, params=run_params)
            for session in sessions
        ]
        for session, future in zip(sessions, futures):
            try:
                result = future.result()
            except ReproError as exc:
                failures += 1
                print(f"  {session.tenant}: FAILED ({type(exc).__name__}: {exc})")
                continue
            ok = app.verify(result, run_params)
            failures += 0 if ok else 1
            print(f"  {session.tenant}: checksum = {result.checksum:.6f}  "
                  f"verification {'PASSED' if ok else 'FAILED'}")
        print()
        print(service.summary())
    return 1 if failures else 0


def _print_scaling(app, flags, params) -> None:
    """Modeled multi-device scaling of the ompx version (see EXPERIMENTS.md)."""
    from ..gpu.device import A100_SPEC, MI250_SPEC
    from ..sched import estimate_scaling

    print(f"  modeled {flags.devices}-device scaling (ompx, data-parallel):")
    for system, spec in ((NVIDIA_SYSTEM, A100_SPEC), (AMD_SYSTEM, MI250_SPEC)):
        tb = app.estimate(VersionLabel.OMPX, system, params)
        single = app.reported_seconds(tb)
        # Per-step halo traffic for the stencil (two edges per device per
        # iteration, matched to the reported unit — per launch or total);
        # the other apps shard without any cross-device traffic.
        peer_bytes = peer_transfers = 0
        if "radius" in params and "iterations" in params:
            peer_bytes = 2 * params["radius"] * 8
            peer_transfers = 2 if app.reports == "per_launch" \
                else 2 * params["iterations"]
        est = estimate_scaling(
            single, flags.devices, spec,
            peer_bytes=peer_bytes, peer_transfers=peer_transfers,
        )
        print(f"    {system.name:7s} {format_seconds(est.single_seconds)} -> "
              f"{format_seconds(est.multi_seconds)}  "
              f"(speedup {est.speedup:.2f}x, efficiency {est.efficiency:.0%}, "
              f"comm {format_seconds(est.comm_seconds)})")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
