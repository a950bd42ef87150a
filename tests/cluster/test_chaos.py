"""Chaos acceptance: all six apps survive a mid-run worker kill, bit-identical.

The acceptance criterion for the cluster tier: with three workers and a
killer thread SIGKILLing one of them mid-run, every benchmark app must
finish with output *bit-identical* (``np.array_equal``, not approx) to
the single-device reference, and the lost worker must show up as a
quarantined super-device in the recovery report.  Also covers the CLI
composition surface: ``--cluster`` alongside ``--resilient``,
``--faults``, ``--serve`` and ``--trace``.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.apps import ALL_APPS, ExecutionConfig, run
from repro.apps.__main__ import main
from repro.cluster import ClusterPool
from repro.gpu import get_device
from repro.resilience import RecoveryReport

pytestmark = [pytest.mark.cluster]


class TestBitIdenticalUnderChaos:
    def test_all_six_apps_survive_a_mid_run_worker_kill(self):
        report = RecoveryReport()
        with ClusterPool(
            3, heartbeat_s=0.1, deadline_s=1.5, seed=1234, report=report
        ) as pool:
            # One kill, fired from a thread the moment the victim has a
            # job in flight — deterministic "mid-run" without racing the
            # (fast) functional app sweep: the dying worker necessarily
            # orphans at least one job, which must re-land on a
            # survivor without any app noticing beyond redispatch
            # latency.
            victim = pool._handles[2]
            old_pid = victim.proc.pid

            def killer():
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline and not victim.inflight:
                    time.sleep(0.001)
                os.kill(old_pid, signal.SIGKILL)

            thread = threading.Thread(target=killer, daemon=True)
            thread.start()

            for app_cls in ALL_APPS:
                app = app_cls()
                params = app.functional_params()
                reference = app.run_single("ompx", params, get_device(0))
                clustered = run(
                    app, ExecutionConfig(params=params, pool=pool)
                )
                assert np.array_equal(
                    reference.output, clustered.output
                ), f"{app.name}: cluster output diverged after worker loss"
                assert clustered.checksum == reference.checksum
            thread.join()

            # The killed worker appeared as a quarantined super-device
            # and (restart on) was readmitted after its canary probe.
            deadline = time.monotonic() + 30
            while (
                time.monotonic() < deadline
                and report["worker_restarts"] == 0
            ):
                time.sleep(0.05)
        assert report["workers_lost"] == 1
        assert report["quarantines"] == 1
        assert report["worker_restarts"] == 1
        assert report["redispatches"] >= 1

    def test_zero_fault_cluster_runs_stay_bit_identical(self):
        # The degenerate chaos schedule (no kill) is the composition
        # baseline the overhead benchmark builds on.
        with ClusterPool(2, heartbeat_s=0.1) as pool:
            for app_cls in ALL_APPS:
                app = app_cls()
                params = app.functional_params()
                reference = app.run_single("ompx", params, get_device(0))
                clustered = run(
                    app, ExecutionConfig(params=params, pool=pool)
                )
                assert np.array_equal(reference.output, clustered.output)


class TestCliComposition:
    def test_cluster_flag_runs_and_verifies(self, capsys):
        assert main(["xsbench", "--run", "--cluster", "2"]) == 0
        out = capsys.readouterr().out
        assert "worker processes" in out
        assert "PASSED" in out

    def test_cluster_composes_with_resilient_and_faults(self, capsys):
        assert main([
            "stencil1d", "--run", "--cluster", "2", "--resilient",
            "--faults", "kernel_fault@2 device=0",
        ]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out

    def test_cluster_composes_with_serve(self, capsys):
        assert main([
            "adam", "--serve", "--cluster", "2", "--tenants", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "worker" in out

    def test_cluster_composes_with_trace(self, capsys, tmp_path):
        trace_out = tmp_path / "trace.json"
        assert main([
            "su3", "--run", "--cluster", "2", "--trace", str(trace_out),
        ]) == 0
        assert trace_out.exists()

    def test_negative_cluster_is_rejected(self, capsys):
        assert main(["xsbench", "--run", "--cluster", "-1"]) != 0
