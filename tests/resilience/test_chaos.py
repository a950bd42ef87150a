"""Chaos suite: seeded fault plans over the real apps, bit-identical recovery.

The end-to-end acceptance bar for the resilience layer: for every app,
a resilient multi-device run under an injected fault plan must produce
*exactly* the checksum and output a fault-free single-device run
produces, and the recovery report must account for what the plan fired.
Fault specs use pool-relative ``device=`` selectors, re-bound onto the
pool's live registry ordinals exactly as the ``--resilient --faults``
CLI path does.
"""

import numpy as np
import pytest

from repro import faults
from repro.apps import AIDW, Adam, RSBench, SU3, Stencil1D, VersionLabel, XSBench
from repro.apps import run as apps_run
from repro.errors import GpuError
from repro.gpu import get_device
from repro.resilience import ResilientPool
from repro.sched import DevicePool

pytestmark = [pytest.mark.resilience, pytest.mark.faults]

#: Apps whose shards are self-contained pool jobs (retryable one by one);
#: Stencil-1D drives raw streams and recovers at the run level instead.
GENERIC_APPS = (XSBench, RSBench, SU3, AIDW, Adam)


def _clean_checksum(app, params):
    """The fault-free single-device baseline the chaos run must match."""
    return app.run_single(VersionLabel.OMPX, params, get_device(0))


def _resilient_run(app, params, pool, plan, **rpool_kwargs):
    plan.bind_devices({i: d.ordinal for i, d in enumerate(pool.devices)})
    with ResilientPool(pool, seed=plan.seed, **rpool_kwargs) as rpool:
        result = apps_run(app, variant=VersionLabel.OMPX, params=params,
                          pool=rpool)
    return result, rpool.report


@pytest.mark.parametrize(
    "spec",
    ["launch:kernel_fault@1 device=1", "malloc:oom@1 device=1"],
    ids=["kernel-fault", "oom"],
)
@pytest.mark.parametrize("app_cls", GENERIC_APPS, ids=lambda c: c.__name__.lower())
def test_shard_fault_recovers_bit_identically(app_cls, spec):
    app = app_cls()
    params = app.functional_params()
    clean = _clean_checksum(app, params)
    with DevicePool(3) as pool:
        with faults.inject(spec, seed=11) as plan:
            result, report = _resilient_run(app, params, pool, plan)
        assert plan.fired == 1, plan.summary()
    assert result.checksum == clean.checksum  # exact, not approx
    np.testing.assert_array_equal(result.output, clean.output)
    assert report["retries"] >= 1
    # A kernel fault poisons its context and must round-trip through
    # quarantine; an injected OOM is transient and must not.
    if "kernel_fault" in spec:
        assert report["quarantines"] == 1
        assert report["readmissions"] == 1
    else:
        assert report["quarantines"] == 0


def test_stencil_run_level_recovery():
    # The halo-exchange decomposition drives raw streams, so a mid-run
    # kernel fault escapes the future layer entirely: recovery heals
    # every device (quarantine + canary for the poisoned one, plain
    # reset for the rest) and re-executes the whole 4-shard run.
    app = Stencil1D()
    params = app.functional_params()
    clean = _clean_checksum(app, params)
    with DevicePool(4) as pool:
        with faults.inject("kernel_fault@3 device=1", seed=0) as plan:
            result, report = _resilient_run(app, params, pool, plan)
        assert plan.fired == 1, plan.summary()
    assert result.checksum == clean.checksum
    np.testing.assert_array_equal(result.output, clean.output)
    assert report["runs_reexecuted"] == 1
    assert report["quarantines"] == 1
    assert report["readmissions"] == 1
    assert report["resets"] == 4
    assert report["reexecuted_shards"] == 4


def test_stencil_without_resilience_fails():
    # The control arm: the same fault on a plain pool is fatal.
    app = Stencil1D()
    params = app.functional_params()
    with DevicePool(4) as pool:
        with faults.inject("kernel_fault@3 device=1", seed=0) as plan:
            plan.bind_devices(
                {i: d.ordinal for i, d in enumerate(pool.devices)}
            )
            with pytest.raises(GpuError, match="queued work failed"):
                app.run_sharded(VersionLabel.OMPX, params, pool)


def test_stencil_aborted_enqueue_recovers():
    # An aborted enqueue raises on the host thread mid-halo-loop without
    # poisoning anything: run-level recovery takes the clean-reset path
    # (no quarantine, no canary) and still re-runs to the exact answer.
    app = Stencil1D()
    params = app.functional_params()
    clean = _clean_checksum(app, params)
    with DevicePool(4) as pool:
        with faults.inject("enqueue:abort@2 device=2", seed=3) as plan:
            result, report = _resilient_run(app, params, pool, plan)
        assert plan.fired == 1, plan.summary()
    assert result.checksum == clean.checksum
    assert report["runs_reexecuted"] == 1
    assert report["quarantines"] == 0
    assert report["resets"] == 4


def test_watchdog_recovers_hung_launch():
    # A delayed launch "hangs" one shard far past the watchdog deadline;
    # the shard is timed out, its device drained/reset/readmitted, and
    # the shard re-executed — while the eventual completion of the hung
    # job is recorded as stale instead of corrupting the result.
    app = Adam()
    params = app.functional_params()
    clean = _clean_checksum(app, params)
    with DevicePool(2) as pool:
        with faults.inject(
            "launch:delay@1 device=1,delay=1.0", seed=5
        ) as plan:
            result, report = _resilient_run(
                app, params, pool, plan,
                watchdog_deadline_s=0.3, heal_timeout_s=10,
            )
        assert plan.fired == 1, plan.summary()
    assert result.checksum == clean.checksum
    np.testing.assert_array_equal(result.output, clean.output)
    assert report["watchdog_timeouts"] == 1
    assert report["quarantines"] == 1
    assert report["stale_completions"] == 1


def test_verify2_catches_silent_corruption():
    # A truncated h2d transfer corrupts a shard's *input* without raising
    # anything — invisible to verify=1.  The verify=2 shadow run on a
    # second device disagrees, both results are discarded, and the
    # re-execution converges on the clean answer.
    app = Adam()
    params = app.functional_params()
    clean = _clean_checksum(app, params)
    with DevicePool(2) as pool:
        with faults.inject(
            "memcpy:truncate@1 device=1,direction=h2d", seed=7
        ) as plan:
            result, report = _resilient_run(
                app, params, pool, plan, verify=2
            )
        assert plan.fired == 1, plan.summary()
    assert result.checksum == clean.checksum
    np.testing.assert_array_equal(result.output, clean.output)
    assert report["verify_mismatches"] >= 1


def test_clean_resilient_run_reports_nothing():
    # No faults: the resilient path must be a bit-identical no-op with an
    # empty report (the overhead benchmark covers the cost side).
    app = Adam()
    params = app.functional_params()
    clean = _clean_checksum(app, params)
    with DevicePool(3) as pool:
        with ResilientPool(pool) as rpool:
            result = apps_run(
                app, variant=VersionLabel.OMPX, params=params, pool=rpool
            )
            report = rpool.report
    assert result.checksum == clean.checksum
    np.testing.assert_array_equal(result.output, clean.output)
    assert report.total == 0
    assert "clean run" in report.summary()
