"""HealthTracker: the HEALTHY/SUSPECT/QUARANTINED/RETIRED state machine."""

import pytest

from repro.errors import SchedulerError
from repro.resilience import (
    HEALTHY,
    QUARANTINED,
    RETIRED,
    SUSPECT,
    HealthTracker,
)
from repro.resilience.report import RecoveryReport

pytestmark = [pytest.mark.resilience]


@pytest.fixture
def tracker():
    return HealthTracker(3, report=RecoveryReport())


def test_devices_start_healthy(tracker):
    assert tracker.snapshot() == {0: HEALTHY, 1: HEALTHY, 2: HEALTHY}
    assert tracker.active_indices() == [0, 1, 2]


def test_suspect_stays_in_placement(tracker):
    assert tracker.mark_suspect(1)
    assert tracker.state(1) == SUSPECT
    assert tracker.active_indices() == [0, 1, 2]


def test_quarantine_leaves_placement(tracker):
    tracker.quarantine(1, "poisoned")
    assert tracker.active_indices() == [0, 2]


def test_full_recovery_cycle(tracker):
    tracker.mark_suspect(0)
    tracker.quarantine(0, "escalated")
    assert tracker.mark_healthy(0, "canary passed")
    assert tracker.state(0) == HEALTHY
    assert tracker.active_indices() == [0, 1, 2]


def test_retirement_is_terminal(tracker):
    tracker.quarantine(2, "poisoned")
    tracker.retire(2, "canary failed")
    assert tracker.state(2) == RETIRED
    assert tracker.active_indices() == [0, 1]
    with pytest.raises(SchedulerError, match="illegal health transition"):
        tracker.mark_healthy(2)
    with pytest.raises(SchedulerError, match="illegal health transition"):
        tracker.mark_suspect(2)


def test_cannot_retire_without_quarantine(tracker):
    # Retirement requires the quarantine/canary evidence trail.
    with pytest.raises(SchedulerError, match="illegal health transition"):
        tracker.retire(0)


def test_redundant_transitions_return_false(tracker):
    assert tracker.mark_suspect(0) is True
    assert tracker.mark_suspect(0) is False
    assert tracker.mark_healthy(0) is True
    assert tracker.mark_healthy(0) is False


def test_transitions_feed_the_report():
    report = RecoveryReport()
    tracker = HealthTracker(2, report=report)
    tracker.quarantine(0, "device 3: KernelFault")
    tracker.mark_healthy(0, "device 3: canary passed")
    tracker.quarantine(1, "device 4: hung")
    tracker.retire(1, "device 4: canary failed")
    assert report["quarantines"] == 2
    assert report["readmissions"] == 1
    assert report["retirements"] == 1


def test_readmission_without_detail_is_not_counted():
    # SUSPECT -> HEALTHY after a transient is bookkeeping, not a
    # readmission; only a detail-carrying recovery counts.
    report = RecoveryReport()
    tracker = HealthTracker(1, report=report)
    tracker.mark_suspect(0)
    tracker.mark_healthy(0)
    assert report["readmissions"] == 0


def test_needs_at_least_one_device():
    with pytest.raises(SchedulerError):
        HealthTracker(0, report=RecoveryReport())


def test_report_counts_cluster_kinds_without_a_cluster():
    # One registry: the cluster tier's kinds read 0 on any report.
    report = RecoveryReport()
    for kind in ("workers_lost", "heartbeat_timeouts", "worker_restarts",
                 "redispatches", "degraded"):
        assert report[kind] == 0


def test_report_rejects_unknown_kind():
    report = RecoveryReport()
    with pytest.raises(KeyError):
        report.record("typo_kind", "nope")


def test_report_summary_renders_counts_and_events():
    report = RecoveryReport()
    assert "clean run" in report.summary()
    report.record("retries", "shard0: attempt 1 failed")
    report.record("quarantines", "device 3: KernelFault")
    text = report.summary()
    assert "retries=1" in text
    assert "quarantines=1" in text
    assert "shard0: attempt 1 failed" in text
    assert report.total == 2
