"""FaultPlan cursors: a restored plan fires the remaining triggers
byte-identically to an uninterrupted one.

This is the determinism contract behind checkpoint/resume: snapshots
carry ``plan.snapshot_cursor()``, and a resumed run restores it before
re-entering the instrumented call stream — so ``@N``, ``every=`` and
``p=`` triggers land on exactly the calls they would have hit had the
process never died.
"""

import numpy as np
import pytest

from repro import faults
from repro.errors import FaultSpecError, OutOfMemoryError
from repro.faults import FaultPlan

pytestmark = [pytest.mark.faults, pytest.mark.ckpt]


def _fire_pattern(plan, site, count, start=1, **context):
    """Which call indices in [start, start+count) produce an effect."""
    hits = []
    for n in range(start, start + count):
        if plan.fire(site, **context):
            hits.append(n)
    return hits


class TestCursorRoundTrip:
    def test_nth_trigger_survives_a_mid_stream_restore(self):
        spec = "malloc:oom@5;seed=1"
        first = FaultPlan.parse(spec)
        for _ in range(3):  # calls 1..3: no fire
            first.fire("malloc")
        cursor = first.snapshot_cursor()

        resumed = FaultPlan.parse(spec)
        resumed.restore_cursor(cursor)
        resumed.fire("malloc")  # call 4: still quiet
        with pytest.raises(OutOfMemoryError) as ei:
            resumed.fire("malloc")  # call 5: the @5 trigger
        assert getattr(ei.value, "injected", False)
        assert resumed.fired == 1

    def test_every_trigger_continues_its_cadence(self):
        spec = "memcpy:truncate,every=3,bytes=4;seed=1"
        uninterrupted = FaultPlan.parse(spec)
        expected = _fire_pattern(uninterrupted, "memcpy", 12)
        assert expected == [3, 6, 9, 12]

        first = FaultPlan.parse(spec)
        prefix = _fire_pattern(first, "memcpy", 4)
        resumed = FaultPlan.parse(spec)
        resumed.restore_cursor(first.snapshot_cursor())
        tail = _fire_pattern(resumed, "memcpy", 8, start=5)
        assert prefix + tail == expected

    def test_probability_trigger_replays_the_rng_stream(self):
        spec = "memcpy:truncate,p=0.5,bytes=1;seed=42"
        uninterrupted = FaultPlan.parse(spec)
        expected = _fire_pattern(uninterrupted, "memcpy", 40)
        assert expected  # a meaningless pattern would prove nothing
        for cut in (1, 7, 23):
            first = FaultPlan.parse(spec)
            prefix = _fire_pattern(first, "memcpy", cut)
            resumed = FaultPlan.parse(spec)
            resumed.restore_cursor(first.snapshot_cursor())
            tail = _fire_pattern(resumed, "memcpy", 40 - cut, start=cut + 1)
            assert prefix + tail == expected, f"diverged at cut={cut}"

    def test_log_sequence_numbers_continue(self):
        spec = "memcpy:truncate,every=2,bytes=1;seed=1"
        first = FaultPlan.parse(spec)
        _fire_pattern(first, "memcpy", 4)  # fires at 2 and 4
        resumed = FaultPlan.parse(spec)
        resumed.restore_cursor(first.snapshot_cursor())
        _fire_pattern(resumed, "memcpy", 2, start=5)  # fires at 6
        assert [entry[0] for entry in resumed.log] == [0, 1, 2]

    def test_cursor_is_json_safe(self):
        """Cursors ride inside pickled snapshots today, but the rebuild
        tolerates a JSON round trip (lists for tuples)."""
        import json

        spec = "memcpy:truncate,p=0.5,bytes=1;seed=9"
        first = FaultPlan.parse(spec)
        _fire_pattern(first, "memcpy", 10)
        cursor = json.loads(json.dumps(first.snapshot_cursor()))
        resumed = FaultPlan.parse(spec)
        resumed.restore_cursor(cursor)
        twin = FaultPlan.parse(spec)
        _fire_pattern(twin, "memcpy", 10)
        assert _fire_pattern(resumed, "memcpy", 10, start=11) == _fire_pattern(
            twin, "memcpy", 10, start=11
        )


class TestCursorValidation:
    def test_wrong_seed_is_rejected(self):
        cursor = FaultPlan.parse("malloc:oom@5;seed=1").snapshot_cursor()
        with pytest.raises(FaultSpecError, match="seed"):
            FaultPlan.parse("malloc:oom@5;seed=2").restore_cursor(cursor)

    def test_wrong_rules_are_rejected(self):
        cursor = FaultPlan.parse("malloc:oom@5;seed=1").snapshot_cursor()
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("malloc:oom@6;seed=1").restore_cursor(cursor)


class TestIntegratedResume:
    def test_checkpointed_resume_replays_the_remaining_triggers(self, tmp_path):
        """Kill a checkpointed run mid-chain under an effects-only fault
        plan; the resumed run's fault log must extend the snapshot's
        cursor into *exactly* the uninterrupted run's log."""
        from repro.apps import XSBench
        from repro.ckpt import CheckpointSession
        from repro.gpu.device import get_device
        from repro.sched import DevicePool

        app = XSBench()
        params = app.functional_params()
        spec = "launch:delay,every=2,delay=0;seed=3"
        clean = app.run_single("ompx", params, get_device(0))

        # Uninterrupted checkpointed run (serial: 1 device, waves of 1).
        with faults.inject(spec) as plan:
            with DevicePool(1) as pool:
                session = CheckpointSession(str(tmp_path / "a"), every=1)
                uninterrupted = app.run_sharded(
                    "ompx", params, pool, session, shards=4
                )
            expected_log = list(plan.log)
        assert plan.fired >= 1  # the plan must actually matter
        assert np.array_equal(uninterrupted.output, clean.output)

        class _Boom(Exception):
            pass

        def crash(step, path):
            if step == 2:
                raise _Boom("killed after snapshot 2")

        directory = str(tmp_path / "b")
        with faults.inject(spec):
            with DevicePool(1) as pool:
                crashed = CheckpointSession(directory, on_commit=crash)
                with pytest.raises(_Boom):
                    app.run_sharded(
                        "ompx", params, pool, crashed, shards=4
                    )

        # Fresh process: fresh plan instance, cursor restored from disk.
        with faults.inject(spec) as replay:
            with DevicePool(1) as pool:
                resumed_session = CheckpointSession(directory)
                resumed = app.run_sharded(
                    "ompx", params, pool, resumed_session, resume=True
                )
            assert list(replay.log) == expected_log
        assert np.array_equal(resumed.output, clean.output)
        assert resumed_session.stats["steps_skipped"] == 2
