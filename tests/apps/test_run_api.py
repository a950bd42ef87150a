"""The unified run() entry point and the removed run_functional* trio.

One surface replaces the old trio: ``run(app, config)`` (or keyword
overrides) resolves single-device, sharded, resilient and
externally-pooled execution — all bit-identical for the data-parallel
apps.  The old method names finished their DeprecationWarning cycle in
release 1.2 and now raise a pointed :class:`AttributeError` naming the
replacement.
"""

import warnings

import numpy as np
import pytest

from repro.apps import Adam, ExecutionConfig, VersionLabel, XSBench, run
from repro.errors import AppError
from repro.gpu import get_device
from repro.resilience import RecoveryReport, ResilientPool
from repro.sched import DevicePool

pytestmark = [pytest.mark.sched]


@pytest.fixture(scope="module")
def baseline():
    """Fault-free single-device reference for the equivalence checks."""
    app = XSBench()
    params = app.functional_params()
    return app, params, app.run_single(VersionLabel.OMPX, params, get_device(0))


class TestUnifiedRun:
    def test_default_is_single_device_ompx(self, baseline):
        app, params, clean = baseline
        result = run(app, params=params)
        assert result.checksum == clean.checksum
        np.testing.assert_array_equal(result.output, clean.output)

    def test_config_object_and_overrides_compose(self, baseline):
        app, params, clean = baseline
        config = ExecutionConfig(variant=VersionLabel.OMPX, params=params)
        result = run(app, config, devices=2)
        assert result.checksum == clean.checksum

    def test_sharded_run_matches_single_device(self, baseline):
        app, params, clean = baseline
        result = run(app, params=params, devices=3)
        assert result.checksum == clean.checksum
        np.testing.assert_array_equal(result.output, clean.output)

    def test_resilient_run_matches_and_reports(self, baseline):
        app, params, clean = baseline
        report = RecoveryReport()
        result = run(app, params=params, devices=2, resilient=True,
                     report=report)
        assert result.checksum == clean.checksum
        assert report.total == 0  # clean run: resilience is a no-op

    def test_external_pool_is_used_not_closed(self, baseline):
        app, params, clean = baseline
        with DevicePool(2) as pool:
            result = run(app, params=params, pool=pool)
            assert result.checksum == clean.checksum
            fence = pool.submit_call(lambda device: "alive")
            assert fence.result(timeout=30) == "alive"

    def test_external_resilient_pool_routes_run_to_completion(
        self, baseline
    ):
        app, params, clean = baseline
        with DevicePool(2) as pool:
            with ResilientPool(pool) as rpool:
                result = run(app, params=params, pool=rpool)
        assert result.checksum == clean.checksum

    def test_trace_true_attaches_a_tracer(self):
        app = Adam()
        result = run(app, trace=True)
        assert result.tracer is not None
        assert result.tracer.counters.get("launches", 0) >= 1

    def test_trace_false_leaves_tracer_none(self):
        result = run(Adam())
        assert result.tracer is None


class TestRemovedRunners:
    """The 1.2 removal: old names raise a helpful AttributeError."""

    @pytest.mark.parametrize("old_name, replacement_hint", [
        ("run_functional", "repro.apps.run(app, variant="),
        ("run_functional_sharded", "repro.apps.run(app, devices=N)"),
        ("run_functional_resilient", "repro.apps.run(app, resilient=True)"),
    ])
    def test_removed_name_raises_pointed_error(
        self, baseline, old_name, replacement_hint
    ):
        app, _, _ = baseline
        with pytest.raises(AttributeError) as excinfo:
            getattr(app, old_name)
        message = str(excinfo.value)
        assert old_name in message
        assert "removed in release 1.2" in message
        assert replacement_hint in message

    def test_removed_names_fail_hasattr(self, baseline):
        app, _, _ = baseline
        assert not hasattr(app, "run_functional")
        assert not hasattr(app, "run_functional_sharded")
        assert not hasattr(app, "run_functional_resilient")

    def test_other_missing_attributes_raise_plain_error(self, baseline):
        app, _, _ = baseline
        with pytest.raises(AttributeError, match="no attribute"):
            app.definitely_not_a_method

    def test_new_surface_does_not_warn(self, baseline):
        app, params, _ = baseline
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run(app, params=params)
            app.run_single(VersionLabel.OMPX, params, get_device(0))


class TestImpossibleConfigsRefused:
    """A config that cannot be honoured fails at construction, before any
    pool or worker process exists, with a structured AppError."""

    @pytest.mark.parametrize("fields,match", [
        ({"devices": 0}, "devices must be >= 1"),
        ({"cluster": -1}, "cluster must be >= 0"),
        ({"verify": 7}, "verify must be 1 or 2"),
        ({"verify": 2}, "needs resilient=True"),
        ({"checkpoint_every": 0}, "checkpoint_every must be >= 1"),
        ({"resume": True}, "requires checkpoint_dir"),
        ({"variant": VersionLabel.OMP, "devices": 2}, "classic-OpenMP"),
        ({"variant": VersionLabel.OMP, "cluster": 2}, "classic-OpenMP"),
        ({"variant": VersionLabel.OMP, "pool": object()}, "classic-OpenMP"),
        ({"variant": VersionLabel.OMP, "checkpoint_dir": "ckpt"}, "classic-OpenMP"),
        ({"pool": object(), "devices": 2}, "pool= runs on the given backend"),
        ({"pool": object(), "cluster": 2}, "pool= runs on the given backend"),
    ])
    def test_construction_refuses(self, fields, match):
        with pytest.raises(AppError, match=match):
            ExecutionConfig(**fields)

    @pytest.mark.parametrize("overrides", [
        {"devices": 0}, {"verify": 7}, {"verify": 2},
    ])
    def test_run_refuses_instead_of_running_on_one_device(self, baseline, overrides):
        app, params, _ = baseline
        with pytest.raises(AppError):
            run(app, params=params, **overrides)

    def test_omp_on_a_cluster_spawns_no_worker(self, baseline, monkeypatch):
        import repro.backend

        spawned = []
        monkeypatch.setattr(repro.backend, "open_pool",
                            lambda *a, **k: spawned.append(a))
        app, params, _ = baseline
        with pytest.raises(AppError, match="classic-OpenMP"):
            run(app, variant=VersionLabel.OMP, params=params, cluster=2)
        assert spawned == []

    def test_valid_axes_still_compose(self):
        ExecutionConfig(devices=2, resilient=True, verify=2,
                        checkpoint_dir="ckpt", checkpoint_every=2, resume=True)
        ExecutionConfig(variant=VersionLabel.OMP, resilient=True)
