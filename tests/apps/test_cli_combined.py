"""Combined CLI flags: --resilient --trace --devices N (and --serve) together.

Each flag is covered separately elsewhere; these tests pin the
*composition* — a resilient sharded run that is simultaneously traced
must exit 0, print the single-device checksum, emit a valid Chrome
trace, and print the recovery report.
"""

import pytest

from repro.apps import Stencil1D, VersionLabel, XSBench
from repro.apps.__main__ import main
from repro.gpu import get_device
from repro.trace.export import validate_chrome_trace

pytestmark = [pytest.mark.sched, pytest.mark.resilience]

#: Two structurally different apps: XSBench shards self-contained pool
#: jobs; Stencil-1D drives raw streams with halo exchange.
APPS = {"xsbench": XSBench, "stencil1d": Stencil1D}


def _expected_checksum(key):
    app = APPS[key]()
    params = app.functional_params()
    return app.run_single(VersionLabel.OMPX, params, get_device(0)).checksum


@pytest.mark.parametrize("key", sorted(APPS))
def test_resilient_trace_devices_compose(key, tmp_path, capsys):
    trace_path = tmp_path / f"{key}.json"
    code = main([
        key, "--run", "--resilient", "--trace", str(trace_path),
        "--devices", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    # The sharded resilient run matches the single-device checksum.
    assert f"checksum = {_expected_checksum(key):.6f}" in out
    assert "verification PASSED" in out
    # The recovery report printed (clean run, but the report is the
    # operator surface the flag promises).
    assert "recovery report:" in out
    # The trace is a valid Chrome trace_event file with real content.
    events = validate_chrome_trace(trace_path)
    assert events
    assert f"trace written to {trace_path}" in out


@pytest.mark.parametrize("key", sorted(APPS))
def test_resilient_trace_survives_an_injected_fault(key, tmp_path, capsys):
    # The full stack at once: fault plan + resilient pool + tracing.
    trace_path = tmp_path / f"{key}-faulted.json"
    code = main([
        key, "--run", "--resilient", "--trace", str(trace_path),
        "--devices", "2", "--faults", "launch:kernel_fault@1 device=1;seed=9",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert f"checksum = {_expected_checksum(key):.6f}" in out
    assert "verification PASSED" in out
    assert "recovery report:" in out
    assert "injected" in out  # the fault plan summary printed
    validate_chrome_trace(trace_path)


def test_serve_composes_with_resilient_trace(tmp_path, capsys):
    trace_path = tmp_path / "serve.json"
    code = main([
        "adam", "--serve", "--tenants", "3", "--resilient",
        "--trace", str(trace_path), "--devices", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    for tenant in ("tenant0", "tenant1", "tenant2"):
        assert f"{tenant}: checksum =" in out
    assert out.count("verification PASSED") == 3
    assert "kernel service:" in out
    assert "resilient backend" in out
    # Identical submissions coalesced: 3 submitted, fewer executions.
    assert "3 submitted" in out
    events = validate_chrome_trace(trace_path)
    assert events


def test_serve_fault_selectors_are_pool_relative(capsys):
    # The service binds `device=1` to its own pool device 1, so the fault
    # fires once and the resilient backend heals it under both tenants.
    code = main([
        "xsbench", "--serve", "--resilient", "--devices", "2",
        "--tenants", "2", "--faults", "launch:kernel_fault@1 device=1;seed=9",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("verification PASSED") == 2
    assert "1 fault(s) injected" in out


class TestDeviceSpecFlag:
    """--device-spec resolves a preset name to a registered ordinal."""

    def test_runs_on_the_named_preset(self, capsys):
        code = main(["su3et", "--run", "--variant", "ompx",
                     "--device-spec", "xehpc"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "verification PASSED" in out

    def test_spec_name_is_case_insensitive(self, capsys):
        code = main(["adam", "--run", "--device-spec", "A100"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "verification PASSED" in out

    def test_unknown_spec_name_exits_2(self, capsys):
        code = main(["adam", "--run", "--device-spec", "h100"])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad --device-spec" in err
        assert "xehpc" in err  # the refusal lists what exists
