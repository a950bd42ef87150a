"""Failure injection for the verification matrix: a broken app must show up."""

import numpy as np
import pytest

import repro.harness.cli as cli_mod
import repro.harness.verification as verification_mod
from repro.apps import Stencil1D
from repro.harness.verification import verification_matrix


class _CorruptedStencil(Stencil1D):
    """A stencil whose ompx variant silently computes the wrong answer."""

    def run_single(self, variant, params, device):
        result = super().run_single(variant, params, device)
        if variant == "ompx":
            result.output = result.output + 1.0  # inject a wrong answer
        return result


class _ExplodingStencil(Stencil1D):
    """A stencil whose omp variant crashes outright."""

    def run_single(self, variant, params, device):
        if variant == "omp":
            raise RuntimeError("synthetic kernel crash")
        return super().run_single(variant, params, device)


@pytest.fixture
def only_stencil(monkeypatch):
    def install(cls):
        monkeypatch.setattr(verification_mod, "ALL_APPS", (cls,))

    return install


class TestFailureReporting:
    def test_wrong_answer_is_flagged(self, only_stencil):
        only_stencil(_CorruptedStencil)
        cells = verification_matrix()
        bad = [c for c in cells if not c.passed]
        assert bad, "corruption went unnoticed"
        assert all(c.variant == "ompx" for c in bad)
        # the other variants still pass
        assert all(c.passed for c in cells if c.variant != "ompx")

    def test_crash_is_reported_not_raised(self, only_stencil):
        only_stencil(_ExplodingStencil)
        cells = verification_matrix()  # must not raise
        crashed = [c for c in cells if c.error]
        assert crashed
        assert all("synthetic kernel crash" in c.error for c in crashed)
        assert all(np.isnan(c.checksum) for c in crashed)

    def test_render_marks_failures(self, only_stencil):
        only_stencil(_CorruptedStencil)
        text = verification_mod.render_verification()
        assert "FAIL" in text
        assert "0 failure(s)" not in text


class TestCliExitCode:
    """``repro-figures`` exits 1 when a check it prints fails."""

    def test_failing_verification_cell_exits_1(self, only_stencil, capsys):
        only_stencil(_CorruptedStencil)
        assert cli_mod.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "0 failure(s)" not in out

    def test_failing_paper_claim_exits_1(self, monkeypatch, capsys):
        relations = cli_mod.figure8_relations()
        assert cli_mod.main(["relations"]) == 0
        broken = [(relations[0][0], False)] + relations[1:]
        monkeypatch.setattr(cli_mod, "figure8_relations", lambda: broken)
        assert cli_mod.main(["relations"]) == 1
        assert "FAIL" in capsys.readouterr().out
