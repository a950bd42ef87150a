"""Kernel spans look the same no matter which front end launched them.

Satellite of the trace subsystem: all four front ends (CUDA chevron,
HIP, classic ``target teams``, ``ompx_bare``) funnel through
``launch_kernel``, so their ``cat == "kernel"`` spans must carry an
identical args schema — and a disabled tracer must record nothing.
"""

import pytest

import repro.trace as trace
from repro import cuda, hip, ompx
from repro.openmp import target_teams_parallel

# The contract: launch geometry + engine choice at launch, KernelStats
# counters harvested after the run.
EXPECTED_ARG_KEYS = {
    "engine",
    "lowered",
    "grid",
    "block",
    "shared_bytes",
    "threads_run",
    "blocks_run",
    "barriers",
    "warp_collectives",
    "global_derefs",
    "shared_declarations",
}


def _run_cuda(nvidia, amd):
    @cuda.kernel(sync_free=True)
    def noop_cuda(t):
        pass

    cuda.launch(noop_cuda, 2, 32, (), device=nvidia)
    nvidia.synchronize()


def _run_hip(nvidia, amd):
    @hip.kernel(sync_free=True)
    def noop_hip(t):
        pass

    hip.launch(noop_hip, 2, 32, (), device=amd)
    amd.synchronize()


def _run_openmp(nvidia, amd):
    def noop_omp(t):
        pass

    target_teams_parallel(nvidia, 2, 32, noop_omp)


def _run_ompx_bare(nvidia, amd):
    @ompx.bare_kernel(sync_free=True)
    def noop_bare(x):
        pass

    ompx.target_teams_bare(nvidia, 2, 32, noop_bare)


FRONTENDS = {
    "cuda": _run_cuda,
    "hip": _run_hip,
    "openmp": _run_openmp,
    "ompx_bare": _run_ompx_bare,
}


def kernel_spans(tracer):
    return [s for s in tracer.spans if s.cat == "kernel"]


@pytest.fixture(params=sorted(FRONTENDS), ids=sorted(FRONTENDS))
def frontend(request):
    return FRONTENDS[request.param]


class TestSchema:
    def test_kernel_span_schema(self, frontend, nvidia, amd):
        t = trace.enable()
        frontend(nvidia, amd)
        spans = kernel_spans(t)
        assert len(spans) == 1
        (sp,) = spans
        assert set(sp.args) == EXPECTED_ARG_KEYS
        assert sp.name.startswith("kernel:")
        assert sp.args["grid"] == [2, 1, 1]
        assert sp.args["block"] == [32, 1, 1]
        assert sp.args["threads_run"] == 64
        assert isinstance(sp.args["engine"], str) and sp.args["engine"]
        assert isinstance(sp.args["lowered"], bool)

    def test_schema_identical_across_all_frontends(self, nvidia, amd):
        t = trace.enable()
        for run in FRONTENDS.values():
            run(nvidia, amd)
        spans = kernel_spans(t)
        assert len(spans) == len(FRONTENDS)
        schemas = {frozenset(sp.args) for sp in spans}
        assert len(schemas) == 1, f"front ends disagree on span schema: {schemas}"

    def test_launch_counter_matches_kernel_spans(self, nvidia, amd):
        t = trace.enable()
        for run in FRONTENDS.values():
            run(nvidia, amd)
        assert t.counters["launches"] == len(kernel_spans(t))


class TestIntelPreset:
    """The schema parity extends to the fourth ordinal (XeHPC preset)."""

    def _launch_all(self, device):
        @cuda.kernel(sync_free=True)
        def noop_cuda(t):
            pass

        @hip.kernel(sync_free=True)
        def noop_hip(t):
            pass

        @ompx.bare_kernel(sync_free=True)
        def noop_bare(x):
            pass

        cuda.launch(noop_cuda, 2, 32, (), device=device)
        device.synchronize()
        hip.launch(noop_hip, 2, 32, (), device=device)
        device.synchronize()
        target_teams_parallel(device, 2, 32, lambda t: None)
        ompx.target_teams_bare(device, 2, 32, noop_bare)

    def test_all_front_ends_agree_on_intel(self, intel):
        t = trace.enable()
        self._launch_all(intel)
        spans = kernel_spans(t)
        assert len(spans) == len(FRONTENDS)
        schemas = {frozenset(sp.args) for sp in spans}
        assert len(schemas) == 1, f"front ends disagree on xehpc: {schemas}"
        assert schemas == {frozenset(EXPECTED_ARG_KEYS)}

    def test_intel_schema_matches_a100(self, nvidia, intel):
        t = trace.enable()
        self._launch_all(intel)
        intel_schemas = {frozenset(sp.args) for sp in kernel_spans(t)}
        t = trace.enable()
        self._launch_all(nvidia)
        assert {frozenset(sp.args) for sp in kernel_spans(t)} == intel_schemas


class TestDisabled:
    def test_disabled_tracing_adds_no_spans(self, frontend, nvidia, amd):
        t = trace.enable()
        frontend(nvidia, amd)
        before = len(t.spans)
        assert before > 0
        trace.disable()
        assert trace.get_tracer() is None
        frontend(nvidia, amd)  # kernels still run fine ...
        assert len(t.spans) == before  # ... but record nothing
