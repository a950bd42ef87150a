"""Classic target regions: worksharing coverage, SIMT style, nowait."""

import numpy as np
import pytest

from repro.errors import OpenMPError
from repro.openmp import (
    TaskRuntime,
    target,
    target_teams_distribute_parallel_for,
    target_teams_parallel,
)
from repro.openmp.codegen import RegionTraits
from repro.openmp.data import data_environment


@pytest.fixture(autouse=True)
def clean_env(nvidia, amd):
    yield
    data_environment(nvidia).reset()
    data_environment(amd).reset()


class TestSerialTarget:
    def test_serial_region_sees_device_copies(self, nvidia):
        a = np.arange(4, dtype=np.float64)
        b = np.zeros(4)

        def region(acc):
            acc.mapped(b)[:] = acc.mapped(a) * 3

        report = target(nvidia, region, maps=[(a, "to"), (b, "from")])
        assert np.array_equal(b, a * 3)
        assert report.grid == 1 and report.block == 1

    def test_nowait_defers(self, nvidia):
        runtime = TaskRuntime(num_helpers=2)
        try:
            hits = []
            task = target(
                nvidia, lambda acc: hits.append(1), nowait=True, task_runtime=runtime
            )
            task.wait(2)
            runtime.taskwait()
            assert hits == [1]
        finally:
            runtime.shutdown()


class TestWorksharing:
    def test_every_iteration_once_scalar_body(self, nvidia):
        n = 101  # deliberately not a multiple of anything
        out = np.zeros(n)

        def body(i, acc):
            acc.mapped(out)[i] += 1

        target_teams_distribute_parallel_for(
            nvidia, n, body, thread_limit=16, maps=[(out, "tofrom")]
        )
        assert (out == 1).all()

    def test_every_iteration_once_vector_body(self, nvidia):
        n = 1000
        out = np.zeros(n)

        def vbody(idx, acc):
            acc.mapped(out)[idx] += idx

        target_teams_distribute_parallel_for(
            nvidia, n, vector_body=vbody, num_teams=7, thread_limit=64,
            maps=[(out, "tofrom")],
        )
        assert np.array_equal(out, np.arange(n, dtype=np.float64))

    def test_zero_trip_count(self, nvidia):
        report = target_teams_distribute_parallel_for(
            nvidia, 0, vector_body=lambda idx, acc: None
        )
        assert report.grid >= 1

    def test_negative_trip_count_rejected(self, nvidia):
        with pytest.raises(OpenMPError):
            target_teams_distribute_parallel_for(nvidia, -1, lambda i, acc: None)

    def test_exactly_one_body_required(self, nvidia):
        with pytest.raises(OpenMPError, match="exactly one"):
            target_teams_distribute_parallel_for(nvidia, 4)
        with pytest.raises(OpenMPError, match="exactly one"):
            target_teams_distribute_parallel_for(
                nvidia, 4, lambda i, acc: None, vector_body=lambda idx, acc: None
            )

    def test_stale_host_until_from_transfer(self, nvidia):
        """Writes inside the region hit the device copy, not the host."""
        out = np.zeros(8)
        env = data_environment(nvidia)
        env.begin([(out, "alloc")])  # outer region holds it present
        target_teams_distribute_parallel_for(
            nvidia, 8, vector_body=lambda idx, acc: acc.mapped(out).__setitem__(idx, 5.0),
            maps=[(out, "from")],
        )
        # refcount never reached zero: host must still be stale
        assert not out.any()
        env.end([(out, "from")])
        assert (out == 5.0).all()

    def test_thread_limit_bug_shrinks_block(self, nvidia):
        report = target_teams_distribute_parallel_for(
            nvidia, 64, vector_body=lambda idx, acc: None,
            thread_limit=256,
            traits=RegionTraits(requested_thread_limit=256, thread_limit_bug=True),
        )
        assert report.block == 32

    def test_report_carries_codegen(self, nvidia):
        report = target_teams_distribute_parallel_for(
            nvidia, 16, vector_body=lambda idx, acc: None, thread_limit=8
        )
        assert report.codegen.mode == "spmd"
        assert report.codegen.runtime_init


class TestSimtStyle:
    def test_figure3_region(self, nvidia):
        """The paper's Figure 3: explicit indices, groupprivate, barrier."""
        n = 64
        a = np.arange(n, dtype=np.float64)
        b = np.zeros(n)

        def region(omp, acc):
            shared = omp.groupprivate("shared", 32, np.float64)
            tid = omp.omp_get_thread_num()
            if tid == 0:
                shared[:] = 1.0
            omp.barrier()
            i = omp.omp_get_team_num() * omp.omp_get_team_size() + tid
            if i < n:
                acc.mapped(b)[i] = acc.mapped(a)[i] + shared[tid]

        report = target_teams_parallel(
            nvidia, 2, 32, region, maps=[(a, "to"), (b, "from")]
        )
        assert np.array_equal(b, a + 1)
        assert report.stats.threads_run == 64

    def test_omp_thread_queries(self, nvidia):
        seen = []

        def region(omp):
            if omp.omp_get_thread_num() == 0:
                seen.append(
                    (omp.omp_get_num_teams(), omp.omp_get_num_threads(),
                     omp.omp_get_team_num())
                )

        target_teams_parallel(nvidia, 3, 8, region)
        assert sorted(seen) == [(3, 8, 0), (3, 8, 1), (3, 8, 2)]

    def test_region_signature_is_read_once(self, nvidia, monkeypatch):
        """Whether a region takes the accessor is read once per function,
        not on every launch (the rule ``target_teams_bare`` shares)."""
        import inspect

        reads = []
        real_signature = inspect.signature
        monkeypatch.setattr(inspect, "signature",
                            lambda fn: reads.append(fn) or real_signature(fn))
        out = np.zeros(8)

        def region(omp, scale, acc):
            acc.mapped(out)[omp.omp_get_thread_num()] += scale

        for scale in (1.0, 2.0, 3.0):
            target_teams_parallel(nvidia, 1, 8, region, (scale,),
                                  maps=[(out, "tofrom")])
        assert np.array_equal(out, np.full(8, 6.0))
        assert reads.count(region) == 1

    def test_multidim_rejected_without_extension(self, nvidia):
        """§2.3: classic OpenMP has no multi-dimensional launches."""
        with pytest.raises(OpenMPError, match="ompx"):
            target_teams_parallel(nvidia, (2, 2), 8, lambda omp: None)
        with pytest.raises(OpenMPError, match="ompx"):
            target_teams_parallel(nvidia, 2, (8, 8), lambda omp: None)

    def test_bare_traits_rejected(self, nvidia):
        with pytest.raises(OpenMPError, match="ompx"):
            target_teams_parallel(
                nvidia, 1, 8, lambda omp: None, traits=RegionTraits(style="bare")
            )

    def test_nowait_simt(self, nvidia):
        runtime = TaskRuntime(num_helpers=2)
        try:
            hits = []

            def region(omp):
                if omp.omp_get_thread_num() == 0 and omp.omp_get_team_num() == 0:
                    hits.append(1)

            task = target_teams_parallel(
                nvidia, 1, 4, region, nowait=True, task_runtime=runtime
            )
            task.wait(2)
            assert hits == [1]
        finally:
            runtime.shutdown()
