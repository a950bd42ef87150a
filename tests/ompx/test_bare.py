"""The ompx_bare construct (§3.1) and multi-dimensional launches (§3.2)."""

import numpy as np
import pytest

from repro import ompx
from repro.errors import LaunchError
from repro.openmp.data import data_environment


@pytest.fixture(autouse=True)
def clean_env(nvidia, amd):
    yield
    data_environment(nvidia).reset()
    data_environment(amd).reset()


class TestBareSemantics:
    def test_report_is_bare(self, any_device):
        report = ompx.target_teams_bare(any_device, 1, 8, lambda x: None)
        assert report.codegen.is_bare
        assert not report.codegen.runtime_init
        assert not report.codegen.state_machine

    def test_all_threads_of_all_teams_active(self, any_device):
        """Figure 4's comment: 'All threads in all teams/blocks are active.'"""
        teams, threads = 3, 16
        d_out = any_device.allocator.malloc(teams * threads * 8)

        @ompx.bare_kernel(sync_free=True)
        def k(x, out):
            i = x.block_id_x() * x.block_dim_x() + x.thread_id_x()
            x.array(out, 48, np.int64)[i] = 1

        ompx.target_teams_bare(any_device, teams, threads, k, (d_out,))
        out = np.zeros(teams * threads, dtype=np.int64)
        any_device.allocator.memcpy_d2h(out, d_out)
        assert (out == 1).all()
        any_device.allocator.free(d_out)

    def test_synchronous_by_default(self, nvidia):
        """§2.3: target is synchronous; results are visible on return."""
        d = nvidia.allocator.malloc(8)
        ompx.target_teams_bare(
            nvidia, 1, 1, lambda x: x.array(d, 1, np.int64).__setitem__(0, 5)
        )
        out = np.zeros(1, dtype=np.int64)
        nvidia.allocator.memcpy_d2h(out, d)  # no explicit sync needed
        assert out[0] == 5
        nvidia.allocator.free(d)

    def test_locals_not_globalized(self, nvidia):
        """Bare-region locals stay thread-private (each thread's counter)."""
        n = 32
        d_out = nvidia.allocator.malloc(n * 8)

        @ompx.bare_kernel(sync_free=True)
        def k(x, out):
            local_var = 0
            for _ in range(x.thread_id_x() + 1):
                local_var += 1
            x.array(out, 32, np.int64)[x.thread_id_x()] = local_var

        ompx.target_teams_bare(nvidia, 1, n, k, (d_out,))
        out = np.zeros(n, dtype=np.int64)
        nvidia.allocator.memcpy_d2h(out, d_out)
        assert np.array_equal(out, np.arange(1, n + 1))
        nvidia.allocator.free(d_out)

    def test_plain_callable_accepted(self, nvidia):
        hits = []
        ompx.target_teams_bare(
            nvidia, 1, 4, lambda x: hits.append(x.thread_id_x())
        )
        assert sorted(hits) == [0, 1, 2, 3]

    def test_non_callable_rejected(self, nvidia):
        with pytest.raises(LaunchError, match="callable"):
            ompx.target_teams_bare(nvidia, 1, 4, 42)

    def test_groupprivate_shared_per_team(self, nvidia):
        """Figure 4: groupprivate gives team-shared storage under bare."""
        teams = 2
        d_out = nvidia.allocator.malloc(teams * 8)

        @ompx.bare_kernel
        def k(x, out):
            acc = x.groupprivate("acc", 1, np.int64)
            x.atomic_add(acc, 0, 1)
            x.sync_thread_block()
            if x.thread_id_x() == 0:
                x.array(out, 2, np.int64)[x.block_id_x()] = acc[0]

        ompx.target_teams_bare(nvidia, teams, 8, k, (d_out,))
        out = np.zeros(teams, dtype=np.int64)
        nvidia.allocator.memcpy_d2h(out, d_out)
        assert (out == 8).all()
        nvidia.allocator.free(d_out)

    def test_maps_and_accessor(self, nvidia):
        a = np.arange(8, dtype=np.float64)
        b = np.zeros(8)

        def region(x, acc):
            i = x.thread_id_x()
            acc.mapped(b)[i] = acc.mapped(a)[i] * 2

        ompx.target_teams_bare(
            nvidia, 1, 8, region, maps=[(a, "to"), (b, "from")]
        )
        assert np.array_equal(b, a * 2)

    def test_region_signature_is_read_once(self, nvidia, monkeypatch):
        """Whether a region takes the accessor is read once per function;
        the argument count is still compared on every launch."""
        import inspect

        from repro.openmp.target import _wants_acc

        reads = []
        real_signature = inspect.signature
        monkeypatch.setattr(inspect, "signature",
                            lambda fn: reads.append(fn) or real_signature(fn))
        out = np.zeros(8)

        def region(x, scale, acc):
            acc.mapped(out)[x.thread_id_x()] += scale

        for scale in (1.0, 2.0, 3.0):
            ompx.target_teams_bare(nvidia, 1, 8, region, (scale,),
                                   maps=[(out, "tofrom")])
        assert np.array_equal(out, np.full(8, 6.0))
        assert reads.count(region) == 1
        assert not _wants_acc(region, 0)


class TestMultiDim:
    def test_three_dimensional_launch(self, nvidia):
        """num_teams(2,2,2) thread_limit(2,2,2) — 64 distinct positions."""
        d_out = nvidia.allocator.malloc(64 * 8)

        @ompx.bare_kernel(sync_free=True)
        def k(x, out):
            team = (x.block_id_z() * 2 + x.block_id_y()) * 2 + x.block_id_x()
            thread = (x.thread_id_z() * 2 + x.thread_id_y()) * 2 + x.thread_id_x()
            x.array(out, 64, np.int64)[team * 8 + thread] = team * 8 + thread

        report = ompx.target_teams_bare(nvidia, (2, 2, 2), (2, 2, 2), k, (d_out,))
        assert report.grid == 8 and report.block == 8
        out = np.zeros(64, dtype=np.int64)
        nvidia.allocator.memcpy_d2h(out, d_out)
        assert np.array_equal(out, np.arange(64))
        nvidia.allocator.free(d_out)

    def test_excess_dimensions_disregarded(self, nvidia):
        """§3.2: dims beyond device capability are disregarded (clamped)."""
        report = ompx.target_teams_bare(
            nvidia, 1, (1, 1, 1024), lambda x: None
        )
        assert report.block == nvidia.spec.max_block_dim.z

    def test_block_volume_still_enforced(self, nvidia):
        with pytest.raises(LaunchError, match="thread_limit"):
            ompx.target_teams_bare(nvidia, 1, (64, 64), lambda x: None)

    def test_dim_queries_match_launch(self, nvidia):
        seen = []

        def region(x):
            if x.thread_id_x() == 0 and x.thread_id_y() == 0 and x.block_id_x() == 0 and x.block_id_y() == 0:
                seen.append((x.grid_dim_x(), x.grid_dim_y(), x.block_dim_x(), x.block_dim_y()))

        ompx.target_teams_bare(nvidia, (3, 2), (4, 8), region)
        assert seen[0] == (3, 2, 4, 8)


class TestNowait:
    def test_nowait_returns_task(self, nvidia):
        hits = []
        task = ompx.target_teams_bare(
            nvidia, 1, 2,
            lambda x: hits.append(1) if x.thread_id_x() == 0 else None,
            nowait=True,
        )
        assert task.wait(timeout=5)
        assert hits == [1]

    def test_synchronous_with_depend_orders_after_tasks(self, nvidia):
        """A synchronous construct with depend still waits for conflicts."""
        import threading
        import time

        from repro.openmp import default_task_runtime

        loc = np.zeros(1)
        log = []
        runtime = default_task_runtime()
        runtime.submit(lambda: (time.sleep(0.02), log.append("task")),
                       depends=[("out", loc)])
        ompx.target_teams_bare(
            nvidia, 1, 1,
            lambda x: log.append("region"),
            depend=[("in", loc)],
        )
        assert log == ["task", "region"]
