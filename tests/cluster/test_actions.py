"""ClusterActions and the failure-aware scatter/gather built on them.

Scatter stamps rank/size onto picklable action copies;
:func:`repro.sched.gather` re-raises the first participant failure.
A worker killed mid-collective must surface as
:class:`~repro.errors.WorkerLost` from the gather — collectives fail as
a unit rather than silently reducing over a partial set.
"""

import os
import signal
import time

import pytest

from repro.cluster import ClusterPool
from repro.errors import ClusterError, WorkerLost
from repro.sched import gather

from .helpers import PartialSum, RankReport, SlowAction

pytestmark = [pytest.mark.cluster]


@pytest.fixture(scope="module")
def pool():
    with ClusterPool(3, heartbeat_s=0.1, deadline_s=2.0) as cpool:
        yield cpool


class TestScatterGather:
    def test_scatter_stamps_rank_and_size_per_worker(self, pool):
        reports = gather(pool.scatter(RankReport()))
        assert sorted(reports) == [(0, 3, 0, 1), (1, 3, 1, 1), (2, 3, 2, 1)]

    def test_the_original_action_instance_stays_unstamped(self, pool):
        action = RankReport()
        gather(pool.scatter(action))
        assert action.rank is None and action.size is None

    def test_scatter_rejects_non_actions(self, pool):
        with pytest.raises(ClusterError, match="ClusterAction"):
            pool.scatter(lambda ctx: None)

    def test_scatter_gather_sum_matches_the_serial_answer(self, pool):
        data = list(range(100))
        assert sum(gather(pool.scatter(PartialSum(data)))) == float(sum(data))

    def test_unscattered_actions_fail_loudly(self):
        with pytest.raises(ClusterError, match="rank/size"):
            PartialSum(range(10)).my_slice(10)

    def test_my_slice_block_layout_covers_everything_once(self):
        action = PartialSum([])
        slices = []
        for rank in range(3):
            stamped = action._with_rank(rank, 3)
            slices.append(stamped.my_slice(10))
        assert slices == [(0, 4), (4, 7), (7, 10)]


class TestCollectiveFailure:
    def test_worker_killed_mid_collective_fails_the_gather(self):
        with ClusterPool(
            3, heartbeat_s=0.1, deadline_s=1.0, restart=False
        ) as pool:
            futures = pool.scatter(SlowAction(seconds=2.0))
            time.sleep(0.3)
            os.kill(pool._handles[2].proc.pid, signal.SIGKILL)
            with pytest.raises(WorkerLost):
                gather(futures, timeout=30)
