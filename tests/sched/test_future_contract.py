"""The Future contract: one caller surface for all four result handles.

:class:`~repro.sched.KernelFuture`, :class:`~repro.resilience.ResilientFuture`,
:class:`~repro.cluster.ClusterFuture` and :class:`~repro.serve.ServeFuture`
share the :class:`~repro.sched.Future` base, so :func:`repro.sched.gather`
and the serve dispatchers can hold any of them.  Each parametrization
builds one *pending* future of its class and checks the same contract:
first-writer-wins settling, the original exception re-raised, a
per-class timeout error naming the job, ``cancelled()``, and ``done_s``.
"""

import queue
import threading
from contextlib import ExitStack

import pytest

from repro.cluster import ClusterFuture, DeviceProxy
from repro.errors import CancelledError, GpuError, SchedulerError, ServeError
from repro.gpu.device import A100_SPEC, get_device
from repro.resilience import ResilientFuture, ResilientPool
from repro.sched import DevicePool, Future, KernelFuture
from repro.serve import ServeFuture

pytestmark = [pytest.mark.sched]


# Each maker returns a pending future plus ``complete(value)``, which
# finishes the job through that class's own completion path.

def _kernel_future(stack, label):
    future = KernelFuture(label, get_device(0))
    return future, future._set_result


def _resilient_future(stack, label):
    # The attempt blocks on a queue, so the retry loop stays pending
    # until the test (or teardown) hands it a value.
    values = queue.Queue()
    pool = stack.enter_context(DevicePool(1))
    rpool = stack.enter_context(ResilientPool(pool, watchdog_deadline_s=None))
    stack.callback(values.put, None)  # unblocks the job before the pools close
    future = rpool.submit_call(lambda device: values.get(), label=label)
    return future, values.put


def _cluster_future(stack, label):
    future = ClusterFuture(label, DeviceProxy(0, A100_SPEC, 0, 0), pinned=False)
    return future, lambda value: future._settle(result=value)


def _serve_future(stack, label):
    future = ServeFuture("alice", label)
    return future, future._set_result


#: name -> (maker, class, the timeout error it raises)
CASES = {
    "kernel": (_kernel_future, KernelFuture, SchedulerError),
    "resilient": (_resilient_future, ResilientFuture, SchedulerError),
    "cluster": (_cluster_future, ClusterFuture, SchedulerError),
    "serve": (_serve_future, ServeFuture, ServeError),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    make, cls, timeout_error = CASES[request.param]
    with ExitStack() as stack:
        future, complete = make(stack, f"contract-{request.param}")
        assert type(future) is cls
        yield future, complete, timeout_error


def test_every_handle_is_a_future(case):
    future, _, _ = case
    assert isinstance(future, Future)
    # The cluster worker chooses callback vs waiter thread by this check.
    assert hasattr(future, "add_done_callback") == isinstance(future, KernelFuture)


def test_pending_future_times_out_with_its_class_error(case):
    future, _, timeout_error = case
    assert not future.done()
    assert future.done_s is None
    with pytest.raises(timeout_error, match="did not complete within") as info:
        future.exception(timeout=0.01)
    assert future.label in str(info.value)
    with pytest.raises(timeout_error):
        future.result(timeout=0.01)


def test_first_settle_wins_and_a_second_is_stale(case):
    future, _, _ = case
    assert future._settle(result="first") is True
    assert future._settle(result="second") is False
    assert future._settle(exc=GpuError("late failure")) is False
    assert future.wait(timeout=1)
    assert future.done_s is not None
    assert future.result() == "first"
    assert future.exception() is None
    assert not future.cancelled()


def test_result_reraises_the_original_exception_object(case):
    future, _, _ = case
    original = GpuError("the job's own failure")
    assert future._settle(exc=original)
    with pytest.raises(GpuError) as info:
        future.result()
    assert info.value is original
    assert future.exception() is original
    assert not future.cancelled()


def test_cancelled_reports_a_cancellation(case):
    future, _, _ = case
    assert not future.cancelled()
    assert future._settle(exc=CancelledError("cancelled by the test"))
    assert future.cancelled()
    assert isinstance(future.exception(), CancelledError)


def test_done_s_is_set_once_wait_returns(case):
    future, complete, _ = case
    completer = threading.Timer(0.02, complete, args=(7,))
    completer.start()
    try:
        assert future.wait(timeout=5)
        assert future.done_s is not None
        assert future.result() == 7
    finally:
        completer.join()
