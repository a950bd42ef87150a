"""Error-hygiene lint: library raises must use the errors.py hierarchy.

Walks every module under ``src/repro`` with ``ast`` and asserts no
``raise`` statement constructs a generic ``Exception`` / ``RuntimeError``
/ ``BaseException``: callers catch :class:`repro.errors.ReproError` to
separate library failures from their own bugs, and a generic raise
punches a hole in that contract.  Precise builtin exceptions for
programming errors at the API boundary (``ValueError``, ``TypeError``,
``NotImplementedError``, ...) remain legitimate.
"""

import ast
from pathlib import Path

import repro
from repro import errors

SRC_ROOT = Path(repro.__file__).resolve().parent

#: Generic exception types library code must never raise directly.
FORBIDDEN = {"Exception", "RuntimeError", "BaseException"}


def _raised_name(node: ast.Raise):
    """The exception class name a raise statement constructs, if resolvable."""
    exc = node.exc
    if exc is None:               # bare re-raise
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None                   # dynamic (raise self._bad_free(...), etc.)


def _violations():
    found = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                name = _raised_name(node)
                if name in FORBIDDEN:
                    rel = path.relative_to(SRC_ROOT.parent)
                    found.append(f"{rel}:{node.lineno} raises {name}")
    return found


def test_no_generic_exceptions_raised_in_library_code():
    violations = _violations()
    assert not violations, (
        "library code must raise repro.errors classes (or precise builtins), "
        "never generic Exception/RuntimeError:\n  " + "\n  ".join(violations)
    )


def test_every_public_error_is_rooted_at_repro_error():
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError), name


def test_lint_covers_the_scheduler_package():
    # The rglob walk must see repro/sched (a later package could silently
    # fall outside a hand-maintained file list; the walk is the guarantee).
    sched_files = {p.name for p in sorted(SRC_ROOT.rglob("*.py"))
                   if p.parent.name == "sched"}
    assert {"__init__.py", "pool.py", "shard.py", "model.py"} <= sched_files


def test_lint_covers_the_resilience_package():
    # Same guarantee for repro.resilience: the walk must see every module
    # of the recovery layer, whose raises are exactly the ones callers
    # classify with ``except ReproError``.
    resilience_files = {p.name for p in sorted(SRC_ROOT.rglob("*.py"))
                        if p.parent.name == "resilience"}
    assert {
        "__init__.py", "policy.py", "health.py", "watchdog.py",
        "pool.py", "report.py",
    } <= resilience_files


def test_lint_covers_the_serve_package():
    # And for repro.serve: the serving tier's refusals (QueueFull,
    # SessionClosed) are part of the client-facing error contract, so
    # its modules must stay inside the walk.
    serve_files = {p.name for p in sorted(SRC_ROOT.rglob("*.py"))
                   if p.parent.name == "serve"}
    assert {
        "__init__.py", "admission.py", "coalesce.py", "future.py",
        "quota.py", "service.py", "session.py",
    } <= serve_files


def test_lint_covers_the_cluster_package():
    # And for repro.cluster: worker processes ship their failures back
    # over a pipe as pickled exceptions, so every raise there must stay
    # inside the ReproError hierarchy for the parent-side classify-and-
    # redispatch logic to work.
    cluster_files = {p.name for p in sorted(SRC_ROOT.rglob("*.py"))
                     if p.parent.name == "cluster"}
    assert {
        "__init__.py", "pool.py", "worker.py", "actions.py",
    } <= cluster_files


def test_cluster_errors_slot_into_the_hierarchy():
    # Callers classify a dead worker with `except WorkerLost` and any
    # cluster-tier failure with `except ClusterError`; both must stay
    # rooted at SchedulerError (the cluster is a scheduler backend) so
    # `except ReproError` / `except SchedulerError` call sites keep
    # working, and a heartbeat expiry must be catchable as a lost worker.
    assert issubclass(errors.ClusterError, errors.SchedulerError)
    assert issubclass(errors.WorkerLost, errors.ClusterError)
    assert issubclass(errors.HeartbeatTimeout, errors.WorkerLost)
    for name in ("ClusterError", "WorkerLost", "HeartbeatTimeout"):
        assert name in errors.__all__


def _pickle_roundtrip(exc):
    import pickle

    return pickle.loads(pickle.dumps(exc))


def test_worker_lost_pickles_and_compares_by_state():
    # These exceptions cross the process boundary (pickled over the
    # worker pipe), so a round trip must preserve identity-relevant
    # state and equality must follow it.
    exc = errors.WorkerLost("worker died", worker=2, reason="SIGKILL",
                            jobs_lost=3)
    clone = _pickle_roundtrip(exc)
    assert clone == exc
    assert clone.worker == 2
    assert clone.reason == "SIGKILL"
    assert clone.jobs_lost == 3
    assert "worker=2" in str(clone)
    other = errors.WorkerLost("worker died", worker=1, reason="SIGKILL",
                              jobs_lost=3)
    assert other != exc
    assert hash(clone) == hash(exc)


def test_heartbeat_timeout_pickles_with_deadline_fields():
    exc = errors.HeartbeatTimeout("silent worker", worker=0,
                                  reason="no heartbeat", deadline_s=2.0,
                                  last_seen_s=3.7)
    clone = _pickle_roundtrip(exc)
    assert clone == exc
    assert clone.deadline_s == 2.0
    assert clone.last_seen_s == 3.7
    assert isinstance(clone, errors.WorkerLost)


def test_serve_errors_slot_into_the_hierarchy():
    # Clients classify backpressure with `except QueueFull` and broad
    # service failures with `except ServeError`; both must stay rooted
    # at ReproError so `except ReproError` call sites keep working.
    assert issubclass(errors.ServeError, errors.ReproError)
    assert issubclass(errors.QueueFull, errors.ServeError)
    assert issubclass(errors.SessionClosed, errors.ServeError)
    for name in ("ServeError", "QueueFull", "SessionClosed"):
        assert name in errors.__all__


def test_queue_full_carries_retry_guidance():
    exc = errors.QueueFull("over limit", tenant="alice", scope="tenant",
                           retry_after_s=0.25)
    assert exc.tenant == "alice"
    assert exc.scope == "tenant"
    assert exc.retry_after_s == 0.25
    assert "retry_after=0.250s" in str(exc)


def test_resilience_errors_slot_into_the_hierarchy():
    # WatchdogTimeout must be catchable as a GpuError (it stands in for a
    # device-side failure) and CancelledError as a SchedulerError (it is
    # the scheduler, not the device, that refused the job).
    assert issubclass(errors.WatchdogTimeout, errors.GpuError)
    assert issubclass(errors.CancelledError, errors.SchedulerError)
    assert "WatchdogTimeout" in errors.__all__
    assert "CancelledError" in errors.__all__


def test_scheduler_error_is_a_repro_error():
    assert issubclass(errors.SchedulerError, errors.ReproError)
    assert "SchedulerError" in errors.__all__


def test_lint_covers_the_ompx_vendor_module():
    # And for repro.ompx: the §3.6 vendor-library layer refuses bad BLAS
    # arguments with VendorError subclasses, so its modules — vendor.py
    # above all — must stay inside the walk.
    ompx_files = {p.name for p in sorted(SRC_ROOT.rglob("*.py"))
                  if p.parent.name == "ompx"}
    assert {"__init__.py", "vendor.py", "lattice.py"} <= ompx_files


def test_vendor_errors_slot_into_the_hierarchy():
    # Callers classify any BLAS-wrapper failure with `except VendorError`
    # (mirroring how real code checks one cublasStatus_t enum); the
    # specific refusals must each be catchable as that base and remain
    # rooted at ReproError so `except ReproError` call sites keep working.
    assert issubclass(errors.VendorError, errors.ReproError)
    assert issubclass(errors.BlasDimensionError, errors.VendorError)
    assert issubclass(errors.UnknownVendorError, errors.VendorError)
    assert issubclass(errors.HandleDestroyedError, errors.VendorError)
    for name in ("VendorError", "BlasDimensionError", "UnknownVendorError",
                 "HandleDestroyedError"):
        assert name in errors.__all__


def test_blas_dimension_error_pickles_and_compares_by_state():
    # Stream-bound handles raise on stream worker threads and the cluster
    # layer ships failures across processes, so the structured context
    # must survive a pickle round trip and drive equality.
    exc = errors.BlasDimensionError("lda below row count", op="dgemm",
                                    param="lda", value=2, minimum=4)
    clone = _pickle_roundtrip(exc)
    assert clone == exc
    assert clone.op == "dgemm"
    assert clone.param == "lda"
    assert clone.value == 2 and clone.minimum == 4
    assert "param='lda'" in str(clone)
    assert hash(clone) == hash(exc)
    other = errors.BlasDimensionError("lda below row count", op="dgemm",
                                      param="ldb", value=2, minimum=4)
    assert other != exc


def test_unknown_vendor_error_pickles_with_registry_snapshot():
    exc = errors.UnknownVendorError("no backend", vendor="xpu",
                                    known=("nvidia", "amd", "intel"))
    clone = _pickle_roundtrip(exc)
    assert clone == exc
    assert clone.vendor == "xpu"
    assert clone.known == ("nvidia", "amd", "intel")
    assert "xpu" in str(clone)


def test_handle_destroyed_error_pickles_with_call_site():
    exc = errors.HandleDestroyedError("use after destroy", op="dscal",
                                      device=3)
    clone = _pickle_roundtrip(exc)
    assert clone == exc
    assert clone.op == "dscal" and clone.device == 3
    assert isinstance(clone, errors.VendorError)


def test_vendor_error_equality_is_type_strict():
    assert errors.BlasDimensionError("x") != errors.HandleDestroyedError("x")
    base = errors.VendorError("x")
    assert base.__eq__(errors.LaunchError("x")) is NotImplemented


def test_fault_and_sticky_errors_are_gpu_errors():
    # The fault framework's error classes slot into the existing hierarchy
    # so `except GpuError` call sites keep catching them.
    assert issubclass(errors.KernelFault, errors.GpuError)
    assert issubclass(errors.MemcheckError, errors.KernelFault)
    assert issubclass(errors.StickyContextError, errors.GpuError)
    assert issubclass(errors.FaultSpecError, errors.ReproError)


def test_lint_covers_the_ckpt_package():
    # And for repro.ckpt: a corrupt snapshot must surface as
    # CorruptCheckpointError (the session's fallback signal), never as a
    # generic exception the fallback walk would not classify.
    ckpt_files = {p.name for p in sorted(SRC_ROOT.rglob("*.py"))
                  if p.parent.name == "ckpt"}
    assert {
        "__init__.py", "format.py", "session.py", "journal.py",
    } <= ckpt_files


def test_checkpoint_errors_slot_into_the_hierarchy():
    # Callers classify any checkpoint-layer failure with
    # `except CheckpointError`, and the session's fallback walk catches
    # the corruption subclass specifically; both must stay rooted at
    # ReproError so `except ReproError` call sites keep working.
    assert issubclass(errors.CheckpointError, errors.ReproError)
    assert issubclass(errors.CorruptCheckpointError, errors.CheckpointError)
    for name in ("CheckpointError", "CorruptCheckpointError"):
        assert name in errors.__all__


def test_corrupt_checkpoint_error_pickles_and_compares_by_state():
    # Corruption verdicts cross process boundaries (a resumed supervisor
    # reports why it fell back), so the structured context must survive
    # a pickle round trip and drive equality.
    exc = errors.CorruptCheckpointError(
        "digest mismatch", path="/tmp/c/ckpt-00000002.ckpt", step=2,
        reason="digest", expected_digest="aa", actual_digest="bb",
    )
    clone = _pickle_roundtrip(exc)
    assert clone == exc
    assert clone.step == 2
    assert clone.reason == "digest"
    assert clone.expected_digest == "aa" and clone.actual_digest == "bb"
    assert "reason='digest'" in str(clone)
    assert hash(clone) == hash(exc)
    other = errors.CorruptCheckpointError(
        "digest mismatch", path="/tmp/c/ckpt-00000002.ckpt", step=3,
        reason="digest", expected_digest="aa", actual_digest="bb",
    )
    assert other != exc


def test_checkpoint_error_pickles_with_path():
    exc = errors.CheckpointError("identity mismatch", path="/tmp/chain")
    clone = _pickle_roundtrip(exc)
    assert clone == exc
    assert clone.path == "/tmp/chain"
    assert isinstance(clone, errors.ReproError)


def test_checkpoint_error_equality_is_type_strict():
    assert (errors.CheckpointError("x", path="p")
            != errors.CorruptCheckpointError("x", path="p"))
    base = errors.CheckpointError("x")
    assert base.__eq__(errors.VendorError("x")) is NotImplemented


def test_checkpoint_error_rejects_unknown_fields():
    import pytest as _pytest

    with _pytest.raises(TypeError):
        errors.CheckpointError("x", bogus=1)
