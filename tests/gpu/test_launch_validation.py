"""Cross-frontend launch validation, engine failures, and error transport.

All four front ends funnel geometry through
:meth:`DeviceSpec.validate_launch`, so an impossible launch must produce
a :class:`LaunchError` carrying *identical* structured context fields
(cap / requested / hint) no matter which language layer issued it.
"""

import pickle
import warnings

import numpy as np
import pytest

from repro import cuda, hip
from repro.errors import KernelFault, LaunchError
from repro.gpu import LaunchConfig, get_device, launch_kernel
from repro.ompx import bare_kernel, target_teams_bare
from repro.openmp.target import target_teams_distribute_parallel_for


@pytest.fixture(params=[0, 3], ids=["a100", "xehpc"])
def device(request):
    """The validation contract holds on the NVIDIA and Intel presets alike."""
    return get_device(request.param)


@cuda.kernel
def _cuda_noop(t):
    pass


@hip.kernel
def _hip_noop(t):
    pass


@bare_kernel
def _ompx_noop(x):
    pass


def _oversubscribe_cuda(device):
    cuda.launch(_cuda_noop, 1, (32, 64), device=device)


def _oversubscribe_hip(device):
    hip.launch(_hip_noop, 1, (32, 64), device=device)


def _oversubscribe_ompx(device):
    target_teams_bare(device, 1, (32, 64), _ompx_noop)


def _oversubscribe_openmp(device):
    target_teams_distribute_parallel_for(
        device, 4096, body=lambda i, acc: None, thread_limit=2048
    )


FRONT_ENDS = {
    "cuda": _oversubscribe_cuda,
    "hip": _oversubscribe_hip,
    "ompx": _oversubscribe_ompx,
    "openmp": _oversubscribe_openmp,
}


class TestCrossFrontEndValidation:
    @pytest.mark.parametrize("frontend", sorted(FRONT_ENDS))
    def test_block_volume_violation_fields(self, device, frontend):
        with pytest.raises(LaunchError) as ei:
            FRONT_ENDS[frontend](device)
        err = ei.value
        assert err.cap == device.spec.max_threads_per_block
        assert err.requested == 2048
        assert "thread_limit" in err.hint

    def test_all_front_ends_agree_on_the_structured_context(self, device):
        fields = []
        for frontend, trigger in sorted(FRONT_ENDS.items()):
            with pytest.raises(LaunchError) as ei:
                trigger(device)
            fields.append((ei.value.cap, ei.value.requested, ei.value.hint))
        assert len(set(fields)) == 1, (
            f"front ends disagree on LaunchError context: {fields}"
        )

    def test_grid_axis_violation(self, device):
        with pytest.raises(LaunchError) as ei:
            cuda.launch(_cuda_noop, (1, 70000), 32, device=device)
        assert ei.value.cap == device.spec.max_grid_dim[1]
        assert ei.value.requested == 70000
        assert "axis 1" in ei.value.hint

    def test_shared_memory_violation(self, device):
        too_much = device.spec.shared_mem_per_block + 1
        with pytest.raises(LaunchError) as ei:
            launch_kernel(
                LaunchConfig.create(1, 32, shared_bytes=too_much),
                lambda ctx: None, (), device,
            )
        assert ei.value.cap == device.spec.shared_mem_per_block
        assert ei.value.requested == too_much


def _make_lane_phobic():
    """A kernel that works scalar but refuses lane-batched execution."""

    def lane_phobic(ctx, out_ptr):
        if np.ndim(ctx.global_flat_id) > 0:
            raise ValueError("this body cannot run lane-batched")
        view = ctx.deref(out_ptr, 64, np.float64)
        view[ctx.global_flat_id] = 1.0

    lane_phobic.vectorize = True   # vouches wrongly: the wave engine raises
    return lane_phobic


def _make_write_then_raise():
    """A hand-batched kernel whose writes land before it raises on a batch."""

    def write_then_raise(ctx, v_ptr):
        i = ctx.global_flat_id
        v = ctx.deref(v_ptr, 64, np.float64)
        v[i] = v[i] + 1.0
        if np.ndim(i) > 0:
            raise ValueError("raised after its writes landed")

    write_then_raise.vectorize = True
    write_then_raise.sync_free = True
    return write_then_raise


class TestEngineFallback:
    """A kernel that raises on its engine fails the launch with that
    engine's LaunchError; no engine re-runs it."""

    def test_auto_selected_wave_failure_raises(self, device):
        ptr = device.allocator.malloc(64 * 8)
        kernel = _make_lane_phobic()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LaunchError) as ei:
                launch_kernel(LaunchConfig.create(2, 32), kernel, (ptr,), device)
        assert isinstance(ei.value.__cause__, ValueError)
        assert ei.value.engine == "wave"
        assert "engine=wave" in str(ei.value)
        assert not device.is_poisoned          # ValueError is not a fault
        device.allocator.free(ptr)

    def test_landed_writes_are_not_run_twice(self, device):
        ptr = device.allocator.malloc(64 * 8)
        device.allocator.memcpy_h2d(ptr, np.zeros(64))
        kernel = _make_write_then_raise()
        with pytest.raises(LaunchError) as ei:
            launch_kernel(LaunchConfig.create(2, 32), kernel, (ptr,), device)
        assert isinstance(ei.value.__cause__, ValueError)
        assert ei.value.engine == "vector"
        out = np.zeros(64)
        device.allocator.memcpy_d2h(out, ptr)
        assert (out == 1.0).all()              # one execution, not two
        device.allocator.free(ptr)

    def test_pinned_engine_hint_never_falls_back(self, device):
        ptr = device.allocator.malloc(64 * 8)
        kernel = _make_lane_phobic()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LaunchError):
                launch_kernel(
                    LaunchConfig.create(2, 32, engine="wave"), kernel,
                    (ptr,), device,
                )
        device.allocator.free(ptr)

    def test_guard_rail_refusals_do_not_fall_back(self, device):
        # A geometry refusal raises before any engine runs.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LaunchError):
                launch_kernel(
                    LaunchConfig.create(1, 4096), lambda ctx: None, (), device
                )


class TestErrorTransport:
    """Errors captured on worker threads must re-raise intact (satellite:
    LaunchError pickling/equality)."""

    def test_launch_error_pickle_round_trip(self):
        err = LaunchError(
            "block too big", engine="wave", cap=1024, requested=2048,
            hint="shrink thread_limit", key=("k", "a100", (32, 64, 1)),
        )
        clone = pickle.loads(pickle.dumps(err))
        assert clone == err
        assert clone.engine == "wave"
        assert clone.cap == 1024 and clone.requested == 2048
        assert clone.hint == "shrink thread_limit"
        assert clone.key == ("k", "a100", (32, 64, 1))
        assert hash(clone) == hash(err)
        assert str(clone) == str(err)

    def test_kernel_fault_pickle_round_trip(self):
        fault = KernelFault(
            "illegal address", kernel="stencil", block=3,
            address=0x1138, injected=True,
        )
        clone = pickle.loads(pickle.dumps(fault))
        assert clone == fault
        assert clone.kernel == "stencil" and clone.block == 3
        assert clone.address == 0x1138 and clone.injected
        assert "0x1138" in str(clone)

    def test_equality_is_field_sensitive(self):
        a = LaunchError("x", cap=1024, requested=2048)
        b = LaunchError("x", cap=1024, requested=2048)
        c = LaunchError("x", cap=1024, requested=4096)
        assert a == b
        assert a != c
        assert a != LaunchError("y", cap=1024, requested=2048)

    def test_equality_is_type_strict(self):
        assert KernelFault("x") != LaunchError("x")
        assert LaunchError("x").__eq__(Exception("x")) is NotImplemented
