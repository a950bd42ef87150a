"""Sticky device contexts: the CUDA error model, end to end.

Acceptance criterion for the fault framework: a kernel fault injected
into an ``ompx_bare`` launch poisons the device context, all four front
ends (CUDA, HIP, OpenMP ``target``, ompx) observe the *same* sticky
error on their next call, and ``ompx_device_reset()`` recovers.
"""

import pickle

import numpy as np
import pytest

from repro import cuda, faults, hip
from repro.errors import (
    KernelFault,
    LaunchError,
    OutOfMemoryError,
    StickyContextError,
)
from repro.gpu import LaunchConfig, get_device, launch_kernel
from repro.gpu.dim import Dim3
from repro.ompx import (
    bare_kernel,
    ompx_device_reset,
    ompx_device_synchronize,
    ompx_malloc,
    target_teams_bare,
)
from repro.openmp.target import target_teams_distribute_parallel_for

pytestmark = pytest.mark.faults


@bare_kernel
def boom(x):
    pass  # the injected fault fires before/instead of the body


@cuda.kernel
def cuda_noop(t):
    pass


@hip.kernel
def hip_noop(t):
    pass


@bare_kernel
def ompx_noop(x):
    pass


def quiet(ctx):
    pass


class TestStickyAcrossFrontEnds:
    def test_fault_poisons_all_front_ends_until_reset(self, clean_device):
        device = clean_device

        # 1. A kernel fault injected into an ompx_bare launch.
        with faults.inject("launch:kernel_fault,kernel=boom"):
            with pytest.raises(LaunchError) as ei:
                target_teams_bare(device, 1, 32, boom)
        fault = ei.value.__cause__
        assert isinstance(fault, KernelFault)
        assert fault.injected
        assert fault.kernel == "boom"
        assert device.is_poisoned
        assert device.sticky_error is fault

        # 2. Every front end now reports the same sticky error.
        observed = []
        with pytest.raises(StickyContextError) as e:
            cuda.launch(cuda_noop, 1, 32, device=device)
        observed.append(e.value)
        with pytest.raises(StickyContextError) as e:
            hip.launch(hip_noop, 1, 32, device=device)
        observed.append(e.value)
        with pytest.raises(StickyContextError) as e:
            target_teams_distribute_parallel_for(
                device, 8, body=lambda i, acc: None
            )
        observed.append(e.value)
        with pytest.raises(StickyContextError) as e:
            target_teams_bare(device, 1, 32, ompx_noop)
        observed.append(e.value)
        for sticky in observed:
            assert sticky.device == device.ordinal
            assert sticky.original is fault
            assert sticky.__cause__ is fault
            assert "ompx_device_reset" in str(sticky)

        # 3. Host APIs on the poisoned device report it too.
        with pytest.raises(StickyContextError):
            ompx_malloc(64, device)
        with pytest.raises(StickyContextError):
            ompx_device_synchronize(device)

        # 4. Reset recovers; every front end launches cleanly again.
        ompx_device_reset(device)
        assert not device.is_poisoned
        assert device.sticky_error is None
        cuda.launch(cuda_noop, 1, 32, device=device)
        cuda.cudaDeviceSynchronize()
        hip.launch(hip_noop, 1, 32, device=device)
        device.synchronize()
        target_teams_distribute_parallel_for(device, 8, body=lambda i, acc: None)
        report = target_teams_bare(device, 1, 32, ompx_noop)
        assert report is not None

    def test_first_fault_wins(self, clean_device):
        first = KernelFault("first", kernel="a")
        second = KernelFault("second", kernel="b")
        clean_device.poison(first)
        clean_device.poison(second)
        assert clean_device.sticky_error is first

    def test_other_devices_unaffected(self, clean_device):
        other = get_device(1)
        clean_device.poison(KernelFault("boom"))
        ptr = other.allocator.malloc(64)   # device 1 keeps working
        other.allocator.free(ptr)
        assert not other.is_poisoned

    def test_organic_kernel_exception_does_not_poison(self, clean_device):
        # Ordinary kernel-body exceptions stay launch-local (the PR 2
        # behaviour); only KernelFault-class causes are sticky.
        def bad(ctx):
            raise ValueError("plain bug")

        bad.vectorize = False
        with pytest.raises(LaunchError):
            launch_kernel(LaunchConfig.create(1, 1), bad, (), clean_device)
        assert not clean_device.is_poisoned


class TestBlockSelectiveBarrierFault:
    def test_fault_after_barrier_in_selected_block(self, clean_device):
        # All threads of block 1 must raise *after* the first barrier
        # completes, so the cooperative engine cannot deadlock on
        # fault-induced barrier divergence.
        crossed = []

        def coop(ctx):
            ctx.sync_threads()
            crossed.append(int(ctx.flat_block_id))
            ctx.sync_threads()

        coop.vectorize = False
        spec = "launch:kernel_fault,kernel=coop,block=1,after_barriers=1"
        with faults.inject(spec):
            with pytest.raises(LaunchError) as ei:
                launch_kernel(LaunchConfig.create(4, 4), coop, (), clean_device)
        fault = ei.value.__cause__
        assert isinstance(fault, KernelFault)
        assert fault.block == 1
        assert clean_device.is_poisoned

    def test_unselected_blocks_unaffected_when_no_block_matches(self, clean_device):
        with faults.inject("launch:kernel_fault,kernel=nomatch"):
            stats = launch_kernel(
                LaunchConfig.create(2, 4), lambda ctx: None, (), clean_device
            )
        assert stats.threads_run == 8
        assert not clean_device.is_poisoned


class TestFaultBlockOnEveryEngine:
    """An injected fault names one plain block on every engine, so it
    equals its own pickled copy (what a cluster worker sends back)."""

    @pytest.mark.parametrize("engine", ["block-thread", "map", "vector", "wave"])
    def test_fault_names_the_first_block_as_a_dim3(self, clean_device, engine):
        with faults.inject("launch:kernel_fault,kernel=quiet"):
            with pytest.raises(LaunchError) as ei:
                launch_kernel(
                    LaunchConfig.create(3, 8, engine=engine), quiet, (), clean_device
                )
        fault = ei.value.__cause__
        assert isinstance(fault, KernelFault)
        assert fault.block == Dim3(0, 0, 0)
        assert "block=(0, 0, 0)" in str(fault)
        assert pickle.loads(pickle.dumps(fault)) == fault


class TestResetSemantics:
    def test_reset_drops_allocations(self, clean_device):
        ptr = clean_device.allocator.malloc(64)
        clean_device.reset()
        out = np.zeros(64, dtype=np.uint8)
        from repro.errors import InvalidPointerError

        with pytest.raises(InvalidPointerError):
            clean_device.allocator.memcpy_d2h(out, ptr)

    def test_reset_analogue_spellings(self, clean_device):
        clean_device.poison(KernelFault("x"))
        cuda.cudaDeviceReset()            # current CUDA device is ordinal 0
        assert not clean_device.is_poisoned

        clean_device.poison(KernelFault("y"))
        ompx_device_reset(clean_device)
        assert not clean_device.is_poisoned

        amd = get_device(1)
        amd.poison(KernelFault("z"))
        try:
            hip.hipDeviceReset()          # current HIP device is ordinal 1
            assert not amd.is_poisoned
        finally:
            amd.reset()

    def test_injected_oom_is_not_sticky(self, clean_device):
        # Allocation failure is an ordinary, recoverable error on real
        # GPUs — it must not poison the context.
        with faults.inject("malloc:oom@1"):
            with pytest.raises(OutOfMemoryError):
                clean_device.allocator.malloc(64)
        assert not clean_device.is_poisoned
        ptr = clean_device.allocator.malloc(64)
        clean_device.allocator.free(ptr)
