"""Allocator free/use-after-free diagnostics (satellite: pointer hygiene).

Each distinct misuse — double free, free of an interior pointer, free of
a never-allocated address, use-after-free through memcpy — gets its own
diagnosis naming the original allocation site, instead of one generic
"invalid pointer" message.
"""

import numpy as np
import pytest

from repro.errors import InvalidPointerError
from repro.gpu import get_device


@pytest.fixture
def allocator():
    return get_device(0).allocator


class TestDoubleFree:
    def test_double_free_names_both_sites(self, allocator):
        ptr = allocator.malloc(64)
        allocator.free(ptr)
        with pytest.raises(InvalidPointerError) as ei:
            allocator.free(ptr)
        msg = str(ei.value)
        assert "double free" in msg
        assert "64 B allocation" in msg
        assert "allocated at test_memory_safety.py" in msg
        assert "already freed at test_memory_safety.py" in msg

    def test_free_into_freed_range(self, allocator):
        ptr = allocator.malloc(64)
        allocator.free(ptr)
        with pytest.raises(InvalidPointerError) as ei:
            allocator.free(ptr + 8)
        assert "already freed at" in str(ei.value)


class TestBadFree:
    def test_free_of_interior_pointer(self, allocator):
        ptr = allocator.malloc(64)
        with pytest.raises(InvalidPointerError) as ei:
            allocator.free(ptr + 16)
        msg = str(ei.value)
        assert "points 16 B into a live 64 B allocation" in msg
        assert "free the base pointer instead" in msg
        allocator.free(ptr)   # the base pointer is still freeable

    def test_free_of_never_allocated_address(self, allocator):
        from repro.gpu.memory import DevicePointer

        bogus = DevicePointer(0, 0x7FFF_FFF0)
        with pytest.raises(InvalidPointerError, match="not the base of a live"):
            allocator.free(bogus)

    def test_free_of_null_is_a_noop(self, allocator):
        from repro.gpu.memory import DevicePointer

        allocator.free(DevicePointer(0, 0))


class TestUseAfterFree:
    def test_memcpy_from_freed_pointer(self, allocator):
        ptr = allocator.malloc(32)
        allocator.free(ptr)
        out = np.zeros(32, dtype=np.uint8)
        with pytest.raises(InvalidPointerError) as ei:
            allocator.memcpy_d2h(out, ptr)
        msg = str(ei.value)
        assert "use after free" in msg
        assert "allocated at test_memory_safety.py" in msg
        assert "freed at test_memory_safety.py" in msg

    def test_memcpy_to_freed_pointer(self, allocator):
        ptr = allocator.malloc(32)
        allocator.free(ptr)
        with pytest.raises(InvalidPointerError, match="use after free"):
            allocator.memcpy_h2d(ptr, np.ones(32, dtype=np.uint8))

    def test_interior_pointer_into_freed_allocation(self, allocator):
        ptr = allocator.malloc(32)
        allocator.free(ptr)
        out = np.zeros(8, dtype=np.uint8)
        with pytest.raises(InvalidPointerError, match="use after free"):
            allocator.memcpy_d2h(out, ptr + 8)

    def test_freed_history_is_bounded_and_old_frees_still_fail(self, allocator):
        from repro.gpu.memory import _FREED_HISTORY

        old = allocator.malloc(16)
        allocator.free(old)
        for _ in range(_FREED_HISTORY + 1):
            allocator.free(allocator.malloc(16))
        assert len(allocator._freed) <= _FREED_HISTORY
        with pytest.raises(InvalidPointerError, match="does not point into a live"):
            allocator.memcpy_d2h(np.zeros(2), old)

    def test_addresses_are_never_reused(self, allocator):
        ptr = allocator.malloc(32)
        allocator.free(ptr)
        fresh = allocator.malloc(32)
        assert fresh.address != ptr.address
        allocator.free(fresh)
