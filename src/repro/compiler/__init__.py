"""The toolchain model: what each compiler makes of a kernel.

Python cannot reproduce the paper's compiler-level contribution directly,
so this package models the *observable outputs* of compilation the paper's
profiling discusses — registers, binary size, codegen mode, instruction
quality — from syntactic kernel traits plus per-toolchain behaviour.

It also holds the one real compiler pass: :mod:`.lower` turns a
per-thread kernel body into a lane-batched one for the simulator's
``vector``/``wave`` engines: it inlines device functions
(:mod:`.inline`) and if-converts the result (:mod:`.ifconvert`) into
calls to the lane runtime (:mod:`.lanes`).
"""

from .analysis import KernelTraits, analyze_kernel
from .compile import CompiledKernel, compile_kernel, default_toolchain
from .lower import Lowering, lower_kernel
from .toolchain import (
    HIPCC,
    LLVM_CLANG,
    NVCC,
    OMP_LLVM,
    OMPX_PROTO,
    Toolchain,
    toolchain_for,
)

__all__ = [
    "KernelTraits",
    "analyze_kernel",
    "Lowering",
    "lower_kernel",
    "CompiledKernel",
    "compile_kernel",
    "default_toolchain",
    "HIPCC",
    "LLVM_CLANG",
    "NVCC",
    "OMP_LLVM",
    "OMPX_PROTO",
    "Toolchain",
    "toolchain_for",
]
