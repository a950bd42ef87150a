"""Static analysis of kernel bodies.

The performance differences the paper explains all trace back to facts a
compiler derives from the kernel *source*: how many registers the body
wants, whether device functions survive inlining cleanup (SU3's 29 KB
binary, §4.2.3), whether shared variables can be demoted (AIDW, §4.2.4),
how much thread-local state might escape (RSBench's heap-to-shared,
§4.2.2).  This module derives the same structural facts from the Python
kernel DSL by walking its AST.

The analysis is deliberately *syntactic* — it looks at what the kernel
says, the way a front end would, and never at runtime values.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from typing import Callable, Optional, Set

from ..errors import CompileError
from ..gpu.kernel import Kernel

__all__ = ["KernelTraits", "analyze_kernel", "clear_traits_cache"]

# Method names on the kernel façades, bucketed by what they tell a compiler.
_BARRIER_CALLS = {"syncthreads", "sync_threads", "sync_thread_block", "sync_block", "barrier"}
_WARP_CALLS = {
    "syncwarp", "sync_warp",
    "shfl_sync", "shfl_up_sync", "shfl_down_sync", "shfl_xor_sync",
    "ballot_sync", "any_sync", "all_sync", "warp_reduce",
    "match_any_sync", "match_all_sync",
}
_SHARED_CALLS = {
    "shared", "shared_array", "groupprivate", "extern_shared",
    "dynamic_groupprivate", "dynamic_shared",
}
_ATOMIC_PREFIXES = ("atomic", "atomicAdd")
#: Index/query intrinsics: exact names plus their _x/_y/_z variants.
_INDEX_PREFIXES = (
    "thread_id", "block_id", "block_dim", "grid_dim", "global_thread_id",
    "lane_id", "warp_id", "warp_size", "omp_get_",
)
_FACADE_CALLS = (
    _BARRIER_CALLS
    | _WARP_CALLS
    | _SHARED_CALLS
    | {"array", "deref", "mapped", "device_ptr"}
    # Portable vector intrinsics (ThreadCtx and VectorThreadCtx alike).
    | {"select", "load", "store", "loop_max"}
)


def _is_facade(name: str) -> bool:
    """Is this call a kernel-façade intrinsic rather than a device function?"""
    return name in _FACADE_CALLS or name.startswith(_INDEX_PREFIXES)


@dataclass(frozen=True)
class KernelTraits:
    """Structural facts about one kernel body."""

    name: str
    #: Rough operation count: arithmetic + comparison + call AST nodes.
    body_ops: int
    #: Maximum loop nesting depth.
    loop_depth: int
    #: Number of conditional branches.
    branches: int
    uses_barrier: bool
    uses_warp_collectives: bool
    uses_shared: bool
    uses_atomics: bool
    #: Calls to functions that are *not* façade built-ins — device functions
    #: the toolchain must inline and then (ideally) eliminate.
    device_fn_calls: int
    #: Distinct local variables assigned in the body (register candidates).
    local_vars: int

    @property
    def register_demand(self) -> int:
        """Registers the body itself wants, before toolchain effects.

        A simple live-value estimate: locals plus a share of the expression
        temporaries, floored at the ABI minimum.  Toolchains then add their
        own overheads (runtime state, spill behaviour).
        """
        return max(16, self.local_vars * 2 + self.body_ops // 24)


class _KernelVisitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.ops = 0
        self.loop_depth = 0
        self._cur_depth = 0
        self.branches = 0
        self.barrier = False
        self.warp = False
        self.shared = False
        self.atomics = False
        self.device_calls = 0
        self.locals: Set[str] = set()

    # --- operations -------------------------------------------------------
    def visit_BinOp(self, node: ast.BinOp) -> None:  # noqa: N802
        self.ops += 1
        self.generic_visit(node)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> None:  # noqa: N802
        self.ops += 1
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:  # noqa: N802
        self.ops += len(node.ops)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:  # noqa: N802
        self.ops += 1
        self._record_target(node.target)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:  # noqa: N802
        for target in node.targets:
            self._record_target(target)
        self.generic_visit(node)

    def _record_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.locals.add(target.id)
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._record_target(elt)

    # --- control flow ---------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:  # noqa: N802
        self._loop(node)

    def visit_While(self, node: ast.While) -> None:  # noqa: N802
        self._loop(node)

    def _loop(self, node) -> None:
        self._cur_depth += 1
        self.loop_depth = max(self.loop_depth, self._cur_depth)
        self.generic_visit(node)
        self._cur_depth -= 1

    def visit_If(self, node: ast.If) -> None:  # noqa: N802
        self.branches += 1
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:  # noqa: N802
        self.branches += 1
        self.generic_visit(node)

    # --- calls ---------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
        self.ops += 1
        name = self._callee_name(node)
        if name is not None:
            if name in _BARRIER_CALLS:
                self.barrier = True
            elif name in _WARP_CALLS:
                self.warp = True
            elif name in _SHARED_CALLS:
                self.shared = True
            elif (
                name.startswith(_ATOMIC_PREFIXES)
                or name.startswith("atomic")
                or self._is_atomic_namespace(node)
            ):
                self.atomics = True
            elif not _is_facade(name) and not self._is_builtin(name):
                self.device_calls += 1
        self.generic_visit(node)

    @staticmethod
    def _is_atomic_namespace(node: ast.Call) -> bool:
        """Detect ``ctx.atomic.<op>(...)`` calls, whose callee name is the op."""
        fn = node.func
        return (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Attribute)
            and fn.value.attr == "atomic"
        )

    @staticmethod
    def _callee_name(node: ast.Call) -> Optional[str]:
        fn = node.func
        if isinstance(fn, ast.Attribute):
            return fn.attr
        if isinstance(fn, ast.Name):
            return fn.id
        return None

    @staticmethod
    def _is_builtin(name: str) -> bool:
        import builtins
        import math

        return hasattr(builtins, name) or hasattr(math, name) or name in {
            "sqrt", "exp", "log", "sin", "cos", "pow", "fabs", "floor", "ceil",
            "float64", "float32", "int32", "int64", "uint64", "uint32", "dtype",
            "arange", "zeros", "empty", "array",
        }


#: Memoized analysis results, keyed by the unwrapped kernel function.
_TRAITS_CACHE: dict = {}


def clear_traits_cache() -> None:
    """Drop every memoized analysis result (tests and hot-reload hooks)."""
    _TRAITS_CACHE.clear()


def analyze_kernel(kernel: Callable) -> KernelTraits:
    """Derive :class:`KernelTraits` from a kernel's Python source.

    Accepts a raw function or a :class:`~repro.gpu.kernel.Kernel`, whose
    ``fn`` is analyzed.  Falls back to a bytecode-based estimate when
    source is unavailable (e.g. kernels defined in a REPL).  Results are memoized per function;
    :func:`clear_traits_cache` resets the cache.
    """
    fn = kernel.fn if isinstance(kernel, Kernel) else kernel
    try:
        cached = _TRAITS_CACHE.get(fn)
    except TypeError:  # unhashable callable
        cached = None
    else:
        if cached is not None:
            return cached
    traits = _analyze_uncached(fn)
    try:
        _TRAITS_CACHE[fn] = traits
    except TypeError:
        pass
    return traits


def _analyze_uncached(fn: Callable) -> KernelTraits:
    """The uncached body of :func:`analyze_kernel`."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError):
        return _analyze_bytecode(fn)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - getsource output parses
        raise CompileError(f"cannot parse source of {fn!r}") from exc

    visitor = _KernelVisitor()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                visitor.visit(stmt)
            break
    else:  # pragma: no cover - getsource always yields a def
        raise CompileError(f"no function definition found in source of {fn!r}")

    return KernelTraits(
        name=getattr(fn, "__name__", "<kernel>"),
        body_ops=visitor.ops,
        loop_depth=visitor.loop_depth,
        branches=visitor.branches,
        uses_barrier=visitor.barrier,
        uses_warp_collectives=visitor.warp,
        uses_shared=visitor.shared,
        uses_atomics=visitor.atomics,
        device_fn_calls=visitor.device_calls,
        local_vars=len(visitor.locals),
    )


def _analyze_bytecode(fn: Callable) -> KernelTraits:
    """Source-free fallback: estimate traits from the compiled code object."""
    try:
        code = fn.__code__
    except AttributeError as exc:
        raise CompileError(f"cannot analyze {fn!r}: no source and no bytecode") from exc
    names = set(code.co_names)
    ops = max(8, len(code.co_code) // 4)
    # Method calls on façades show up in co_names.
    barrier = bool(names & _BARRIER_CALLS)
    warp = bool(names & _WARP_CALLS)
    shared = bool(names & _SHARED_CALLS)
    atomics = any(n.startswith("atomic") for n in names)
    device_calls = sum(
        1
        for n in names
        if not _is_facade(n)
        and not n.startswith("atomic")
        and not _KernelVisitor._is_builtin(n)
        and n[:1].islower()
        and n not in ("np", "numpy", "math")
    )
    return KernelTraits(
        name=getattr(fn, "__name__", "<kernel>"),
        body_ops=ops,
        loop_depth=1,
        branches=ops // 16,
        uses_barrier=barrier,
        uses_warp_collectives=warp,
        uses_shared=shared,
        uses_atomics=atomics,
        device_fn_calls=device_calls,
        local_vars=code.co_nlocals,
    )
