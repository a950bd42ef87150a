"""The CUDA -> ompx translators.

Two front ends over the rule tables in :mod:`repro.port.rules`:

* :func:`port_kernel` — takes a ``@cuda.kernel`` Python-DSL function,
  rewrites its AST (attribute idioms, method renames, warp-primitive
  argument reordering), and returns a runnable
  :class:`~repro.ompx.bare.BareKernel`.  The round trip "write CUDA, port
  mechanically, run under ompx, same bits" is the testable form of the
  paper's text-replacement claim.
* :func:`port_c_source` — takes CUDA C/C++ source *text* and produces
  OpenMP-with-ompx-extensions source text: ``__global__`` kernels become
  functions launched by ``#pragma omp target teams ompx_bare``, chevron
  launches become the pragma + plain call, ``__shared__`` declarations
  grow a ``groupprivate`` pragma, and device/host API calls are renamed.
  This is the §6 future-work "code rewriting tool" in miniature.
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from typing import Callable, Dict, Optional

from ..errors import PortError
from ..ompx.bare import BareKernel
from .rules import (
    C_FUNCTION_ARG_PERMUTATIONS,
    C_FUNCTION_RENAMES,
    C_HOST_RENAMES,
    C_SIMPLE_TOKENS,
    DSL_INDEX_ATTRS,
    DSL_METHOD_ARG_PERMUTATIONS,
    DSL_METHOD_RENAMES,
    DSL_PROPERTY_RENAMES,
)

__all__ = ["port_kernel", "port_kernel_source", "port_c_source"]


class _DslTransformer(ast.NodeTransformer):
    """Rewrites CUDA-DSL façade usage into ompx-DSL façade usage."""

    def __init__(self, facade_name: str) -> None:
        self.facade = facade_name
        self.rewrites = 0

    def _is_facade(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id == self.facade

    # ``t.threadIdx.x`` -> ``t.thread_id_x()``
    def visit_Attribute(self, node: ast.Attribute) -> ast.expr:  # noqa: N802
        self.generic_visit(node)
        inner = node.value
        if (
            isinstance(inner, ast.Attribute)
            and self._is_facade(inner.value)
            and inner.attr in DSL_INDEX_ATTRS
            and node.attr in ("x", "y", "z")
        ):
            self.rewrites += 1
            return ast.Call(
                func=ast.Attribute(
                    value=ast.Name(id=self.facade, ctx=ast.Load()),
                    attr=f"{DSL_INDEX_ATTRS[inner.attr]}_{node.attr}",
                    ctx=ast.Load(),
                ),
                args=[],
                keywords=[],
            )
        # ``t.warpSize`` / ``t.laneid`` -> ``t.warp_size()`` / ``t.lane_id()``
        if self._is_facade(node.value) and node.attr in DSL_PROPERTY_RENAMES:
            self.rewrites += 1
            return ast.Call(
                func=ast.Attribute(
                    value=ast.Name(id=self.facade, ctx=ast.Load()),
                    attr=DSL_PROPERTY_RENAMES[node.attr],
                    ctx=ast.Load(),
                ),
                args=[],
                keywords=[],
            )
        return node

    # ``t.syncthreads()`` / ``t.shfl_down_sync(mask, v, d)``
    def visit_Call(self, node: ast.Call) -> ast.expr:  # noqa: N802
        self.generic_visit(node)
        fn = node.func
        if not (isinstance(fn, ast.Attribute) and self._is_facade(fn.value)):
            return node
        name = fn.attr
        if name in DSL_METHOD_ARG_PERMUTATIONS:
            new_name, perm = DSL_METHOD_ARG_PERMUTATIONS[name]
            if node.keywords:
                raise PortError(
                    f"cannot reorder keyword arguments of {name}(); use "
                    f"positional arguments in the CUDA kernel"
                )
            if len(node.args) < len(perm):
                # Fewer args than the canonical CUDA form (e.g. syncwarp()
                # without a mask): keep them in place.
                fn.attr = new_name
                self.rewrites += 1
                return node
            node.args = [node.args[i] for i in perm]
            fn.attr = new_name
            self.rewrites += 1
            return node
        if name in DSL_METHOD_RENAMES:
            fn.attr = DSL_METHOD_RENAMES[name]
            self.rewrites += 1
            return node
        return node


def _kernel_source(fn: Callable) -> str:
    """The source of a kernel's body, dedented."""
    try:
        return textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:
        raise PortError(f"cannot read source of {fn!r}") from exc


def port_kernel_source(fn: Callable) -> str:
    """Return the ompx-DSL source text of a ported CUDA-DSL kernel."""
    tree = ast.parse(_kernel_source(fn))
    func_def = next(
        (n for n in tree.body if isinstance(n, ast.FunctionDef)), None
    )
    if func_def is None:
        raise PortError(f"no function definition found in source of {fn!r}")
    if not func_def.args.args:
        raise PortError("a kernel needs at least the façade parameter")
    facade = func_def.args.args[0].arg
    func_def.decorator_list = []  # the caller re-decorates as bare_kernel
    transformer = _DslTransformer(facade)
    transformer.visit(tree)
    ast.fix_missing_locations(tree)
    return ast.unparse(tree)


def port_kernel(fn: Callable, *, sync_free: Optional[bool] = None) -> BareKernel:
    """Mechanically port a CUDA-DSL kernel to a runnable ompx bare kernel.

    The ported function executes in a namespace seeded with the original
    kernel's globals, so device functions and constants keep resolving.
    ``sync_free`` defaults to the original kernel's declaration, and
    ``vectorize`` is the original's, so the port runs on the engine the
    original runs on.
    """
    raw = getattr(fn, "fn", fn)
    source = port_kernel_source(fn)
    namespace: Dict[str, object] = dict(getattr(raw, "__globals__", {}))
    exec(compile(source, f"<ported {raw.__name__}>", "exec"), namespace)
    ported = namespace[raw.__name__]
    if sync_free is None:
        sync_free = bool(getattr(fn, "sync_free", False))
    return BareKernel(ported, sync_free=sync_free,
                      vectorize=bool(getattr(fn, "vectorize", False)))


# --- CUDA C source translation -------------------------------------------------

_CHEVRON = re.compile(
    r"(?P<name>\w+)\s*<<<\s*(?P<grid>[^,>]+)\s*,\s*(?P<block>[^,>]+)"
    r"(?:\s*,\s*(?P<shmem>[^,>]+))?(?:\s*,\s*(?P<stream>[^>]+))?\s*>>>"
    r"\s*\((?P<args>[^;]*)\)\s*;"
)
_GLOBAL_FN = re.compile(r"__global__\s+void\s+(?P<name>\w+)")
_SHARED_DECL = re.compile(
    r"__shared__\s+(?P<decl>[\w:<>]+\s+(?P<name>\w+)\s*(?:\[[^\]]*\])*)\s*;"
)
_CONSTANT_DECL = re.compile(
    r"__constant__\s+(?P<decl>[\w:<>]+\s+(?P<name>\w+)\s*(?:\[[^\]]*\])*)\s*;"
)
_DEVICE_KW = re.compile(r"__device__\s+")
_DIM3_DECL = re.compile(
    r"dim3\s+(?P<name>\w+)\s*\((?P<args>[^;]*)\)\s*;"
)


def _rename_call(source: str, old: str, new: str) -> str:
    return re.sub(rf"\b{re.escape(old)}\s*\(", f"{new}(", source)


def _permute_call_args(source: str, old: str, new: str, perm) -> str:
    """Rename a call and permute its (top-level) argument list."""
    pattern = re.compile(rf"\b{re.escape(old)}\s*\(")

    def split_args(argtext: str):
        args, depth, cur = [], 0, []
        for ch in argtext:
            if ch == "," and depth == 0:
                args.append("".join(cur).strip())
                cur = []
                continue
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            cur.append(ch)
        tail = "".join(cur).strip()
        if tail:
            args.append(tail)
        return args

    out = []
    pos = 0
    while True:
        match = pattern.search(source, pos)
        if match is None:
            out.append(source[pos:])
            break
        out.append(source[pos : match.start()])
        # Find the matching close paren.
        depth = 1
        i = match.end()
        while i < len(source) and depth:
            if source[i] == "(":
                depth += 1
            elif source[i] == ")":
                depth -= 1
            i += 1
        if depth:
            raise PortError(f"unbalanced parentheses in call to {old}")
        args = split_args(source[match.end() : i - 1])
        if len(args) >= len(perm):
            args = [args[j] for j in perm] + args[len(perm):]
        out.append(f"{new}({', '.join(args)})")
        pos = i
    return "".join(out)


def port_c_source(source: str) -> str:
    """Translate CUDA C/C++ source text into OpenMP + ompx source text.

    Handles the constructs the paper's §2 walks through: kernel
    definitions, chevron launches, ``__shared__``, ``__device__``, thread
    indexing, synchronization, warp primitives, and the host API.
    Constructs outside the rule tables pass through unchanged (the tool is
    a rewriter, not a compiler).
    """
    if not isinstance(source, str):
        raise PortError(f"port_c_source takes source text, got {type(source).__name__}")
    text = source

    # Chevron launches -> ompx_bare pragma + plain call.  Done first, while
    # the <<<...>>> syntax is still present.
    def launch(match: re.Match) -> str:
        grid = match.group("grid").strip()
        block = match.group("block").strip()
        clauses = f"num_teams({grid}) thread_limit({block})"
        stream = (match.group("stream") or "").strip()
        depend = ""
        if stream:
            depend = f" nowait depend(interopobj: {stream})"
        return (
            f"#pragma omp target teams ompx_bare {clauses}{depend}\n"
            f"{match.group('name')}({match.group('args').strip()});"
        )

    text = _CHEVRON.sub(launch, text)

    # Kernel definitions: drop __global__, keep the function.
    text = _GLOBAL_FN.sub(lambda m: f"void {m.group('name')}", text)
    # Device functions need no annotation under OpenMP (§2.2).
    text = _DEVICE_KW.sub("", text)

    # __shared__ -> declaration + groupprivate pragma (§2.5 footnote).
    def shared(match: re.Match) -> str:
        return (
            f"{match.group('decl')};\n"
            f"#pragma omp groupprivate(team: {match.group('name')})"
        )

    text = _SHARED_DECL.sub(shared, text)

    # __constant__ -> a declare-target symbol initialized from the host
    # (ompx_memcpy_to_symbol); the declaration itself just loses the keyword.
    def constant(match: re.Match) -> str:
        return (
            f"{match.group('decl')};\n"
            f"#pragma omp declare target to({match.group('name')}) "
            f"// constant memory: initialize with ompx_memcpy_to_symbol"
        )

    text = _CONSTANT_DECL.sub(constant, text)

    # dim3 launch-geometry declarations keep their values as int triples;
    # the chevron rewrite above already placed the names into
    # num_teams(...)/thread_limit(...), which accept the §3.2 lists.
    def dim3_decl(match: re.Match) -> str:
        return f"int {match.group('name')}[] = {{{match.group('args').strip()}}};"

    text = _DIM3_DECL.sub(dim3_decl, text)

    # Warp primitives (mask moves last), then plain renames.
    for old, (new, perm) in C_FUNCTION_ARG_PERMUTATIONS.items():
        text = _permute_call_args(text, old, new, perm)
    for old, new in C_FUNCTION_RENAMES.items():
        text = _rename_call(text, old, new)
    for old, new in C_HOST_RENAMES.items():
        text = _rename_call(text, old, new)

    # Simple token substitutions last (they appear inside expressions).
    for old, new in C_SIMPLE_TOKENS.items():
        text = text.replace(old, new)

    return text
