"""Inlining for the lowering pass: device-function bodies spliced into a kernel.

:mod:`repro.compiler.lower` inlines every device function a per-thread
kernel calls before it if-converts the body.  Parameters are replaced by
the argument *expressions* where that is safe (a store through a
parameter then lands in the caller's array), locals are renamed apart,
and a callee's globals are bound under unambiguous names.
"""

from __future__ import annotations

import ast
import builtins
import copy
import functools
import inspect
import itertools
import sys
import textwrap
import types
from typing import Callable, Dict, List, Set, Tuple


class _Decline(Exception):
    """Raised while lowering: the construct has no exact lane-batched form."""



_STDLIB = frozenset(getattr(sys, "stdlib_module_names", ()))


# --- source helpers -----------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _source(fn: Callable) -> str:
    """Dedented source of ``fn`` (a device function is read once, not per call site)."""
    return textwrap.dedent(inspect.getsource(fn))


def _parse_def(fn: Callable) -> ast.FunctionDef:
    try:
        source = _source(fn)
    except (OSError, TypeError) as exc:
        raise _Decline(f"no source for {getattr(fn, '__name__', fn)!r}") from exc
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            node.decorator_list = []
            return node
    raise _Decline(f"no function definition in the source of {fn!r}")


def _scope_of(fn: Callable) -> Dict[str, object]:
    """The names a function body can see besides its locals."""
    scope = dict(vars(builtins))
    scope.update(fn.__globals__)
    if fn.__closure__:
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
            try:
                scope[name] = cell.cell_contents
            except ValueError:  # pragma: no cover - unbound free variable
                pass
    return scope


def _stored_names(stmts) -> Set[str]:
    names: Set[str] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    return names


def _is_pure(expr: ast.expr) -> bool:
    """Can ``expr`` be duplicated at every use without changing behaviour?"""
    if isinstance(expr, (ast.Name, ast.Constant)):
        return True
    if isinstance(expr, ast.Attribute):
        return _is_pure(expr.value)
    if isinstance(expr, ast.Subscript):
        return _is_pure(expr.value) and _is_pure(expr.slice)
    if isinstance(expr, ast.Tuple):
        return all(_is_pure(e) for e in expr.elts)
    if isinstance(expr, ast.Slice):
        return all(_is_pure(e) for e in (expr.lower, expr.upper, expr.step) if e is not None)
    if isinstance(expr, ast.UnaryOp):
        return _is_pure(expr.operand)
    if isinstance(expr, ast.BinOp):
        return _is_pure(expr.left) and _is_pure(expr.right)
    return False


def _resolve_chain(expr: ast.expr, scope: Dict[str, object], local: Set[str]):
    """Statically resolve ``name`` / ``module.attr`` chains; ``None`` if not."""
    if isinstance(expr, ast.Name):
        if expr.id in local or expr.id not in scope:
            return None
        return (scope[expr.id],)
    if isinstance(expr, ast.Attribute):
        base = _resolve_chain(expr.value, scope, local)
        if base is None or not isinstance(base[0], (types.ModuleType, type)):
            return None
        try:
            return (getattr(base[0], expr.attr),)
        except AttributeError:
            return None
    return None


def _is_device_function(obj) -> bool:
    """A plain Python function the pass inlines (not a library routine)."""
    if not isinstance(obj, types.FunctionType):
        return False
    module = obj.__module__ or ""
    top = module.split(".")[0]
    if top in ("numpy", "scipy") or top in _STDLIB:
        return False
    return not module.startswith("repro.") or module.startswith("repro.apps")


# --- inlining -----------------------------------------------------------------

class _Rename(ast.NodeTransformer):
    def __init__(self, rename: Dict[str, str], subst: Dict[str, ast.expr]) -> None:
        self.rename = rename
        self.subst = subst

    def visit_Name(self, node: ast.Name):  # noqa: N802
        if isinstance(node.ctx, ast.Load) and node.id in self.subst:
            return copy.deepcopy(self.subst[node.id])
        if node.id in self.rename:
            return ast.copy_location(ast.Name(self.rename[node.id], node.ctx), node)
        return node


class _Inliner:
    """Splices device-function bodies into the kernel body."""

    _MAX_DEPTH = 8

    def __init__(self, kernel_scope: Dict[str, object], kernel_locals: Set[str]) -> None:
        self.kernel_scope = kernel_scope
        self.kernel_locals = kernel_locals
        self.injected: Dict[str, object] = {}
        self._ids = itertools.count()

    def block(self, stmts, scope, local, depth) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for stmt in stmts:
            out.extend(self.stmt(stmt, scope, local, depth))
        return out

    def stmt(self, stmt, scope, local, depth) -> List[ast.stmt]:
        if isinstance(stmt, (ast.If, ast.For, ast.While)):
            self._no_device_calls([getattr(stmt, "test", None), getattr(stmt, "iter", None)],
                                  scope, local)
            stmt.body = self.block(stmt.body, scope, local, depth)
            stmt.orelse = self.block(stmt.orelse, scope, local, depth)
            return [stmt]
        value = getattr(stmt, "value", None)
        if isinstance(stmt, (ast.Expr, ast.Assign, ast.AugAssign)) and isinstance(value, ast.Call):
            callee = _resolve_chain(value.func, scope, local)
            if callee is not None and _is_device_function(callee[0]):
                self._no_device_calls(value.args + [k.value for k in value.keywords], scope, local)
                body, result = self.inline(callee[0], value, depth)
                if isinstance(stmt, ast.Expr):
                    return body
                stmt.value = result
                return body + [stmt]
        self._no_device_calls([stmt], scope, local)
        return [stmt]

    def _no_device_calls(self, nodes, scope, local) -> None:
        for root in nodes:
            if root is None:
                continue
            for node in ast.walk(root):
                if isinstance(node, ast.Call):
                    callee = _resolve_chain(node.func, scope, local)
                    if callee is not None and _is_device_function(callee[0]):
                        raise _Decline(
                            f"device function {callee[0].__name__!r} is called "
                            f"inside an expression (inline only whole statements)"
                        )

    def inline(self, fn, call: ast.Call, depth: int) -> Tuple[List[ast.stmt], ast.expr]:
        if depth >= self._MAX_DEPTH:
            raise _Decline(f"device function {fn.__name__!r} nests too deeply (recursion?)")
        fdef = _parse_def(fn)
        args = fdef.args
        if args.vararg or args.kwarg or args.kwonlyargs:
            raise _Decline(f"device function {fn.__name__!r} takes *args/**kwargs")
        params = [a.arg for a in args.posonlyargs + args.args]
        scope = _scope_of(fn)
        local = set(params) | _stored_names(fdef.body)
        body = self.block(fdef.body, scope, local, depth + 1)
        stored = _stored_names(body)
        local |= stored

        result: ast.expr = ast.Constant(None)
        if body and isinstance(body[-1], ast.Return):
            result = body.pop().value or ast.Constant(None)
        for node in body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Return):
                    raise _Decline(
                        f"device function {fn.__name__!r} returns before its last statement"
                    )

        bound = self._bind(fn, params, call)
        tag = f"__{fn.__name__}{next(self._ids)}"
        rename: Dict[str, str] = {}
        subst: Dict[str, ast.expr] = {}
        prologue: List[ast.stmt] = []
        for name in params:
            arg = bound[name]
            if name not in stored and _is_pure(arg):
                subst[name] = arg
            else:
                rename[name] = name + tag
                prologue.append(ast.Assign([ast.Name(name + tag, ast.Store())], arg))
        for name in local - set(params):
            rename[name] = name + tag
        # Globals of the callee resolve in the callee's module, which need
        # not be the kernel's: bind each under an unambiguous name.
        for node in [*body, result]:
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Name)
                    and sub.id not in local
                    and sub.id not in rename
                    and sub.id not in self.injected
                ):
                    rename[sub.id] = self._global(sub.id, scope, fn)
        fixer = _Rename(rename, subst)
        body = [fixer.visit(stmt) for stmt in body]
        result = fixer.visit(result)
        return prologue + body, result

    def _global(self, name: str, scope, fn) -> str:
        if name not in scope:
            raise _Decline(f"device function {fn.__name__!r} reads undefined name {name!r}")
        obj = scope[name]
        if name not in self.kernel_locals and name in self.kernel_scope and self.kernel_scope[name] is obj:
            return name
        alias = f"_lw_g{len(self.injected)}_{name}"
        self.injected[alias] = obj
        return alias

    def _bind(self, fn, params, call: ast.Call) -> Dict[str, ast.expr]:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            raise _Decline(f"call to {fn.__name__!r} unpacks *args/**kwargs")
        if len(call.args) > len(params):
            raise _Decline(f"call to {fn.__name__!r} passes too many arguments")
        bound = dict(zip(params, call.args))
        for kw in call.keywords:
            if kw.arg in bound or kw.arg not in params:
                raise _Decline(f"call to {fn.__name__!r} binds {kw.arg!r} wrongly")
            bound[kw.arg] = kw.value
        defaults = fn.__defaults__ or ()
        for name, default in zip(params[len(params) - len(defaults):], defaults):
            if name not in bound:
                alias = f"_lw_g{len(self.injected)}_{name}"
                self.injected[alias] = default
                bound[name] = ast.Name(alias, ast.Load())
        missing = [p for p in params if p not in bound]
        if missing:
            raise _Decline(f"call to {fn.__name__!r} misses arguments {missing}")
        return bound
