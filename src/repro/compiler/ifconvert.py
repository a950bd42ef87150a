"""If-conversion for the lowering pass: a per-thread body as lane-batched code.

Given a kernel body with its device functions inlined
(:mod:`repro.compiler.inline`), :class:`_Uniformity` finds which locals
differ between lanes and :class:`_Codegen` emits the lane-batched body:
masks for the guard and for lane-varying branches and loops, and calls
into :mod:`repro.compiler.lanes` wherever an operation must touch live
lanes only or differs from its NumPy array form.  Constructs without an
exact lane-batched form raise :class:`~repro.compiler.inline._Decline`.
"""

from __future__ import annotations

import ast
import itertools
import math
import types
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .analysis import _ATOMIC_PREFIXES, _BARRIER_CALLS, _SHARED_CALLS, _WARP_CALLS
from .inline import _Decline, _resolve_chain, _stored_names


# --- façade vocabulary --------------------------------------------------------

#: Façade members whose value differs per lane.
_LANE_VARYING = frozenset({
    "thread_id_x", "thread_id_y", "thread_id_z", "thread_id",
    "block_id_x", "block_id_y", "block_id_z", "block_id",
    "global_thread_id_x", "global_thread_id", "lane_id", "warp_id", "laneid",
    "threadIdx", "blockIdx", "thread_idx", "block_idx",
    "flat_thread_id", "flat_block_id", "global_flat_id",
    "global_id_x", "global_id_y", "global_id_z",
    "omp_get_thread_num", "omp_get_team_num",
})
#: Façade members the pass refuses: collectives, atomics, ``loop_max`` (on
#: a lane batch the maximum over the batch, per thread its own count) and
#: escape hatches.
_FACADE_DECLINED = (
    _WARP_CALLS
    | {"atomic", "loop_max", "cxx", "ctx"}
)
#: The bounds-guarded intrinsics run as written where every lane is live;
#: under a lane mask their own masks would need merging with it.
_UNMASKED_ONLY = frozenset({"load", "store"})

_BUILTIN_HELPERS = {
    min: "_lw_min", max: "_lw_max", int: "_lw_int", float: "_lw_float",
    complex: "_lw_complex", abs: "_lw_abs", bool: "_lw_truth",
}
#: Builtins that may run once per batch when every argument is uniform.
_UNIFORM_BUILTINS = frozenset({len, range, min, max, int, float, complex, abs, bool, round})


# --- lane-uniformity ----------------------------------------------------------

class _Uniformity:
    """Which locals may differ between lanes (a flow-insensitive fixed point).

    A local is lane-varying when any assignment to it has a varying right
    side or sits under a varying ``if``/loop.  A variable assigned only as
    the target of ``for`` loops over uniform ranges stays uniform.  A name
    bound by a shared-memory declaration stays uniform (stores through it
    land in the shared array), but reading an element varies: on a wave
    batch each lane reads its own block's copy.
    """

    def __init__(self, facade: str, body: List[ast.stmt]) -> None:
        self.facade = facade
        self.varying: Set[str] = set()
        self.shared = self._shared_names(facade, body)
        self.loop_only = self._loop_only(body)
        self._known: Optional[Dict[ast.AST, bool]] = None
        while True:
            before = len(self.varying)
            self._walk(body, False)
            if len(self.varying) == before:
                break
        self._known = {}  # the set is final: answers can be memoized

    @staticmethod
    def _loop_only(body) -> Set[str]:
        loops: Dict[str, int] = {}
        stores: Dict[str, int] = {}
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                    loops[node.target.id] = loops.get(node.target.id, 0) + 1
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    stores[node.id] = stores.get(node.id, 0) + 1
        # A for target is itself a store: loop-only names store nowhere else.
        return {name for name, count in loops.items() if stores[name] == count}

    @staticmethod
    def _shared_names(facade: str, body) -> Set[str]:
        names: Set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and isinstance(node.value.func.value, ast.Name)
                    and node.value.func.value.id == facade
                    and node.value.func.attr in _SHARED_CALLS
                ):
                    names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        return names

    def in_shared(self, expr: ast.expr) -> bool:
        """Is ``expr`` a shared array, or an element or row of one?"""
        while isinstance(expr, ast.Subscript):
            expr = expr.value
        return isinstance(expr, ast.Name) and expr.id in self.shared

    def vary(self, expr: Optional[ast.AST]) -> bool:
        if expr is None:
            return False
        if self._known is not None:
            known = self._known.get(expr)
            if known is None:
                known = self._known[expr] = self._vary(expr)
            return known
        return self._vary(expr)

    def _vary(self, expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in self.varying:
                return True
            if isinstance(node, ast.Subscript) and self.in_shared(node.value):
                return True
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _LANE_VARYING
                and isinstance(node.value, ast.Name)
                and node.value.id == self.facade
            ):
                return True
        return False

    def _define(self, target: ast.expr, varying: bool) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and varying:
                self.varying.add(node.id)

    def _walk(self, stmts, region: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Tuple) and isinstance(stmt.value, ast.Tuple):
                        for t, v in zip(target.elts, stmt.value.elts):
                            self._define(t, region or self.vary(v))
                    elif not isinstance(target, ast.Subscript):
                        self._define(target, region or self.vary(stmt.value))
            elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
                self._define(stmt.target, region or self.vary(stmt.value))
            elif isinstance(stmt, ast.If):
                inner = region or self.vary(stmt.test)
                self._walk(stmt.body, inner)
                self._walk(stmt.orelse, inner)
            elif isinstance(stmt, ast.For):
                varying_loop = self.vary(stmt.iter)
                target = stmt.target
                if varying_loop or (
                    region and not (isinstance(target, ast.Name) and target.id in self.loop_only)
                ):
                    self._define(target, True)
                self._walk(stmt.body, region or varying_loop)


# --- code generation ----------------------------------------------------------

def _name(ident: str) -> ast.Name:
    return ast.Name(ident, ast.Load())


def _call(helper: str, *args: ast.expr) -> ast.Call:
    return ast.Call(_name(helper), list(args), [])


def _assign(ident: str, value: ast.expr) -> ast.Assign:
    return ast.Assign([ast.Name(ident, ast.Store())], value)


class _Codegen:
    """Emits the lane-batched body from the inlined per-thread body."""

    def __init__(self, facade: str, facade_cls, params, body, scope: Dict[str, object]) -> None:
        self.facade = facade
        self.facade_cls = facade_cls
        self.params = set(params)
        self.scope = scope
        self.uni = _Uniformity(facade, body)
        self.locals = _stored_names(body)
        self._ids = itertools.count()
        self.cooperative = False
        self.py_complex = self._py_complex_locals(body)

    # -- small utilities --
    def tmp(self, kind: str = "t") -> str:
        return f"_lw_{kind}{next(self._ids)}"

    @staticmethod
    def mask(m: Optional[str]) -> ast.expr:
        return ast.Constant(None) if m is None else _name(m)

    def uses_facade(self, nodes) -> bool:
        return any(
            isinstance(sub, ast.Name) and sub.id == self.facade
            for node in nodes
            for sub in ast.walk(node)
        )

    def live(self, m: Optional[str]) -> ast.stmt:
        return ast.Expr(_call("_lw_live", _name(self.facade), self.mask(m)))

    def resolve(self, expr: ast.expr):
        return _resolve_chain(expr, self.scope, self.locals | self.params)

    # -- statements --
    def body(self, stmts, m: Optional[str], region: bool, top: bool) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for i, stmt in enumerate(stmts):
            if (
                top
                and isinstance(stmt, ast.If)
                and not stmt.orelse
                and len(stmt.body) == 1
                and isinstance(stmt.body[0], ast.Return)
                and stmt.body[0].value is None
                and self.uni.vary(stmt.test)
            ):
                # The top-level guard: the lanes that return leave the mask.
                pre, test = self.expr(stmt.test, m)
                cond, new = self.tmp("c"), self.tmp("m")
                out += pre
                out.append(_assign(cond, _call("_lw_truth", test)))
                out.append(_assign(new, _call("_lw_andnot", self.mask(m), _name(cond))))
                out.append(ast.If(ast.UnaryOp(ast.Not(), _call("_lw_any", _name(new))),
                                  [ast.Return(None)], []))
                out.append(self.live(new))
                out += self.body(stmts[i + 1:], new, region, top)
                return out
            out += self.stmt(stmt, m, region, top)
        return out

    def stmt(self, stmt, m, region, top) -> List[ast.stmt]:
        if isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Constant):
                return []
            if isinstance(stmt.value, ast.Call) and self._is_barrier(stmt.value):
                if region:
                    raise _Decline("barrier under a lane-varying branch or loop")
                self.cooperative = True
            pre, value = self.expr(stmt.value, m)
            return pre + [ast.Expr(value)]
        if isinstance(stmt, ast.Assign):
            pre, value = self.expr(stmt.value, m)
            if len(stmt.targets) > 1:
                keep = self.tmp()
                pre.append(_assign(keep, value))
                value = _name(keep)
            for target in stmt.targets:
                pre += self.assign(target, value, stmt.value, m, region)
            return pre
        if isinstance(stmt, ast.AugAssign):
            if not isinstance(stmt.target, ast.Name):
                raise _Decline("augmented assignment to a subscript or attribute")
            load = ast.Name(stmt.target.id, ast.Load())
            return self.stmt(ast.Assign([stmt.target], ast.BinOp(load, stmt.op, stmt.value)),
                             m, region, top)
        if isinstance(stmt, ast.If):
            return self.if_(stmt, m, region, top)
        if isinstance(stmt, ast.For):
            return self.for_(stmt, m, region)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None or not top:
                raise _Decline("return other than the top-level guard")
            return [ast.Return(None)]
        if isinstance(stmt, ast.Pass):
            return [stmt]
        raise _Decline(f"'{type(stmt).__name__.lower()}' statement")

    def _is_barrier(self, call: ast.Call) -> bool:
        fn = call.func
        return (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id == self.facade
            and fn.attr in _BARRIER_CALLS
        )

    def assign(self, target, value: ast.expr, source: ast.expr, m, region) -> List[ast.stmt]:
        """Assign the lowered ``value`` (lowered from ``source``) to ``target``."""
        if isinstance(target, ast.Name):
            if target.id == self.facade:
                raise _Decline("rebinding the thread façade")
            if region and target.id in self.uni.varying:
                value = _call("_lw_merge", self.mask(m), value, _name(target.id))
            return [ast.Assign([ast.Name(target.id, ast.Store())], value)]
        if isinstance(target, ast.Tuple):
            if not (
                isinstance(value, ast.Tuple)
                and isinstance(source, ast.Tuple)
                and len(value.elts) == len(target.elts)
            ):
                if region or self.uni.vary(target) or self.uni.vary(source):
                    raise _Decline("tuple unpacking of a lane-varying value")
                return [ast.Assign([target], value)]
            temps = [self.tmp() for _ in value.elts]
            out: List[ast.stmt] = [_assign(t, v) for t, v in zip(temps, value.elts)]
            for t, v, src in zip(target.elts, temps, source.elts):
                out += self.assign(t, _name(v), src, m, region)
            return out
        if isinstance(target, ast.Subscript):
            base, index = self._flatten(target)
            if self.uni.vary(base):
                raise _Decline("store through a lane-varying array (a per-thread copy)")
            pre: List[ast.stmt] = []
            idx = []
            for elt in index:
                if isinstance(elt, ast.Slice):
                    if self.uni.vary(elt):
                        raise _Decline("lane-varying slice")
                    idx.append(elt)
                    continue
                p, e = self.expr(elt, m)
                pre += p
                idx.append(e)
            # Under a lane mask, a uniform store into shared memory still
            # lands only in the blocks that have a live lane.
            varying = self.uni.vary(source) or any(self.uni.vary(e) for e in index)
            per_block = m is not None and self.uni.in_shared(base)
            bpre, base = self.expr(base, m)
            pre += bpre
            if not (varying or per_block):
                store = ast.Subscript(base, ast.Tuple(idx, ast.Load()), ast.Store())
                return pre + [ast.Assign([store], value)]
            if varying and any(isinstance(e, ast.Slice) for e in idx):
                raise _Decline("lane-varying store through a slice")
            return pre + [ast.Expr(_call("_lw_st", self.mask(m), base,
                                         ast.Tuple(idx, ast.Load()), value))]
        raise _Decline(f"assignment to {type(target).__name__}")

    def if_(self, stmt: ast.If, m, region, top) -> List[ast.stmt]:
        pre, test = self.expr(stmt.test, m)
        if not self.uni.vary(stmt.test):
            # A uniform ``return`` leaves with every lane; anything else in
            # the branch is not top level (a guard there would not mask the
            # statements after the ``if``).
            def returns(branch):
                return top and all(isinstance(s, ast.Return) for s in branch)

            body = self.body(stmt.body, m, region, returns(stmt.body))
            orelse = self.body(stmt.orelse, m, region, returns(stmt.orelse))
            return pre + [ast.If(test, body or [ast.Pass()], orelse)]
        cond = self.tmp("c")
        out = pre + [_assign(cond, _call("_lw_truth", test))]
        for helper, branch in (("_lw_and", stmt.body), ("_lw_andnot", stmt.orelse)):
            if not branch:
                continue
            sub = self.tmp("m")
            out.append(_assign(sub, _call(helper, self.mask(m), _name(cond))))
            inner = self.body(branch, sub, True, False)
            if self.uses_facade(branch):
                inner = [self.live(sub)] + inner
            out.append(ast.If(_call("_lw_any", _name(sub)), inner or [ast.Pass()], []))
        if self.uses_facade(stmt.body + stmt.orelse):
            out.append(self.live(m))
        return out

    def for_(self, stmt: ast.For, m, region) -> List[ast.stmt]:
        if stmt.orelse:
            raise _Decline("for-else")
        if not isinstance(stmt.target, ast.Name):
            raise _Decline("for loop with a non-name target")
        var = stmt.target.id
        if not self.uni.vary(stmt.iter):
            pre, it = self.expr(stmt.iter, m)
            if var in self.uni.varying and region:
                step = self.tmp("i")
                body = [ast.Assign([ast.Name(var, ast.Store())],
                                   _call("_lw_merge", self.mask(m), _name(step), _name(var)))]
                target = ast.Name(step, ast.Store())
            else:
                body, target = [], stmt.target
            body += self.body(stmt.body, m, region, False)
            return pre + [ast.For(target, it, body or [ast.Pass()], [])]
        # A lane-varying trip count: run to the live maximum under a mask.
        it = stmt.iter
        if not (
            isinstance(it, ast.Call)
            and self.resolve(it.func) == (range,)
            and 1 <= len(it.args) <= 2
            and not it.keywords
        ):
            raise _Decline("loop over a lane-varying iterable other than range(n)/range(a, b)")
        if var in _stored_names(stmt.body):
            raise _Decline("loop variable reassigned inside a lane-varying loop")
        pre: List[ast.stmt] = []
        bounds = [ast.Constant(0)] + list(it.args) if len(it.args) == 1 else list(it.args)
        start, stop = self.tmp("s"), self.tmp("e")
        for ident, bound in zip((start, stop), bounds):
            p, e = self.expr(bound, m)
            pre += p + [_assign(ident, e)]
        trips, before, step, sub = self.tmp("n"), self.tmp("b"), self.tmp("i"), self.tmp("m")
        pre.append(_assign(trips, _call("_lw_trip", self.mask(m), _name(start), _name(stop))))
        pre.append(_assign(before, _name(var)))
        inner: List[ast.stmt] = [
            _assign(sub, _call("_lw_and", self.mask(m), ast.Compare(
                ast.BinOp(_name(start), ast.Add(), _name(step)), [ast.Lt()], [_name(stop)]))),
            _assign(var, ast.BinOp(_name(start), ast.Add(), _name(step))),
        ]
        if self.uses_facade(stmt.body):
            inner.append(self.live(sub))
        inner += self.body(stmt.body, sub, True, False)
        loop = ast.For(ast.Name(step, ast.Store()), ast.Call(_name("range"), [_name(trips)], []),
                       inner, [])
        post = [_assign(var, _call("_lw_loopvar", self.mask(m), _name(start), _name(stop),
                                   _name(before)))]
        if self.uses_facade(stmt.body):
            post.append(self.live(m))
        return pre + [loop] + post

    # -- expressions --
    def expr(self, node: ast.expr, m) -> Tuple[List[ast.stmt], ast.expr]:
        """Lower a statement's expression: check it once, then lower it."""
        self._check(node, m is not None)
        return self._lower(node, m)

    def _lower(self, node: ast.expr, m) -> Tuple[List[ast.stmt], ast.expr]:
        if not self.uni.vary(node):
            return [], node
        if isinstance(node, (ast.Name, ast.Constant)):
            return [], node
        if isinstance(node, ast.Attribute):
            return self.attribute(node, m)
        if isinstance(node, ast.Subscript):
            return self.subscript(node, m)
        if isinstance(node, ast.BinOp):
            return self.binop(node, m)
        if isinstance(node, ast.UnaryOp):
            pre, operand = self._lower(node.operand, m)
            if isinstance(node.op, ast.Not):
                return pre, _call("_lw_not", operand)
            if isinstance(node.op, ast.Invert):
                raise _Decline("'~' on a lane-varying value")
            return pre, ast.UnaryOp(node.op, operand)
        if isinstance(node, ast.Compare):
            return self.compare(node, m)
        if isinstance(node, ast.IfExp):
            return self.ifexp(node, m)
        if isinstance(node, ast.Call):
            return self.call(node, m)
        if isinstance(node, ast.Tuple):
            pre: List[ast.stmt] = []
            elts = []
            for elt in node.elts:
                p, e = self._lower(elt, m)
                pre += p
                elts.append(e)
            return pre, ast.Tuple(elts, ast.Load())
        if isinstance(node, ast.BoolOp):
            raise _Decline("'and'/'or' on lane-varying values")
        raise _Decline(f"lane-varying {type(node).__name__}")

    def _check(self, node: ast.expr, masked: bool) -> None:
        """Decline constructs with no batched form, wherever they appear."""
        for sub in ast.walk(node):
            if isinstance(sub, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
                                ast.DictComp, ast.GeneratorExp)):
                raise _Decline("per-thread container construction")
            if isinstance(sub, (ast.Lambda, ast.NamedExpr, ast.Yield, ast.YieldFrom,
                                ast.Await, ast.Starred)):
                raise _Decline(f"'{type(sub).__name__}' expression")
            if isinstance(sub, ast.Name) and sub.id == self.facade:
                continue
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                    and sub.value.id == self.facade:
                self._check_facade(sub.attr, masked)
            if isinstance(sub, ast.Call):
                self._check_call(sub)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == self.facade:
                if not self._facade_member_use(node, sub):
                    raise _Decline("the thread façade escapes as a value")

    def _facade_member_use(self, root: ast.expr, name: ast.Name) -> bool:
        for sub in ast.walk(root):
            if isinstance(sub, ast.Attribute) and sub.value is name:
                return True
        return False

    def _check_facade(self, attr: str, masked: bool) -> None:
        if attr in _FACADE_DECLINED or attr.startswith(_ATOMIC_PREFIXES):
            raise _Decline(f"façade member {attr!r} (collective, atomic or intrinsic)")
        if masked and attr in _UNMASKED_ONLY:
            raise _Decline(f"façade member {attr!r} under a lane mask")
        if not hasattr(self.facade_cls, attr):
            raise _Decline(f"façade member {attr!r} does not exist on lane batches")
        if attr in _SHARED_CALLS:
            self.cooperative = True

    def _check_call(self, call: ast.Call) -> None:
        fn = call.func
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) \
                and fn.value.id == self.facade:
            return
        resolved = self.resolve(fn)
        if resolved is None:
            raise _Decline(f"call to {ast.unparse(fn)!r} (method or unknown callable)")
        obj = resolved[0]
        if obj in _UNIFORM_BUILTINS or obj in _BUILTIN_HELPERS:
            return
        if isinstance(obj, np.ufunc) or (isinstance(obj, type) and issubclass(obj, np.generic)):
            return
        if isinstance(obj, types.BuiltinFunctionType) and getattr(math, obj.__name__, None) is obj:
            return
        raise _Decline(f"call to {ast.unparse(fn)!r} (not an elementwise operation)")

    def attribute(self, node: ast.Attribute, m):
        value = node.value
        if isinstance(value, ast.Name) and value.id == self.facade:
            return [], node
        if node.attr in ("real", "imag", "x", "y", "z"):
            pre, inner = self._lower(value, m)
            return pre, ast.Attribute(inner, node.attr, ast.Load())
        raise _Decline(f"attribute {node.attr!r} of a lane-varying value")

    @staticmethod
    def _index_elts(sl: ast.expr) -> List[ast.expr]:
        return list(sl.elts) if isinstance(sl, ast.Tuple) else [sl]

    def _flatten(self, node: ast.Subscript) -> Tuple[ast.expr, List[ast.expr]]:
        """``a[i][j]`` with a lane-varying ``i`` (or a shared ``a``) reads
        ``a[i, j]``: same element, no per-lane copy (so stores through it land)."""
        index = self._index_elts(node.slice)
        base = node.value
        while (
            isinstance(base, ast.Subscript)
            and (self.uni.vary(base.slice) or self.uni.in_shared(base.value))
            and not any(isinstance(e, ast.Slice) for e in self._index_elts(base.slice))
        ):
            index = self._index_elts(base.slice) + index
            base = base.value
        return base, index

    def subscript(self, node: ast.Subscript, m):
        base, index = self._flatten(node)
        if self.uni.vary(base):
            raise _Decline("subscript of a lane-varying array (a per-thread copy)")
        pre: List[ast.stmt] = []
        idx = []
        for elt in index:
            if isinstance(elt, ast.Slice):
                raise _Decline("slice in a lane-varying subscript")
            p, e = self._lower(elt, m)
            pre += p
            idx.append(e)
        return pre, _call("_lw_ld", self.mask(m), base, ast.Tuple(idx, ast.Load()))

    def binop(self, node: ast.BinOp, m):
        lpre, left = self._lower(node.left, m)
        rpre, right = self._lower(node.right, m)
        pre = lpre + rpre
        op = node.op
        if isinstance(op, ast.Mult):
            return pre, _call("_lw_mul", left, right)
        if isinstance(op, ast.Pow):
            return pre, _call("_lw_map", self.mask(m), _name("_lw_pow"), left, right)
        if isinstance(op, ast.MatMult):
            raise _Decline("'@' on lane-varying values")
        if isinstance(op, ast.Div) and self._py_complex(node):
            raise _Decline("quotient of Python complex values (CPython divides differently)")
        return pre, ast.BinOp(left, op, right)

    # -- static kinds --
    def _py_complex_locals(self, body) -> Set[str]:
        """Locals that may hold a Python ``complex`` (a fixed point)."""
        names: Set[str] = set()
        self.py_complex = names
        assigns = [
            node for stmt in body for node in ast.walk(stmt)
            if isinstance(node, (ast.Assign, ast.AugAssign))
        ]
        while True:
            before = len(names)
            for node in assigns:
                if isinstance(node, ast.AugAssign):
                    targets = [node.target]
                    value = ast.BinOp(node.target, node.op, node.value)
                else:
                    targets, value = node.targets, node.value
                if not self._py_complex(value):
                    continue
                for target in targets:
                    names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
            if len(names) == before:
                return names

    def _py_complex(self, node: ast.expr) -> bool:
        """May ``node`` be a Python (not NumPy) complex in the scalar run?"""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, complex)
        if isinstance(node, ast.Name):
            return node.id in self.py_complex
        if isinstance(node, ast.Call):
            resolved = self.resolve(node.func)
            if resolved == (complex,):
                return True
            if resolved in ((min,), (max,)):
                return any(self._py_complex(a) for a in node.args)
            return False
        if isinstance(node, ast.BinOp):
            if self._numpy(node.left) or self._numpy(node.right):
                return False
            return self._py_complex(node.left) or self._py_complex(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._py_complex(node.operand)
        if isinstance(node, ast.IfExp):
            return self._py_complex(node.body) or self._py_complex(node.orelse)
        if isinstance(node, ast.Tuple):
            return any(self._py_complex(e) for e in node.elts)
        return False

    def _numpy(self, node: ast.expr) -> bool:
        """Is ``node`` certainly a NumPy value (an array element) per lane?"""
        if isinstance(node, ast.Subscript):
            return True
        if isinstance(node, ast.BinOp):
            return self._numpy(node.left) or self._numpy(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._numpy(node.operand)
        return False

    def compare(self, node: ast.Compare, m):
        if any(isinstance(op, (ast.In, ast.NotIn, ast.Is, ast.IsNot)) for op in node.ops):
            raise _Decline("'in'/'is' on lane-varying values")
        pre, left = self._lower(node.left, m)
        parts = []
        for i, (op, comp) in enumerate(zip(node.ops, node.comparators)):
            p, right = self._lower(comp, m)
            pre += p
            if i < len(node.ops) - 1:
                keep = self.tmp()
                pre.append(_assign(keep, right))
                right = _name(keep)
            parts.append(ast.Compare(left, [op], [right]))
            left = right
        result = parts[0]
        for part in parts[1:]:
            result = ast.BinOp(result, ast.BitAnd(), part)
        return pre, result

    def ifexp(self, node: ast.IfExp, m):
        self._check(node.body, True)
        self._check(node.orelse, True)
        pre, test = self._lower(node.test, m)
        cond = self.tmp("c")
        pre.append(_assign(cond, _call("_lw_truth", test)))
        results = []
        for helper, branch in (("_lw_and", node.body), ("_lw_andnot", node.orelse)):
            sub, res = self.tmp("m"), self.tmp()
            pre.append(_assign(sub, _call(helper, self.mask(m), _name(cond))))
            pre.append(_assign(res, _name("_lw_UNSET")))
            bpre, value = self._lower(branch, sub)
            inner = bpre + [_assign(res, value)]
            if self.uses_facade([branch]):
                inner = [self.live(sub)] + inner + [self.live(m)]
            pre.append(ast.If(_call("_lw_any", _name(sub)), inner, []))
            results.append(_name(res))
        return pre, _call("_lw_select", _name(cond), *results)

    def call(self, node: ast.Call, m):
        pre: List[ast.stmt] = []
        args = []
        for arg in node.args:
            p, e = self._lower(arg, m)
            pre += p
            args.append(e)
        fn = node.func
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) \
                and fn.value.id == self.facade:
            if node.keywords:
                raise _Decline("keyword arguments to a façade call")
            return pre, ast.Call(fn, args, [])
        if node.keywords:
            raise _Decline(f"keyword arguments to {ast.unparse(fn)!r}")
        obj = self.resolve(fn)[0]
        if obj is math.sqrt:
            return pre, _call("_lw_sqrt", self.mask(m), *args)
        if obj in (min, max):
            if len(args) < 2:
                raise _Decline(f"{obj.__name__}() over an iterable")
            helper = _BUILTIN_HELPERS[obj]
            result = args[0]
            for arg in args[1:]:
                result = _call(helper, result, arg)
            return pre, result
        if obj in (int, abs):
            return pre, _call(_BUILTIN_HELPERS[obj], self.mask(m), *args)
        if obj in _BUILTIN_HELPERS:
            return pre, _call(_BUILTIN_HELPERS[obj], *args)
        if isinstance(obj, type) and issubclass(obj, np.generic):
            return pre, ast.Call(fn, args, [])
        if isinstance(obj, np.ufunc):
            return pre, _call("_lw_ufunc", self.mask(m), fn, *args)
        if getattr(math, getattr(obj, "__name__", ""), None) is obj:
            return pre, _call("_lw_map", self.mask(m), fn, *args)
        raise _Decline(f"lane-varying call to {ast.unparse(fn)!r}")
