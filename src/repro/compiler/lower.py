"""Lower a per-thread kernel body to a lane-batched one.

The scalar engines run a SIMT kernel one simulated thread at a time.  The
:class:`~repro.gpu.engine.WaveVectorEngine` runs one Python call per
*lane batch*, but only for bodies written against the batch intrinsics
(``select``/``load``/``store``/``loop_max``).  This pass closes the gap for
ordinary per-thread source, which it leaves untouched: it reads the
kernel's AST and emits a second, lane-batched function.

* Device functions are inlined.  Parameters are replaced by the argument
  *expressions*, so a store through a parameter lands in the caller's
  array (``c_site[r, c] = v`` with ``c_site = c[site, d]`` becomes
  ``c[site, d, r, c] = v``).  Tuple returns unpack.
* The top-level guard ``if i >= n: return`` becomes a lane mask.
* ``if``/``else`` and ``a if c else b`` with a lane-varying condition run
  both sides under complementary masks; assignments merge with
  ``np.where``.
* ``for v in range(n)`` with a lane-varying ``n`` runs to the maximum trip
  count over live lanes, masking ``v < n`` per iteration.

Lowering is exact, not approximate.  Raw subscripts keep raw semantics: a
live lane indexing out of range raises ``IndexError``, and dead lanes never
read, write or raise.  Complex ``*`` expands to real-plane arithmetic (the
form NumPy's scalar product computes; its SIMD array multiply differs in
the last bit), ``math.sqrt`` maps to the correctly rounded ``np.sqrt``,
every other libm call runs per live lane, ``min``/``max`` keep Python's tie
and NaN rule, ``int`` truncates toward zero and ``complex(re, im)`` is built
from its parts.  A ``wave`` batch holds many blocks, each with its own
copy of every shared array, so a read of a shared array is lane-varying
and a store into one under a lane mask writes only the live lanes' blocks.
The bounds-guarded ``load``/``store`` intrinsics run as written where
every lane is live.  Counted façade calls (``array``,
shared declarations, barriers) count only the lanes live at the call, so
``KernelStats`` equal the scalar engine's.

Constructs the pass cannot lower exactly are *declined* and the kernel
stays on its scalar engine: ``while``, ``break``, ``continue``, any
``return`` but the top-level guard, ``try``/``with``/``raise``, per-thread
containers (``np.full(k, ...)``, list literals), warp collectives,
atomics, ``loop_max`` (a maximum over the batch, not the thread's own
count), ``load``/``store`` under a lane mask (their own masks would need
merging with it), and a quotient of two Python ``complex`` values
(CPython divides differently from NumPy).
"""

from __future__ import annotations

import ast
import copy
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..gpu.kernel import Kernel
from ..gpu.vector import VectorThreadCtx
from .ifconvert import _assign, _Codegen, _name
from .inline import _Decline, _Inliner, _parse_def, _scope_of, _stored_names
from .lanes import RUNTIME

__all__ = ["Lowering", "lower_kernel"]


@dataclass(frozen=True)
class Lowering:
    """The outcome of lowering one kernel.

    ``entry`` is the engine-facing lane-batched callable, or ``None`` when
    the pass declined; ``reason`` then says why.  ``cooperative`` is true
    when the inlined body uses barriers or shared memory (it needs the
    ``wave`` engine).
    """

    entry: Optional[Callable]
    reason: Optional[str] = None
    cooperative: bool = False
    kernel: object = field(default=None, repr=False, compare=False)

    @property
    def source(self) -> str:
        """The generated function as Python source, for debugging.

        Re-derived on each access: a lowering keeps no syntax tree alive.
        """
        if self.entry is None:
            return ""
        fn, facade_cls, _ = _unwrap(self.kernel)
        new_def, _, _ = _build(fn, facade_cls)
        return ast.unparse(ast.fix_missing_locations(new_def))


# --- driver -------------------------------------------------------------------

#: Memoized lowerings, keyed by the engine-facing kernel callable.
_LOWER_CACHE: Dict[object, Lowering] = {}


def lower_kernel(kernel: Callable) -> Lowering:
    """Lower ``kernel``'s per-thread body to a lane-batched entry point.

    ``kernel`` is what :func:`~repro.gpu.launch.launch_kernel` receives: a
    :class:`~repro.gpu.kernel.Kernel`, whose ``fn`` is lowered against its
    ``facade`` and wrapped by its ``with_body``, or a raw ``kernel(ctx,
    *args)`` function.  The kernel source is only read, never modified.
    Memoized per kernel.
    """
    try:
        cached = _LOWER_CACHE.get(kernel)
    except TypeError:
        return _lower_uncached(kernel)
    if cached is None:
        cached = _lower_uncached(kernel)
        _LOWER_CACHE[kernel] = cached
    return cached


def _unwrap(kernel: Callable):
    """``(source function, façade class, with_body)`` of an engine-facing kernel."""
    if isinstance(kernel, Kernel):
        return kernel.fn, kernel.facade, kernel.with_body
    return kernel, VectorThreadCtx, None


def _lower_uncached(kernel: Callable) -> Lowering:
    try:
        fn, facade_cls, wrap = _unwrap(kernel)
        new_def, bound, cooperative = _build(fn, facade_cls)
        lowered_fn = _materialize(fn, new_def, bound)
    except _Decline as exc:
        return Lowering(None, str(exc))
    except Exception as exc:  # noqa: BLE001 - a pass failure must not fail the launch
        # The kernel keeps its scalar engine; the guard tests
        # (tests/gpu/test_lowered_portfolio.py) catch a pass that regressed.
        return Lowering(None, f"lowering failed: {exc!r}")

    def body(facade_obj, *call_args):
        # Dead lanes compute on placeholder values; their warnings are noise.
        with np.errstate(all="ignore"):
            return lowered_fn(facade_obj, *call_args)

    body.__name__ = fn.__name__
    body.__qualname__ = fn.__qualname__
    return Lowering(body if wrap is None else wrap(body), None, cooperative, kernel)


def _build(fn: Callable, facade_cls):
    """The lowered ``FunctionDef`` of ``fn``, the names it needs bound, and
    whether it is cooperative; raises :class:`_Decline`."""
    fdef = _parse_def(fn)
    args = fdef.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
        raise _Decline("kernel signature with *args, **kwargs or special parameters")
    params = [a.arg for a in args.args]
    if not params:
        raise _Decline("kernel takes no thread context")
    facade = params[0]
    scope = _scope_of(fn)
    kernel_locals = set(params) | _stored_names(fdef.body)
    inliner = _Inliner(scope, kernel_locals)
    body = inliner.block(fdef.body, scope, kernel_locals, 0)
    scope.update(inliner.injected)

    gen = _Codegen(facade, facade_cls, params, body, scope)
    lowered = gen.body(body, None, False, True)
    prologue = [_assign(name, _name("_lw_UNSET"))
                for name in sorted(gen.locals - set(params))]
    new_def = copy.copy(fdef)
    new_def.body = prologue + lowered or [ast.Pass()]
    new_def.returns = None
    return new_def, {**RUNTIME, **inliner.injected}, gen.cooperative


def _materialize(fn: Callable, new_def: ast.FunctionDef, bound: Dict[str, object]):
    """Compile ``new_def`` into a function that shares ``fn``'s globals.

    The runtime helpers and the inlined callees' globals reach the body as
    closure cells, as do ``fn``'s own free variables (its real cells), so
    every other name resolves in ``fn``'s module at call time, exactly as
    in the per-thread body.
    """
    cells = dict(zip(fn.__code__.co_freevars, fn.__closure__ or ()))
    names = sorted(set(bound) | set(cells))
    # A factory whose locals become the lowered function's free variables.
    factory = ast.FunctionDef(
        name="_lw_factory",
        args=ast.arguments(posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
                           kw_defaults=[], kwarg=None, defaults=[]),
        body=[
            ast.Assign([ast.Name(n, ast.Store()) for n in names], ast.Constant(None)),
            new_def,
            ast.Return(_name(new_def.name)),
        ],
        decorator_list=[],
        returns=None,
    )
    module = ast.fix_missing_locations(ast.Module([factory], []))
    namespace: Dict[str, object] = {}
    exec(compile(module, f"<lowered {fn.__qualname__}>", "exec"), namespace)  # noqa: S102
    code = namespace["_lw_factory"]().__code__
    closure = tuple(
        cells[n] if n in cells else types.CellType(bound[n]) for n in code.co_freevars
    )
    return types.FunctionType(code, fn.__globals__, fn.__name__, fn.__defaults__, closure)
