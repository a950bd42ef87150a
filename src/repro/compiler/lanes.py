"""The runtime of lowered kernels: lane-batched operations with exact semantics.

:mod:`repro.compiler.lower` rewrites a per-thread kernel body into calls
to these helpers.  Each takes the current lane mask (``None``: every lane
live, ``False``: none) where an operation must touch live lanes only, and
reproduces what every live thread would compute on its own: loads and
stores index live lanes only, a complex product uses the scalar
real-plane form, libm runs per live lane, and ``min``/``max``/``int``/
``complex`` follow Python's rules.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Dict, Tuple

import numpy as np

from ..gpu.shared import BlockShared

__all__ = ["RUNTIME", "UNSET"]

#: NumPy ufuncs whose array loops are bit-identical to their scalar calls
#: on real inputs (exact or correctly rounded operations).
_EXACT_UFUNCS = frozenset({
    np.sqrt, np.absolute, np.fabs, np.negative, np.positive, np.add,
    np.subtract, np.multiply, np.divide, np.floor_divide, np.remainder,
    np.fmod, np.minimum, np.maximum, np.fmin, np.fmax, np.floor, np.ceil,
    np.trunc, np.rint, np.square, np.reciprocal, np.copysign, np.isnan,
    np.isinf, np.isfinite, np.signbit, np.equal, np.not_equal, np.less,
    np.less_equal, np.greater, np.greater_equal, np.logical_and,
    np.logical_or, np.logical_not, np.logical_xor,
})

class _Unset:
    """Initial value of every local: a lane that never assigned it."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unset>"


UNSET = _Unset()


def _lanes_of(v) -> bool:
    return isinstance(v, np.ndarray) and v.ndim > 0


def _lw_truth(v):
    if isinstance(v, np.ndarray):
        return v if v.dtype == np.bool_ else v != 0
    return bool(v)


def _lw_not(v):
    t = _lw_truth(v)
    return ~t if isinstance(t, np.ndarray) else not t


def _lw_and(m, c):
    """Live lanes of ``m`` where ``c`` holds: ``None`` = all, ``False`` = none."""
    if m is False:
        return False
    if not isinstance(c, np.ndarray):
        return m if c else False
    r = c if m is None else m & c
    if r.all():
        return None
    return r if r.any() else False


def _lw_andnot(m, c):
    return _lw_and(m, _lw_not(c))


def _lw_any(m) -> bool:
    return m is not False


def _lw_live(facade, m) -> None:
    ctx = getattr(facade, "ctx", facade)
    ctx.set_live(None if m is None else int(np.count_nonzero(m)))


def _lw_merge(m, new, old):
    if m is None or old is UNSET:
        return new
    return np.where(m, new, old)


def _lw_select(c, then, other):
    if then is UNSET:
        return other
    if other is UNSET:
        return then
    r = np.where(c, then, other)
    return r[()] if r.ndim == 0 else r


#: The last ``(mask, live lane indices)`` pair: a region's loads and stores
#: share one mask object, which is never mutated.  One tuple, swapped
#: atomically, so concurrent launches cannot see a torn pair.
_LAST_SEL: Tuple[object, object] = (None, None)


def _live_lanes(m) -> np.ndarray:
    global _LAST_SEL
    last = _LAST_SEL
    if last[0] is m:
        return last[1]
    sel = np.flatnonzero(m)
    _LAST_SEL = (m, sel)
    return sel


def _live_index(sel, v):
    return v[sel] if _lanes_of(v) else v


def _lw_ld(m, base, idx):
    """``base[idx]`` read only for live lanes; dead lanes get zeros.

    A wave batch's shared array (:class:`~repro.gpu.shared.BlockShared`)
    is read per lane, so its rows narrow to the live lanes too.
    """
    if m is None:
        return base[idx]
    per_block = isinstance(base, BlockShared)
    if not per_block and not any(_lanes_of(i) for i in idx):
        return base[idx]
    sel = _live_lanes(m)
    if per_block:
        base = base.restrict(sel)
    vals = np.asarray(base[tuple(_live_index(sel, i) for i in idx)])
    out = np.zeros((m.shape[0],) + vals.shape[1:], dtype=vals.dtype)
    out[sel] = vals
    return out


def _lw_st(m, base, idx, value) -> None:
    """``base[idx] = value`` for live lanes, in lane order (last one wins).

    Into a wave batch's shared array only the live lanes' blocks are
    written, each lane into its own block's copy.
    """
    per_block = isinstance(base, BlockShared)
    sel = None if m is None else _live_lanes(m)
    if sel is not None:
        idx = tuple(_live_index(sel, i) for i in idx)
        value = _live_index(sel, value)
        if per_block:
            base = base.restrict(sel)
    if _lanes_of(value) and not per_block and not any(_lanes_of(i) for i in idx):
        # Every live lane writes the same element: the last lane wins,
        # as under the sequential map engine.
        value = value[-1]
    base[idx] = value


def _complex_parts(v):
    """``(re, im)`` of one operand; a real one gets the ``+0.0`` imaginary
    part NumPy's scalar product gives it when promoting."""
    if isinstance(v, np.ndarray):
        return (v.real, v.imag) if v.dtype.kind == "c" else (v, 0.0)
    if isinstance(v, (complex, np.complexfloating)):
        return v.real, v.imag
    return v, 0.0


def _is_complex(v) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype.kind == "c"
    return isinstance(v, (complex, np.complexfloating))


def _lw_mul(a, b):
    """``a * b``; a complex product of lanes expands to ``(ac - bd, ad + bc)``."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)) or not (
        _is_complex(a) or _is_complex(b)
    ):
        return a * b
    ar, ai = _complex_parts(a)
    br, bi = _complex_parts(b)
    re = ar * br - ai * bi
    im = ar * bi + ai * br
    out = np.empty(np.broadcast(re, im).shape,
                   dtype=np.result_type(np.result_type(re, im), np.complex64))
    out.real = re
    out.imag = im
    return out


#: ``np.frompyfunc`` wrappers of libm functions, built on first use.
_PYFUNCS: Dict[Callable, np.ufunc] = {}


def _lw_map(m, fn, *args):
    """Call ``fn`` once per live lane, as each thread would.

    A ``math`` function sees Python floats (it converts its arguments to C
    doubles either way); anything else gets the lane's NumPy scalars.
    """
    if not any(_lanes_of(a) for a in args):
        return fn(*args)
    width = next(a.shape[0] for a in args if _lanes_of(a))
    sel = None if m is None else _live_lanes(m)
    cols = [a if sel is None or not _lanes_of(a) else a[sel] for a in args]
    if getattr(math, getattr(fn, "__name__", ""), None) is fn:
        ufunc = _PYFUNCS.get(fn)
        if ufunc is None:
            ufunc = _PYFUNCS[fn] = np.frompyfunc(fn, len(args), 1)
        raw = ufunc(*cols)
        vals = raw.astype(type(raw.flat[0])) if raw.size else raw.astype(np.float64)
    else:
        n = width if sel is None else sel.size
        rows = zip(*[c if _lanes_of(c) else itertools.repeat(c, n) for c in cols])
        vals = np.asarray([fn(*row) for row in rows])
    if sel is None:
        return vals
    out = np.zeros((width,) + vals.shape[1:], dtype=vals.dtype if vals.size else np.float64)
    out[sel] = vals
    return out


def _lw_ufunc(m, fn, *args):
    if fn in _EXACT_UFUNCS and not any(np.iscomplexobj(a) for a in args):
        return fn(*args)
    return _lw_map(m, fn, *args)


def _lw_sqrt(m, v):
    """``math.sqrt``: ``np.sqrt`` is correctly rounded, so it matches."""
    if not _lanes_of(v):
        return math.sqrt(v)
    live = v if m is None else v[m]
    if np.any(live < 0):
        raise ValueError("math domain error")
    return np.sqrt(v.astype(np.float64, copy=False))


def _lw_int(m, v):
    """``int(v)``: truncation toward zero, raising as Python does."""
    if not _lanes_of(v):
        return int(v)
    if v.dtype.kind in "biu":
        return v.astype(np.int64)
    if v.dtype.kind != "f":
        return _lw_map(m, int, v)
    live = v if m is None else v[m]
    if np.isnan(live).any():
        raise ValueError("cannot convert float NaN to integer")
    if np.isinf(live).any():
        raise OverflowError("cannot convert float infinity to integer")
    if (np.abs(live) >= 2.0**63).any():
        return _lw_map(m, int, v)
    out = np.zeros(v.shape, dtype=np.int64)
    keep = slice(None) if m is None else m
    out[keep] = v[keep].astype(np.int64)
    return out


def _lw_float(v):
    if not _lanes_of(v):
        return float(v)
    if np.iscomplexobj(v):
        raise TypeError("float() argument must be a string or a real number, not 'complex'")
    return v.astype(np.float64)


def _lw_complex(re, im=0.0):
    """``complex(re, im)`` built from its parts, never as ``re + 1j*im``."""
    if not (_lanes_of(re) or _lanes_of(im)):
        return complex(re, im)
    if np.iscomplexobj(re) or np.iscomplexobj(im):
        return _lw_map(None, complex, re, im)
    out = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _lw_abs(m, v):
    if not _lanes_of(v):
        return abs(v)
    if np.iscomplexobj(v):
        return _lw_map(m, abs, v)
    return np.abs(v)


def _lw_min(a, b):
    """Python's ``min(a, b)``: ``a`` unless ``b < a`` (ties and NaN keep ``a``)."""
    if not (_lanes_of(a) or _lanes_of(b)):
        return min(a, b)
    return np.where(b < a, b, a)


def _lw_max(a, b):
    """Python's ``max(a, b)``: ``a`` unless ``b > a``."""
    if not (_lanes_of(a) or _lanes_of(b)):
        return max(a, b)
    return np.where(b > a, b, a)


def _lw_trip(m, start, stop) -> int:
    """The largest ``range(start, stop)`` trip count over live lanes."""
    trips = np.asarray(stop) - np.asarray(start)
    if trips.dtype.kind not in "biu":
        raise TypeError(f"range() bound of dtype {trips.dtype} is not an integer")
    if trips.ndim == 0:
        return max(0, int(trips))
    live = trips if m is None else trips[m]
    return max(0, int(live.max())) if live.size else 0


def _lw_loopvar(m, start, stop, before):
    """A masked loop variable after its loop: ``stop - 1`` where it ran."""
    ran = np.asarray(stop - start) > 0
    if m is not None:
        ran = ran & m
    return _lw_merge(ran, stop - 1, before)


#: What generated code sees: every ``_lw_*`` helper, the unset sentinel
#: and ``**`` as a function.
RUNTIME = {name: obj for name, obj in globals().items() if name.startswith("_lw_")}
RUNTIME["_lw_UNSET"] = UNSET
RUNTIME["_lw_pow"] = operator.pow
