"""Structural value digests shared by the serving and checkpoint tiers.

:func:`digest` fingerprints a value by its *contents*, so two equal
parameter dicts (or two equal NumPy arrays built by different callers)
digest identically.  The serving tier keys request coalescing on it
(:mod:`repro.serve.coalesce`); the checkpoint tier records it in every
snapshot's run identity (:mod:`repro.ckpt.session`).  It lives here, below
both, so neither tier imports the other.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from typing import Optional, Tuple

import numpy as np

__all__ = ["digest"]


def digest(value) -> Optional[Tuple]:
    """A hashable structural fingerprint of ``value``, or ``None`` if opaque.

    Digestable: ``None``, booleans, numbers, strings, bytes, NumPy
    arrays (shape + dtype + content hash), and tuples/lists/mappings of
    digestable values.  Anything else — device pointers, handles,
    callables, app objects — returns ``None``, which poisons the whole
    containing digest.
    """
    if value is None:
        return ("none",)
    if isinstance(value, np.ndarray):
        body = hashlib.sha256()
        body.update(np.ascontiguousarray(value).tobytes())
        return ("ndarray", value.shape, str(value.dtype), body.hexdigest())
    if isinstance(value, (bool, int, float, complex, str, bytes)):
        return ("scalar", type(value).__name__, value)
    if isinstance(value, np.generic):
        return ("scalar", str(value.dtype), value.item())
    if isinstance(value, Mapping):
        items = []
        for key in sorted(value, key=repr):
            sub = digest(value[key])
            if sub is None:
                return None
            items.append((repr(key), sub))
        return ("mapping", tuple(items))
    if isinstance(value, Sequence):
        items = []
        for element in value:
            sub = digest(element)
            if sub is None:
                return None
            items.append(sub)
        return ("seq", tuple(items))
    return None
