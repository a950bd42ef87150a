"""Request coalescing keys: deciding when two submissions are one job.

The serving tier collapses identical concurrent submissions onto a
single execution and fans the result out to every waiter — the
MPS-daemon behaviour that makes N tenants requesting the same kernel
cost one launch.  Two submissions are *identical* when their coalesce
keys match: a structural digest (:func:`repro.digest.digest`) of the
kernel identity, the launch geometry, and the argument **values** (not
object identities, so two tenants building equal arrays coalesce).

Safety rule: anything whose value cannot be digested — device pointers,
open streams, arbitrary host objects, a submission bound to an explicit
stream — yields **no** key (``None``) and is never coalesced.
Correctness first, deduplication second: an opaque argument might be
mutated by the launch, and sharing that execution would leak one
tenant's state into another's result.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..digest import digest

__all__ = ["kernel_key", "app_key"]


def _kernel_identity(kernel) -> Tuple[str, str]:
    """A stable name for the kernel function itself (not its wrapper)."""
    entry = getattr(kernel, "entry", kernel)
    fn = getattr(entry, "fn", None) or entry
    return (
        getattr(fn, "__module__", ""),
        getattr(fn, "__qualname__", repr(fn)),
    )


def kernel_key(kernel, config, args) -> Optional[Tuple]:
    """Coalesce key for a raw kernel launch, or ``None`` (never coalesce).

    Keyed on (kernel identity, grid, block, shared bytes, engine,
    argument digest).  A submission bound to an explicit stream is never
    coalesced — stream order is per-tenant state the service must not
    share.
    """
    if getattr(config, "stream", None) is not None:
        return None
    arg_digest = digest(tuple(args))
    if arg_digest is None:
        return None
    engine = getattr(config, "engine", None)
    return (
        "kernel",
        _kernel_identity(kernel),
        getattr(config, "grid", None),
        getattr(config, "block", None),
        getattr(config, "shared_bytes", 0),
        None if engine is None else repr(engine),
        arg_digest,
    )


def app_key(app, variant: str, params) -> Optional[Tuple]:
    """Coalesce key for a functional app run, or ``None``.

    Keyed on the app *class* (two instances of the same benchmark are
    the same program), the variant, and the parameter digest — which
    covers prebuilt problem arrays, so two tenants asking for the same
    reduced-scale run coalesce while different problem sizes do not.
    """
    params_digest = digest(params)
    if params_digest is None:
        return None
    return (
        "app",
        type(app).__module__,
        type(app).__qualname__,
        variant,
        params_digest,
    )
