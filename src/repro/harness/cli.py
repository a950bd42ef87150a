"""``repro-figures``: print every reproduced table and figure.

Usage::

    repro-figures            # Figures 6, 7, 8 and the §4.2 claim check
    repro-figures fig6       # just the benchmark table
    repro-figures fig7       # just the system configuration
    repro-figures fig8       # just the execution-time estimates
    repro-figures bars       # Figure 8 as ASCII bar panels
    repro-figures e2e        # kernel-only vs end-to-end (with transfers)
    repro-figures relations  # just the qualitative-claim check
    repro-figures verify     # functional verification matrix (runs kernels)

Exits 1 when a verification cell or a §4.2 claim fails, 2 on an unknown
section, else 0.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .figures import (
    figure8_relations,
    render_end_to_end,
    render_figure6,
    render_figure7,
    render_figure8,
    render_figure8_bars,
)
from .verification import render_verification, verification_matrix

__all__ = ["main"]


def _relations() -> Tuple[str, int]:
    lines = ["Paper claims (§4.2) vs. the regenerated Figure 8:"]
    failures = 0
    for rel, ok in figure8_relations():
        mark = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        lines.append(f"  {mark}  [{rel.app} / {rel.system}] {rel.claim}")
    lines.append(f"{failures} failure(s)")
    return "\n".join(lines), failures


def _verify() -> Tuple[str, int]:
    cells = verification_matrix()
    return render_verification(cells), sum(1 for c in cells if not c.passed)


def _unchecked(render: Callable[[], str]) -> Callable[[], Tuple[str, int]]:
    return lambda: (render(), 0)


#: Section name -> a renderer returning ``(text, failures)``.
_SECTIONS: Dict[str, Callable[[], Tuple[str, int]]] = {
    "fig6": _unchecked(render_figure6),
    "fig7": _unchecked(render_figure7),
    "fig8": _unchecked(render_figure8),
    "bars": _unchecked(render_figure8_bars),
    "e2e": _unchecked(render_end_to_end),
    "relations": _relations,
    "verify": _verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; returns a process exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    if args and any(a in ("-h", "--help") for a in args):
        print(__doc__)
        return 0
    unknown = [a for a in args if a not in _SECTIONS]
    if unknown:
        print(f"unknown section(s): {unknown}; choose from {sorted(_SECTIONS)}", file=sys.stderr)
        return 2
    sections: List[str] = args or ["fig6", "fig7", "fig8", "relations"]  # verify is opt-in
    out = [_SECTIONS[name]() for name in sections]
    print("\n\n".join(text for text, _ in out))
    return 1 if any(failures for _, failures in out) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
