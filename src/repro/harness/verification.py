"""The functional verification matrix: every app x variant x device.

The paper's benchmarks self-verify (XSBench's checksum is what got its
``omp`` bar excluded).  This module runs the reproduction's equivalent:
each application's reduced functional problem through every source
variant on both device presets, verified against the NumPy reference.
``repro-figures verify`` prints the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..apps import ALL_APPS, VersionLabel
from ..gpu import get_device
from ..openmp.data import data_environment
from .report import render_table

__all__ = ["VerificationCell", "verification_matrix", "render_verification"]


@dataclass(frozen=True)
class VerificationCell:
    """One (app, variant, device) functional verification outcome."""

    app: str
    variant: str
    device: str
    passed: bool
    checksum: float
    error: Optional[str] = None


def verification_matrix() -> List[VerificationCell]:
    """Run and verify every app variant on both devices."""
    cells: List[VerificationCell] = []
    for app_cls in ALL_APPS:
        app = app_cls()
        params = app.functional_params()
        for ordinal, device_name in ((0, "A100"), (1, "MI250")):
            device = get_device(ordinal)
            for variant in app.functional_variants:
                try:
                    result = app.run_single(variant, params, device)
                    passed = app.verify(result, params)
                    cells.append(VerificationCell(
                        app=app.name, variant=variant, device=device_name,
                        passed=passed, checksum=result.checksum,
                    ))
                except Exception as exc:  # noqa: BLE001 - report, don't abort the matrix
                    cells.append(VerificationCell(
                        app=app.name, variant=variant, device=device_name,
                        passed=False, checksum=float("nan"), error=repr(exc),
                    ))
                finally:
                    data_environment(device).reset()
    return cells


def render_verification(cells: Optional[List[VerificationCell]] = None) -> str:
    """The verification matrix as an ASCII table (run now unless ``cells``)."""
    cells = verification_matrix() if cells is None else cells
    rows = []
    for cell in cells:
        status = "ok" if cell.passed else f"FAIL ({cell.error or 'checksum'})"
        rows.append([cell.app, cell.variant, cell.device,
                     f"{cell.checksum:.4f}", status])
    failures = sum(1 for c in cells if not c.passed)
    table = render_table(
        ["benchmark", "variant", "device", "checksum", "verification"],
        rows,
        title="Functional verification matrix (reduced problems, virtual GPU)",
    )
    return f"{table}\n{failures} failure(s) across {len(cells)} cells"
