"""Quantifying the porting effort — the paper's headline usability claim.

The abstract promises "seamless porting ... with minimal modifications"
and §1 says porting often reduces "to text replacement".  This module
turns that into a measurement with a precise definition:

* **changed lines** — source lines that differ between a CUDA kernel and
  its ompx port (after canonicalization);
* **mechanical lines** — changed lines that the *automated* rule-table
  port (:func:`repro.port.port_kernel_source`) produces verbatim.  A port
  is "text replacement" exactly when every change is mechanical — the
  rewriter alone recreates the hand-written ompx kernel.

Canonicalization renames the façade parameter (CUDA kernels say ``t``,
ompx kernels say ``x`` by convention — a pure naming choice) and
re-serializes through ``ast.unparse`` so formatting differences vanish.

The evaluation harness reports these numbers for all six applications —
the reproduction's version of the paper's implicit porting-effort story.
"""

from __future__ import annotations

import ast
import difflib
from dataclasses import dataclass
from typing import Callable, List

from ..errors import PortError
from ..gpu.kernel import kernel_name
from .translate import _kernel_source, port_kernel_source

__all__ = ["PortEffort", "measure_port_effort"]

_FACADE_PLACEHOLDER = "_thread"
_NAME_PLACEHOLDER = "_kernel"


@dataclass(frozen=True)
class PortEffort:
    """How far apart a CUDA kernel and its ompx port are, textually."""

    kernel_name: str
    total_lines: int
    changed_lines: int
    #: Changed lines the automated rule-table port reproduces exactly.
    mechanical_lines: int

    @property
    def changed_fraction(self) -> float:
        """Share of source lines the port touched at all."""
        return self.changed_lines / max(self.total_lines, 1)

    @property
    def mechanical_fraction(self) -> float:
        """Share of the *changed* lines that are pure spelling swaps."""
        if self.changed_lines == 0:
            return 1.0
        return self.mechanical_lines / self.changed_lines

    @property
    def is_text_replacement(self) -> bool:
        """The paper's claim, as a predicate: every change is mechanical."""
        return self.mechanical_lines == self.changed_lines


class _Canonicalizer(ast.NodeTransformer):
    """Rename the façade parameter and the function itself."""

    def __init__(self, facade: str) -> None:
        self.facade = facade

    def visit_FunctionDef(self, node: ast.FunctionDef):  # noqa: N802
        """Normalize the name, drop decorators and the docstring, recurse."""
        node.name = _NAME_PLACEHOLDER
        node.decorator_list = []
        if node.args.args:
            node.args.args[0].arg = _FACADE_PLACEHOLDER
        if (
            node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)
        ):
            node.body = node.body[1:] or [ast.Pass()]
        self.generic_visit(node)
        return node

    def visit_Name(self, node: ast.Name):  # noqa: N802
        """Rewrite references to the façade parameter."""
        if node.id == self.facade:
            node.id = _FACADE_PLACEHOLDER
        return node


def _canonical_lines(source: str) -> List[str]:
    tree = ast.parse(source)
    func = next((n for n in tree.body if isinstance(n, ast.FunctionDef)), None)
    if func is None:
        raise PortError("no function definition found in kernel source")
    if not func.args.args:
        raise PortError("a kernel needs at least the façade parameter")
    facade = func.args.args[0].arg
    _Canonicalizer(facade).visit(tree)
    ast.fix_missing_locations(tree)
    return ast.unparse(tree).splitlines()


def _diff_line_count(a: List[str], b: List[str]) -> int:
    matcher = difflib.SequenceMatcher(a=a, b=b, autojunk=False)
    changed = 0
    for tag, a0, a1, b0, b1 in matcher.get_opcodes():
        if tag != "equal":
            changed += max(a1 - a0, b1 - b0)
    return changed


def measure_port_effort(cuda_kernel: Callable, ompx_kernel: Callable) -> PortEffort:
    """Measure the textual distance between a kernel and its ompx port.

    ``changed_lines`` is the line diff between the canonicalized sources;
    ``mechanical_lines`` credits every change the automated port also
    makes, i.e. ``changed - diff(auto_port, hand_port)``.
    """
    cuda_lines = _canonical_lines(_kernel_source(cuda_kernel))
    ompx_lines = _canonical_lines(_kernel_source(ompx_kernel))
    ported_lines = _canonical_lines(port_kernel_source(cuda_kernel))

    changed = _diff_line_count(cuda_lines, ompx_lines)
    residual = _diff_line_count(ported_lines, ompx_lines)
    return PortEffort(
        kernel_name=kernel_name(cuda_kernel),
        total_lines=max(len(cuda_lines), len(ompx_lines)),
        changed_lines=changed,
        mechanical_lines=max(0, changed - residual),
    )
