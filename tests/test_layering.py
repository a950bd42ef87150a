"""Layering lint: the execution layers never import the serving tier.

``repro.serve`` sits on top of the stack — it drives pools, resilience,
clusters and checkpoint journals.  If a lower layer imported it back,
that layer could no longer be used (or reasoned about) without the
serving tier; shared helpers belong in a neutral module instead, as
``repro.digest`` is for the serve coalescing keys and the checkpoint run
identity.  The lint reads every module's import statements from its AST
(relative imports resolved), so a lazy import inside a function counts
too.
"""

import ast
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages below the serving tier.
LOWER_LAYERS = ("gpu", "compiler", "sched", "resilience", "cluster", "ckpt")

FORBIDDEN = "repro.serve"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(path: Path):
    """Yield ``(lineno, names)`` per import statement in ``path``.

    ``names`` are absolute module names: the imported module, plus each
    imported name under it (``from .. import serve`` imports a package
    as an attribute).
    """
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                base = package.split(".")[: len(package.split(".")) - (node.level - 1)]
                target = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, [target] + [f"{target}.{a.name}" for a in node.names]


def _imports_serve(name: str) -> bool:
    return name == FORBIDDEN or name.startswith(FORBIDDEN + ".")


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_lower_layers_do_not_import_the_serving_tier(layer):
    files = sorted((SRC_ROOT / layer).rglob("*.py"))
    assert files, f"no modules found under repro.{layer}"
    offenders = [
        f"{path.relative_to(SRC_ROOT.parent)}:{lineno} imports {names[0]}"
        for path in files
        for lineno, names in _imported_modules(path)
        if any(_imports_serve(name) for name in names)
    ]
    assert not offenders, "\n".join(offenders)


def test_the_lint_resolves_relative_imports():
    assert _imports_serve("repro.serve.coalesce")
    assert not _imports_serve("repro.server")
    # ckpt/session.py imports ``from ..digest import digest`` and
    # ``from ..errors import ...``: both resolve two levels up.
    sample = SRC_ROOT / "ckpt" / "session.py"
    names = {name for _, group in _imported_modules(sample) for name in group}
    assert {"repro.digest", "repro.digest.digest", "repro.errors"} <= names
