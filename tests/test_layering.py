"""Layering lint: the execution layers never import the serving tier,
and only the backend builder constructs pools.

``repro.serve`` sits on top of the stack — it drives pools, resilience,
clusters and checkpoint journals.  If a lower layer imported it back,
that layer could no longer be used (or reasoned about) without the
serving tier; shared helpers belong in a neutral module instead, as
``repro.digest`` is for the serve coalescing keys and the checkpoint run
identity.  The lint reads every module's import statements from its AST
(relative imports resolved), so a lazy import inside a function counts
too.

Pools are built in one place, ``repro.backend.open_pool``, so the choice
of pool stack and the binding of fault selectors cannot drift between
``run()``, ``KernelService`` and the degraded cluster again; the cluster
worker builds its own local pool inside its process.

The host runtime every front end shares (``repro.gpu.host``) sits below
the vendor spellings: ``repro.gpu``, ``repro.openmp`` and ``repro.ompx``
import neither ``repro.cuda`` nor ``repro.hip``, which build on top.

Engine-facing kernels are built in one place too, ``repro.gpu.kernel``:
no other module attaches a ``with_body`` to a callable or unwraps an
``entry`` adapter, so what a kernel is cannot fork per front end again.
"""

import ast
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages and modules below the serving tier.
LOWER_LAYERS = (
    "gpu", "compiler", "sched", "resilience", "cluster", "ckpt", "backend.py",
)

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
    root = SRC_ROOT / layer
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    assert files, f"no modules found under repro.{layer}"
    offenders = [
        f"{path.relative_to(SRC_ROOT.parent)}:{lineno} imports {names[0]}"
        for path in files
        for lineno, names in _imported_modules(path)
        if any(_imports_serve(name) for name in names)
    ]
    assert not offenders, "\n".join(offenders)


#: Packages below the vendor front ends, and the front ends they must not import.
BELOW_VENDORS = ("gpu", "openmp", "ompx")
VENDOR_FRONT_ENDS = ("repro.cuda", "repro.hip")


def _imports_a_vendor(name: str) -> bool:
    return any(name == v or name.startswith(v + ".") for v in VENDOR_FRONT_ENDS)


@pytest.mark.parametrize("layer", BELOW_VENDORS)
def test_the_shared_layers_do_not_import_the_vendor_front_ends(layer):
    offenders = [
        f"{path.relative_to(SRC_ROOT.parent)}:{lineno} imports {names[0]}"
        for path in sorted((SRC_ROOT / layer).rglob("*.py"))
        for lineno, names in _imported_modules(path)
        if any(_imports_a_vendor(name) for name in names)
    ]
    assert not offenders, "\n".join(offenders)


def test_the_vendor_lint_sees_the_vendor_imports():
    # hip/__init__.py binds CUDA's runtime: ``from ..cuda.runtime import ...``.
    names = {name for _, group in _imported_modules(SRC_ROOT / "hip" / "__init__.py")
             for name in group}
    assert any(_imports_a_vendor(name) for name in names)
    assert not _imports_a_vendor("repro.cudax")


def test_the_lint_resolves_relative_imports():
    assert _imports_serve("repro.serve.coalesce")
    assert not _imports_serve("repro.server")
    # ckpt/session.py imports ``from ..digest import digest`` and
    # ``from ..errors import ...``: both resolve two levels up.
    sample = SRC_ROOT / "ckpt" / "session.py"
    names = {name for _, group in _imported_modules(sample) for name in group}
    assert {"repro.digest", "repro.digest.digest", "repro.errors"} <= names


#: Pool classes only the builder (and a worker, for its own slice) calls.
POOL_CLASSES = ("DevicePool", "ResilientPool", "ClusterPool")

#: The modules allowed to call them.
POOL_BUILDERS = ("repro/backend.py", "repro/cluster/worker.py")


def _pool_constructions(path: Path):
    """Yield ``(lineno, name)`` for each call of a pool class in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            # ``DevicePool(...)`` is a Name call, ``sched.DevicePool(...)``
            # an Attribute call.
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in POOL_CLASSES:
                yield node.lineno, name


def test_only_the_builder_constructs_pools():
    offenders = [
        f"{path.relative_to(SRC_ROOT.parent)}:{lineno} calls {name}("
        for path in sorted(SRC_ROOT.rglob("*.py"))
        if path.relative_to(SRC_ROOT.parent).as_posix() not in POOL_BUILDERS
        for lineno, name in _pool_constructions(path)
    ]
    assert not offenders, "\n".join(offenders)


def test_the_construction_lint_sees_calls():
    sample = SRC_ROOT / "backend.py"
    assert {name for _, name in _pool_constructions(sample)} == set(POOL_CLASSES)


#: The one module that builds engine-facing kernels.
KERNEL_BUILDER = "repro/gpu/kernel.py"


def _kernel_adapters(source: str):
    """Yield ``(lineno, what)`` for each ``with_body`` attribute assigned
    and each ``getattr(..., "entry", ...)`` called in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "with_body"
                and isinstance(node.ctx, ast.Store)):
            yield node.lineno, "assigns .with_body"
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "entry"):
            yield node.lineno, 'calls getattr(..., "entry", ...)'


def test_only_the_kernel_module_builds_engine_facing_kernels():
    offenders = [
        f"{path.relative_to(SRC_ROOT.parent)}:{lineno} {what}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        if path.relative_to(SRC_ROOT.parent).as_posix() != KERNEL_BUILDER
        for lineno, what in _kernel_adapters(path.read_text())
    ]
    assert not offenders, "\n".join(offenders)


def test_the_kernel_lint_sees_adapters():
    sample = 'adapter.with_body = wrap\nentry = getattr(kernel, "entry", kernel)\n'
    assert sorted(_kernel_adapters(sample)) == [
        (1, "assigns .with_body"), (2, 'calls getattr(..., "entry", ...)'),
    ]
    assert not list(_kernel_adapters("wrap = kernel.with_body\n"))
