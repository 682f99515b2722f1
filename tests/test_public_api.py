"""Every name a module lists in ``__all__`` must exist in that module, no
module imports another package module's private names, every name a
module imports from the package is used there or exported, and only
``artifacts`` writes a file."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import carleman_lab

MODULES = ["carleman_lab"] + sorted(
    f"carleman_lab.{info.name}" for info in pkgutil.iter_modules(carleman_lab.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("carleman_lab")
        ):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    yield f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"


def test_no_module_imports_a_private_name_of_another():
    package = Path(carleman_lab.__file__).parent
    found = [line for path in sorted(package.glob("*.py")) for line in _private_imports(path)]
    assert found == []


# imported only so that perfbench/traced_cli.py can hook them by these names;
# the benchmark reading the CLI's own run record would let them go
HELD_FOR_THE_TRACER = {
    "cli.build_d",
    "cli.lateral_reconstruct",
    "reconstruct.compute_data_functional",
    "verifier.discrete_norm",
}


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        item.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for item in node.value.elts
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("carleman_lab")
        ):
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in used and name not in exported:
                    yield f"{path.stem}.{name}"


def test_every_name_imported_from_the_package_is_used_or_exported():
    package = Path(carleman_lab.__file__).parent
    found = {name for path in sorted(package.glob("*.py")) for name in _unused_imports(path)}
    assert found == HELD_FOR_THE_TRACER


def _may_write(mode: ast.expr) -> bool:
    """A mode argument that is no string literal, or one that opens for writing."""
    literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
    return not literal or bool(set(mode.value) & set("wax+"))


def _writes(path: Path):
    """Each call in ``path`` that opens a file for writing or writes one whole, as file:line."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            at = 1 if isinstance(func, ast.Name) else 0  # open(file, mode) or path.open(mode)
            modes = node.args[at : at + 1] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            writes = any(map(_may_write, modes))
        else:
            on_numpy = getattr(getattr(func, "value", None), "id", None) in ("np", "numpy")
            writes = name in ("write_text", "write_bytes") or on_numpy and name.startswith("save")
        if writes:
            yield f"{path.name}:{node.lineno}"


def test_only_the_artifacts_module_writes_a_file():
    package = Path(carleman_lab.__file__).parent
    modules = [path for path in sorted(package.glob("*.py")) if path.stem != "artifacts"]
    assert [line for path in modules for line in _writes(path)] == []
