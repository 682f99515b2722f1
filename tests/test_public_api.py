"""Every name a module lists in ``__all__`` must exist in that module, and no
module imports another package module's private names."""

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
