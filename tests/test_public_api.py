"""Every name a module lists in ``__all__`` must exist in that module."""

import importlib
import pkgutil

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
