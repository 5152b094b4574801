"""Every public name the package declares resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import osev

MODULES = sorted(m.name for m in pkgutil.iter_modules(osev.__path__) if m.name != "__main__")


def test_every_module_is_listed():
    assert "nn" in MODULES and "runner" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_each_name_in_all_resolves(name):
    module = importlib.import_module(f"osev.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"osev.{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_each_name_the_package_imports_resolves():
    tree = ast.parse(Path(osev.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"osev.{module}"), name), f"osev.{module}.{name}"
        assert hasattr(osev, name), name
