"""Every public name the package declares resolves to an object."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pdmpval

MODULES = sorted(m.name for m in pkgutil.iter_modules(pdmpval.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"pdmpval.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    # each name pdmpval/__init__.py imports is the object its module declares
    tree = ast.parse(Path(pdmpval.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imports) > 20
    for module_name, name in imports:
        module = importlib.import_module(f"pdmpval.{module_name}")
        assert getattr(pdmpval, name) is getattr(module, name)
        assert name in getattr(module, "__all__", [name]), f"{module_name}.{name}"
