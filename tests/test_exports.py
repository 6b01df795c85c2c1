"""Every exported name exists, and the package re-exports only names its
modules export."""

import ast
import importlib
from pathlib import Path

import pytest

import polar_derham as pd

MODULES = ["bsplines", "tensor", "extraction", "incidence", "geometry", "torus", "iotools",
           "verification", "cli"]


def _package_imports():
    """{module: names} of the `from .module import ...` lines of the
    package's __init__."""
    tree = ast.parse(Path(pd.__file__).read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.setdefault(node.module, []).extend(a.name for a in node.names)
    return found


def test_the_package_imports_only_from_its_modules():
    assert set(_package_imports()) <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist_and_cover_the_package_names(name):
    module = importlib.import_module(f"polar_derham.{name}")
    assert len(set(module.__all__)) == len(module.__all__), name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"
    public = [n for n in _package_imports().get(name, []) if not n.startswith("_")]
    unexported = sorted(set(public) - set(module.__all__))
    assert not unexported, f"polar_derham re-exports {unexported}, not in {name}.__all__"
