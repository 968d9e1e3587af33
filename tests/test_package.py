import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dicke_ed

MODULES = ["dicke_ed"] + [f"dicke_ed.{m.name}" for m in pkgutil.iter_modules(dicke_ed.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_no_scipy_linalg_import(module):
    """The solve needs only the LAPACK extension that eigen loads by file; no
    module imports the scipy.linalg package, not even lazily inside a function
    (docstrings may still name it)."""
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    assert not [name for name in imported if name.split(".")[:2] == ["scipy", "linalg"]]
