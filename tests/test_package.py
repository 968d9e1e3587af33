import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dicke_ed

MODULES = ["dicke_ed"] + [f"dicke_ed.{m.name}" for m in pkgutil.iter_modules(dicke_ed.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _imported(module) -> list:
    """Every module name an import statement of ``module`` names, also lazily
    inside a function, and ``numpy.random`` for each ``np.random`` or
    ``numpy.random`` attribute it reads."""
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            imported.append("numpy.random")
    return imported


@pytest.mark.parametrize("module", MODULES)
def test_no_scipy_linalg_import(module):
    """The solve needs only the LAPACK extension that eigen loads by file; no
    module imports the scipy.linalg package, not even lazily inside a function
    (docstrings may still name it)."""
    assert not [name for name in _imported(module) if name.split(".")[:2] == ["scipy", "linalg"]]


@pytest.mark.parametrize("module", MODULES)
def test_no_numpy_random_import(module):
    """The cold start is deterministic without a random generator: no module
    imports numpy.random or reads it off numpy."""
    assert not [name for name in _imported(module) if name.split(".")[:2] == ["numpy", "random"]]


@pytest.mark.parametrize("module", MODULES)
def test_no_hashlib_import(module):
    """The store's digests come from the builtin BLAKE2b: no module imports
    hashlib, which loads OpenSSL, or OpenSSL's own modules."""
    assert not [name for name in _imported(module)
                if name.split(".")[0] in ("hashlib", "_hashlib", "ssl")]


RANDOM_FREE = """
import json, sys
from dicke_ed import cli
codes = [cli.main(argv + ["--workers", "1", "--out-dir", sys.argv[1]]) for argv in (
    ["solve", "--n-atoms", "64"],
    ["compare", "--n-atoms", "16", "--lambdas", "0.5", "--cases", "dfs:20"],
    ["scaling", "--observable", "energy", "--D", "1", "--N", "16..128"])]
loaded = sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"])
sys.stderr.write(json.dumps({"codes": codes, "loaded": loaded}) + "\\n")
"""


def test_cold_runs_never_load_numpy_random(tmp_path):
    """A fresh interpreter that imports the CLI and runs a cold solve, a
    compare cell and a scaling sweep has not loaded numpy.random."""
    src = str(Path(dicke_ed.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", RANDOM_FREE, str(tmp_path / "store")],
                          env=env, capture_output=True, text=True, timeout=120)
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report == {"codes": [0, 0, 0], "loaded": []}
