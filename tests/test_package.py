import importlib
import pkgutil

import pytest

import dicke_ed

MODULES = ["dicke_ed"] + [f"dicke_ed.{m.name}" for m in pkgutil.iter_modules(dicke_ed.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
