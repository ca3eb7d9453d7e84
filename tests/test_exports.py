import importlib
import pkgutil

import pytest

import fourierhybrid

MODULES = sorted(info.name for info in pkgutil.iter_modules(fourierhybrid.__path__))


def test_every_module_is_found():
    assert MODULES == [
        "chebfit", "experiments", "filters", "frame", "hybrid", "oracles", "piecewise", "sampling",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a deletion that leaves its name in __all__ breaks `from module import *`
    module = importlib.import_module(f"fourierhybrid.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
