import importlib
import pkgutil
import re
import types
from pathlib import Path

import numpy as np
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


ROOT = Path(__file__).resolve().parent.parent
# a backticked dotted name or private name; a token ending in a file
# extension (`frame.py`, `summary.csv`) names a file, not an attribute
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")
PRIVATE = re.compile(r"`(_\w+)`")
FILE_SUFFIXES = {"py", "csv", "svg", "json", "md", "toml", "txt"}


def resolve(dotted: str) -> bool:
    """Whether the dotted name resolves: its root is np, a package module, a
    name one of them defines, or an importable module; each later part an
    attribute, a submodule or a dataclass field."""
    root, *parts = dotted.split(".")
    modules = [importlib.import_module(f"fourierhybrid.{name}") for name in MODULES]
    if root == "np":
        obj = np
    elif root in MODULES:
        obj = importlib.import_module(f"fourierhybrid.{root}")
    elif any(hasattr(module, root) for module in modules):
        obj = next(getattr(module, root) for module in modules if hasattr(module, root))
    else:
        try:
            obj = importlib.import_module(root)
        except ImportError:
            return False
    for part in parts:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif isinstance(obj, types.ModuleType):
            try:
                obj = importlib.import_module(f"{obj.__name__}.{part}")
            except ImportError:
                return False
        else:
            # a dataclass field without a class-level default
            return part in getattr(obj, "__dataclass_fields__", {})
    return True


def stale_names(text: str) -> list[str]:
    """The backticked dotted and private names in text that do not resolve;
    a private name resolves when some package module defines it."""
    dotted = {name for name in DOTTED.findall(text)
              if name.rsplit(".", 1)[1] not in FILE_SUFFIXES}
    stale = [name for name in sorted(dotted) if not resolve(name)]
    return stale + [name for name in sorted(set(PRIVATE.findall(text)))
                    if not any(resolve(f"{module}.{name}") for module in MODULES)]


def test_readme_names_resolve():
    # a rename or deletion that leaves a backticked name behind in the README
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert DOTTED.search(text) and PRIVATE.search(text)
    assert stale_names(text) == []
