"""The public surface: each module's ``__all__`` resolves, and the package
re-exports only names that their modules export."""

import ast
import importlib
from pathlib import Path

import pytest

import hmingraph

SRC = Path(hmingraph.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def reexports():
    """``(module, name)`` for every ``from .module import name`` in ``__init__``."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"hmingraph.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_reexport_is_in_its_modules_all():
    pairs = reexports()
    assert pairs  # the parser saw the import lists
    stray = [(m, n) for m, n in pairs if n not in importlib.import_module(f"hmingraph.{m}").__all__]
    assert stray == []
    assert all(hasattr(hmingraph, n) for _, n in pairs)
