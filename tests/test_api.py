"""The public surface: every exported name resolves to a live object.

Each module's `__all__` must name only attributes the module has, so a
star import succeeds, and every name the package re-exports must be in its
defining module's `__all__`.  Deleting a function without its exports, or
re-exporting a name a module does not declare, fails here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import twotier_ee

MODULES = sorted(m.name for m in pkgutil.iter_modules(twotier_ee.__path__)
                 if m.name != "__main__")


def test_every_module_is_covered():
    assert {"config", "topology", "linklevel", "egt", "replicator", "baselines",
            "harness", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(f"twotier_ee.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from twotier_ee.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_reexports_are_declared_by_their_module():
    tree = ast.parse(Path(twotier_ee.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    undeclared = [f"{module}.{name}" for module, name in reexports
                  if name not in importlib.import_module(f"twotier_ee.{module}").__all__]
    assert undeclared == []
