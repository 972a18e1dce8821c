"""The public surface: every exported name resolves to a live object.

Each module's `__all__` must name only attributes the module has, so a
star import succeeds, and every name the package re-exports must be in its
defining module's `__all__`.  Deleting a function without its exports, or
re-exporting a name a module does not declare, fails here.  Importing the
package must load no third-party module but numpy, and the tests' scalar
reference (`tests/reference.py`) must import nothing from the package.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_import_loads_only_stdlib_and_numpy():
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import twotier_ee\n"
             "added = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
             "print(' '.join(sorted(added - set(sys.stdlib_module_names))))\n")
    src = str(Path(twotier_ee.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert set(proc.stdout.split()) <= {"numpy", "twotier_ee"}


def test_reference_imports_nothing_from_the_package():
    # the reference is the oracle of the bit-exact tests; it must not call the code it checks
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert "numpy" in imported
    assert [name for name in imported
            if name.startswith(".") or name.partition(".")[0] == "twotier_ee"] == []
