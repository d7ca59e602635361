"""Tests for the package's public surface: every exported name resolves.

Guards deletions against stale exports: a name left in a module's
``__all__`` or in the package's re-exports after its definition is gone
fails here by name, not as an import error elsewhere.  The same holds for
every function the benchmark tracer (``bench/tracing.py``) rebinds.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import forrlab

MODULES = sorted(info.name for info in
                 pkgutil.iter_modules(forrlab.__path__, prefix="forrlab."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(module, n)] == []


def package_imports() -> list[tuple[str, str]]:
    """(submodule, name) for every ``from .sub import name`` in __init__."""
    tree = ast.parse(Path(forrlab.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_imports_resolve():
    pairs = package_imports()
    assert pairs
    for sub, name in pairs:
        module = importlib.import_module(f"forrlab.{sub}")
        assert hasattr(module, name), f"forrlab.{sub}.{name}"
        assert name in getattr(module, "__all__", [name]), (
            f"forrlab re-exports {name}, which forrlab.{sub} does not export")
        assert getattr(forrlab, name) is getattr(module, name)


def traced_layers() -> dict:
    """The ``LAYERS`` table of the benchmark's tracer, read from its source."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])


def test_traced_layers_resolve():
    layers = traced_layers()
    assert layers
    missing = [f"{module}.{name}" for module, names in layers.items()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
