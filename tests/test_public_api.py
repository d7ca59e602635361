"""Tests for the package's public surface: every exported name resolves.

Guards deletions against stale exports: a name left in a module's
``__all__`` or in the package's re-exports after its definition is gone
fails here by name, not as an import error elsewhere.  The same holds for
every function the benchmark tracer (``bench/tracing.py``) rebinds and
every name the README's Layout table lists for a library module.
Importing the package sets one environment default for OpenBLAS, and no
other variable.
"""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
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


@pytest.mark.parametrize("name", ["forrlab.boolean_fourier",
                                  "forrlab.forrelation_dist",
                                  "forrlab.quantum_sim", "forrlab.protocol"])
def test_readme_layout_names_resolve(name):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [line for line in readme.read_text().splitlines()
            if line.startswith(f"| `{name}` |")]
    assert len(rows) == 1, f"one Layout row for {name}"
    listed = re.findall(r"`([^`]+)`", rows[0].split("|")[2])
    assert listed
    module = importlib.import_module(name)
    assert [n for n in listed if not hasattr(module, n)] == []


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


@pytest.mark.parametrize("preset, seen", [(None, "4"), ("30", "30")])
def test_import_sets_openblas_thread_timeout_before_numpy(preset, seen):
    # OpenBLAS reads the variable when numpy loads it, so record it when the
    # import system first looks numpy up.
    probe = textwrap.dedent("""
        import json, os, sys
        assert "numpy" not in sys.modules
        before = dict(os.environ)
        seen = []
        class Probe:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        sys.meta_path.insert(0, Probe())
        import forrlab
        changed = sorted(key for key in {*before, *os.environ}
                         if before.get(key) != os.environ.get(key))
        print(json.dumps([seen, changed]))
        """)
    # A small environment of the parent's: importing forrlab here already
    # set whatever the import sets, and a key it set would not show as set.
    src = Path(forrlab.__file__).resolve().parents[1]
    env = {key: os.environ[key] for key in ("PATH", "HOME", "LD_LIBRARY_PATH",
                                            "SYSTEMROOT") if key in os.environ}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    changed = [] if preset else ["OPENBLAS_THREAD_TIMEOUT"]
    assert json.loads(out.stdout) == [[seen], changed]
