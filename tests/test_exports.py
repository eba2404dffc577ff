"""Every exported name resolves, so a deletion cannot leave a stale entry."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import fathartogs


def test_exported_and_package_imported_names_resolve():
    stale = []
    for info in pkgutil.iter_modules(fathartogs.__path__):
        mod = importlib.import_module(f"fathartogs.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                  if not hasattr(mod, name)]
    tree = ast.parse(Path(fathartogs.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"fathartogs.{node.module}")
            stale += [f"{node.module}.{a.name}" for a in node.names
                      if not (hasattr(mod, a.name) and hasattr(fathartogs, a.name))]
    assert not stale, f"exported names that do not resolve: {stale}"


def test_import_does_not_load_scipy():
    # scipy is a test dependency only; importing it would roughly double
    # the start-up time and resident memory of every command
    src = str(Path(fathartogs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, fathartogs, fathartogs.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
