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


def _raised_names() -> set[str]:
    """Names of the classes that some ``raise Name(...)`` in the package makes."""
    names = set()
    for path in Path(fathartogs.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return names


def test_exported_errors_reach_the_report_and_are_raised():
    # cli.main turns ValueError and ArithmeticError into exit 2 with a
    # report; an exported error outside both would escape as a traceback,
    # and one that nothing raises is dead surface
    raised = _raised_names()
    unreported, unraised = [], []
    for info in pkgutil.iter_modules(fathartogs.__path__):
        mod = importlib.import_module(f"fathartogs.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if not (isinstance(obj, type) and issubclass(obj, BaseException)) \
                    or issubclass(obj, Warning):
                continue
            if not issubclass(obj, (ValueError, ArithmeticError)):
                unreported.append(f"{info.name}.{name}")
            if name not in raised:
                unraised.append(f"{info.name}.{name}")
    assert not unreported, f"errors main does not report: {unreported}"
    assert not unraised, f"errors nothing raises: {unraised}"
