"""Every exported name resolves, so a deletion cannot leave a stale entry."""

import ast
import importlib
import pkgutil
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
