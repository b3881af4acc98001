"""Public surface: every exported name resolves, and runtime imports stay
within the declared dependencies."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import fasdep


def test_star_import_resolves_all():
    """`from fasdep.<mod> import *` for every module and the package.

    A stale __all__ entry fails only on a star import, not on plain import.
    """
    modules = ["fasdep"] + [f"fasdep.{m.name}"
                            for m in pkgutil.iter_modules(fasdep.__path__)]
    for module in modules:
        namespace = {}
        exec(f"from {module} import *", namespace)
        exported = getattr(importlib.import_module(module), "__all__", ())
        assert set(exported) <= set(namespace), module


def test_runtime_imports_are_stdlib_or_numpy():
    """Every module of the package imports only the stdlib, numpy or itself.

    pyproject.toml declares numpy as the one runtime dependency; scipy and
    mpmath are test-only oracles.
    """
    allowed = set(sys.stdlib_module_names) | {"numpy", "fasdep"}
    for path in sorted(Path(fasdep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}: {name}"
