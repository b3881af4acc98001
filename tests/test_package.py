"""Public surface: every exported name resolves."""

import importlib
import pkgutil

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
