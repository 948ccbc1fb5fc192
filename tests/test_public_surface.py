"""The public surface resolves.

Nothing star-imports the package's modules, so a stale ``__all__`` entry
left by a deletion would fail nothing else.  Every name in a module's
``__all__`` must exist, every class or function there must be defined in that
module (a name has one public home), and every name ``mpfc/__init__``
re-exports must be in the ``__all__`` of the module it comes from.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import mpfc

MODULES = sorted(info.name for info in pkgutil.iter_modules(mpfc.__path__))


def reexports():
    """(module, name) for every ``from .module import name`` in ``mpfc/__init__``."""
    tree = ast.parse(Path(mpfc.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_names_exist():
    missing = []
    for module_name in MODULES:
        module = importlib.import_module(f"mpfc.{module_name}")
        missing += [
            f"mpfc.{module_name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not missing


def test_all_names_are_defined_in_their_module():
    borrowed = []
    for module_name in MODULES:
        module = importlib.import_module(f"mpfc.{module_name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != module.__name__:
                borrowed.append(f"mpfc.{module_name}.{name}")
    assert not borrowed


def test_reexports_are_public_in_their_modules():
    pairs = reexports()
    assert pairs
    stray = []
    for module_name, name in pairs:
        module = importlib.import_module(f"mpfc.{module_name}")
        if name not in getattr(module, "__all__", ()) or getattr(mpfc, name) is not getattr(module, name):
            stray.append(f"mpfc.{module_name}.{name}")
    assert not stray
