"""The public names: every export resolves, and the package re-exports only them."""

import importlib
import pkgutil
from types import ModuleType

import altcurves

MODULES = [importlib.import_module(f"altcurves.{m.name}")
           for m in pkgutil.iter_modules(altcurves.__path__)]


def _exports(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return names


def test_module_exports_resolve():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_exports_come_from_module_exports():
    for name, obj in vars(altcurves).items():
        if name.startswith("_") or isinstance(obj, ModuleType):
            continue
        homes = [m.__name__ for m in MODULES
                 if name in _exports(m) and getattr(m, name) is obj]
        assert homes, f"altcurves.{name} is not exported by any module"
