"""The public names: every export resolves, and the package re-exports only them."""

import importlib
import pkgutil
from pathlib import Path
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


def test_readme_library_example_runs():
    # the README's one example under "## Library" runs as printed, so a
    # stale import or call fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
