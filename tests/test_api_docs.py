"""Public-API docstring coverage.

Every name listed in a module's ``__all__`` -- the top-level package,
each subpackage and every module inside them -- is public, so it must
carry a docstring, as must the public methods and properties of every
exported class. The module list is discovered, so a new module is
checked without being added here. CI runs this file with the rest of
the unit suite, so an undocumented export fails the build.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

#: Every module of the package, the top level included.
PUBLIC_MODULES = ("repro",) + tuple(
    sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))
)


def _public_members(cls: type):
    """Public methods/properties defined directly on ``cls`` (no dunders,
    no inherited members, no dataclass-generated fields)."""
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        fn = member
        if isinstance(fn, property):
            fn = fn.fget
        if isinstance(fn, (classmethod, staticmethod)):
            fn = fn.__func__
        if inspect.isfunction(fn):
            yield name, fn


@pytest.mark.parametrize("modname", PUBLIC_MODULES)
def test_module_has_docstring_and_all(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__ and mod.__doc__.strip(), f"{modname} has no docstring"
    assert getattr(mod, "__all__", None), f"{modname} declares no __all__"


@pytest.mark.parametrize("modname", PUBLIC_MODULES)
def test_exports_resolve_and_are_documented(modname):
    mod = importlib.import_module(modname)
    missing = []
    for name in mod.__all__:
        if name == "__version__":
            continue
        assert hasattr(mod, name), f"{modname}.__all__ lists unresolvable {name!r}"
        obj = getattr(mod, name)
        # Constants and pre-built instances (WORKLOAD_NAMES,
        # DEFAULT_POWER_MODEL, ...) carry their documentation on the
        # defining class or module instead.
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if not getattr(obj, "__module__", "").startswith("repro"):
            continue
        if not inspect.getdoc(obj):
            missing.append(f"{modname}.{name}")
    assert not missing, f"exported names without docstrings: {missing}"


@pytest.mark.parametrize("modname", PUBLIC_MODULES)
def test_exported_class_members_are_documented(modname):
    mod = importlib.import_module(modname)
    missing = []
    for name in mod.__all__:
        obj = getattr(mod, name, None)
        if not inspect.isclass(obj):
            continue
        if not getattr(obj, "__module__", "").startswith("repro"):
            continue
        for mname, fn in _public_members(obj):
            if not inspect.getdoc(fn):
                missing.append(f"{modname}.{name}.{mname}")
    assert not missing, f"public members without docstrings: {missing}"
