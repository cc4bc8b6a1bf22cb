"""Import isolation and the lazy package facades.

Every package ``__init__`` (bar ``repro.perf``) resolves its exported
names on first use through :func:`repro._lazy.lazy_exports`.  These
tests check that each module still imports on its own, that the entry
points a sweep, a replay and a serve client start from load none of
the heavy subsystems they do not use, and that every public name still
resolves through ``getattr``, ``from pkg import *`` and ``dir``.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: A child interpreter's environment: ``repro`` imports from this ``src``.
ENV = dict(os.environ, PYTHONPATH=str(SRC))

_WALK = list(pkgutil.walk_packages(repro.__path__, "repro."))

#: Every module of the package, the top level included.
MODULES = ("repro",) + tuple(sorted(info.name for info in _WALK))

#: Every package, the top level included.
PACKAGES = ("repro",) + tuple(sorted(info.name for info in _WALK if info.ispkg))

#: Packages whose ``__init__`` stays eager: importing ``repro.perf`` is
#: what registers ``repro.perf.scenarios`` into the bench registry.
EAGER = ("repro.perf",)

LAZY_PACKAGES = tuple(p for p in PACKAGES if p not in EAGER)


def loaded_after(statement: str) -> set:
    """The ``sys.modules`` names a fresh interpreter holds after ``statement``."""
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=ENV,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def defined_in_init(package: str) -> set:
    """Names the package ``__init__`` binds itself (defs and assignments)."""
    path = Path(importlib.import_module(package).__file__)
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
    return names


@pytest.mark.parametrize("modname", MODULES)
def test_module_imports_on_its_own(modname):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {modname}"],
        capture_output=True,
        text=True,
        env=ENV,
    )
    assert proc.returncode == 0, proc.stderr


def test_bare_import_loads_only_the_facade():
    loaded = {m for m in loaded_after("import repro") if m.startswith("repro")}
    assert loaded == {"repro", "repro._lazy"}


def test_sweep_setup_imports_skip_unused_subsystems():
    loaded = loaded_after(
        "import repro.harness.sweep, repro.harness.figures, repro.store"
    )
    unwanted = {
        "repro.serve",
        "repro.validation",
        "repro.perf",
        "http.server",
        "urllib.request",
        "ssl",
        "email.parser",
        "sqlite3",
    }
    assert not loaded & unwanted


def test_serve_client_does_not_load_the_server():
    loaded = loaded_after("from repro.serve.client import ServeClient")
    assert not loaded & {"repro.serve.http", "repro.serve.service", "http.server"}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_facade_table_covers_all(package):
    pkg = importlib.import_module(package)
    own = defined_in_init(package)
    assert set(pkg._EXPORTS) == set(pkg.__all__) - own
    assert not set(pkg._EXPORTS) & own


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    pkg = importlib.import_module(package)
    star: dict = {}
    exec(f"from {package} import *", star)
    listing = dir(pkg)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        assert star[name] is value, name
        assert name in listing, name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=package):
        getattr(pkg, "no_such_name")


def test_subpackage_attribute_after_bare_import():
    loaded = loaded_after("import repro\nrepro.analysis.md1_wait_ns")
    assert "repro.analysis.queueing" in loaded
