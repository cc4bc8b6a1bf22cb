"""Lazy package facades: a re-exported name is imported on first use.

Each package ``__init__`` under ``repro`` re-exports names that its
modules define.  Importing those modules up front would make every
``import repro.<anything>`` load the whole package -- the HTTP server,
``sqlite3``, the validation suite -- before a sweep runs its first
simulation.  Instead each facade keeps its ``__all__``, hands a
``{public name: defining module}`` table to :func:`lazy_exports`, and
installs the PEP 562 module ``__getattr__`` and ``__dir__`` it returns,
so a package costs nothing to import until one of its names is used.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a lazy facade.

    ``__getattr__(name)`` imports ``exports[name]``, stores the value
    in the package namespace, so later reads never reach the hook, and
    returns it.  A name outside the table that names a submodule
    (``repro.analysis`` after ``import repro``) imports and returns
    that submodule; any other name raises ``AttributeError`` naming the
    package.  ``__dir__()`` lists the namespace plus every ``__all__``
    name, whether or not it has been loaded yet.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *namespace["__all__"]})

    return __getattr__, __dir__
