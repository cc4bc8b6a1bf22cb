"""Generic decorator-based plugin registry for named components.

Five string-keyed component namespaces drive the simulator -- topology
builders, mechanism factories, management policies, workload profiles,
and address mappings.  Historically each kept its own dict plus its own
hand-rolled validation and "unknown name" error message; this module
gives them one shared implementation:

* **decorator registration**: ``@REGISTRY.register("name")`` at the
  definition site, so adding a component is one decorator away and the
  listing can never drift from the implementations;
* **aliases and canonicalization**: ``ROO+VWL`` resolves to ``VWL+ROO``,
  ``fp`` to ``FP`` -- every alias maps onto one canonical name so cache
  keys and display stay stable;
* **uniform errors**: every lookup failure raises
  ``unknown <kind> <name>; choose from [...]`` with a registry-specific
  exception class (preserving each namespace's historical exception
  contract, e.g. ``TopologyError`` for topologies and ``KeyError`` for
  workloads);
* **introspection**: ``names()`` / ``items()`` / mapping protocol feed
  ``repro-mnet list`` and the CLI ``choices=`` lists from one source of
  truth.

A :class:`Registry` behaves like a read-only mapping of *canonical*
names to registered objects: ``sorted(registry)``, ``name in registry``,
``registry[name]`` and ``len(registry)`` all work, so existing code
holding a plain dict (``TOPOLOGY_BUILDERS``) keeps working when handed
the registry itself.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

__all__ = ["Registry", "RegistryError"]

T = TypeVar("T")


class RegistryError(ValueError):
    """Raised for registration mistakes (duplicate or malformed names).

    Lookup failures raise the registry's configured ``error_cls``
    instead; this class covers programming errors at definition time.
    """


class Registry(Generic[T]):
    """A named, ordered mapping of component names to implementations.

    Parameters
    ----------
    kind:
        Human-readable singular noun used in error messages and CLI
        headings (``"topology"``, ``"mechanism"``, ...).
    error_cls:
        Exception class raised on unknown-name lookups.  Defaults to
        ``ValueError``; pass ``KeyError`` or a domain error type to
        preserve an existing exception contract.
    canonicalize:
        Optional name normalizer applied to every registered and looked
        up name *before* alias resolution (e.g. ``str.upper`` for
        mechanisms, so ``"fp"`` and ``"FP"`` are the same entry).  It
        must be idempotent: registered names are stored normalized, and
        :meth:`canonical` returns one of them unchanged without
        normalizing it again.
    """

    def __init__(
        self,
        kind: str,
        *,
        error_cls: Type[Exception] = ValueError,
        canonicalize: Optional[Callable[[str], str]] = None,
    ) -> None:
        self.kind = kind
        self.error_cls = error_cls
        self._canonicalize = canonicalize
        #: canonical name -> object, in registration order.
        self._objects: Dict[str, T] = {}
        #: alias (post-canonicalization) -> canonical name.
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self, name: str, *, aliases: Tuple[str, ...] = ()
    ) -> Callable[[T], T]:
        """Decorator registering the decorated object under ``name``.

        ``aliases`` are alternative spellings resolving to ``name``;
        they never appear in :meth:`names` but are accepted by every
        lookup.  Returns the object unchanged.
        """

        def deco(obj: T) -> T:
            self.add(name, obj, aliases=aliases)
            return obj

        return deco

    def add(self, name: str, obj: T, aliases: Tuple[str, ...] = ()) -> None:
        """Imperative registration (for objects built in a loop)."""
        key = self._norm(name)
        if key in self._objects or key in self._aliases:
            raise RegistryError(f"duplicate {self.kind} name {name!r}")
        self._objects[key] = obj
        for alias in aliases:
            akey = self._norm(alias)
            if akey in self._objects or akey in self._aliases:
                raise RegistryError(
                    f"duplicate {self.kind} alias {alias!r}"
                )
            self._aliases[akey] = key

    def _norm(self, name: str) -> str:
        return self._canonicalize(name) if self._canonicalize else name

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def canonical(self, name: str) -> str:
        """Resolve ``name`` (or an alias) to its canonical spelling.

        Raises the registry's ``error_cls`` with the uniform
        ``unknown <kind> <name>; choose from [...]`` message when the
        name is not registered.
        """
        # An exact canonical name skips normalizing; anything that is
        # not a plain str takes the path below and keeps its errors.
        if type(name) is str and name in self._objects:
            return name
        key = self._norm(name)
        if key in self._objects:
            return key
        if key in self._aliases:
            return self._aliases[key]
        raise self.error_cls(
            f"unknown {self.kind} {name!r}; choose from {self.names_sorted()}"
        )

    def get(self, name: str) -> T:
        """The object registered under ``name`` (aliases accepted)."""
        return self._objects[self.canonical(name)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        """Canonical names in registration order."""
        return tuple(self._objects)

    def names_sorted(self) -> List[str]:
        """Canonical names, sorted (for error messages / CLI choices)."""
        return sorted(self._objects)

    def aliases(self) -> Dict[str, str]:
        """``{alias: canonical}`` for every registered alias."""
        return dict(self._aliases)

    def items(self) -> Iterator[Tuple[str, T]]:
        """(canonical name, object) pairs in registration order."""
        return iter(self._objects.items())

    def values(self) -> Iterator[T]:
        """Registered objects in registration order."""
        return iter(self._objects.values())

    def keys(self) -> Iterator[str]:
        """Canonical names in registration order (mapping protocol)."""
        return iter(self._objects)

    # Mapping protocol: lets a Registry stand in for the plain dicts it
    # replaced (``sorted(REG)``, ``REG[name]``, ``name in REG``).
    def __getitem__(self, name: str) -> T:
        return self.get(name)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        key = self._norm(name)
        return key in self._objects or key in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, names={list(self._objects)})"
