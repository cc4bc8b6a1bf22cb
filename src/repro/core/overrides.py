"""Scenario overrides: per-link mechanism assignment specs.

The paper evaluates every network with one homogeneous I/O mechanism,
but its own depth-resolved data (Figure 13 link-hours, Figure 9
utilizations) shows links near the processor behave nothing like links
near the leaves.  ``ExperimentConfig.mechanism_overrides`` lets a
scenario express that heterogeneity as a compact spec string::

    depth>=3:ROO+VWL,link:m2-up:FP

Grammar (whitespace around tokens is ignored)::

    spec      = clause ("," clause)*
    clause    = selector ":" MECH
    selector  = "depth" OP INT          # OP in  >=  <=  ==  <  >  (or "=")
              | "link:m" INT "-up"      # module INT's response link
              | "link:m" INT "-down"    # request link into module INT
              | "link:m" INT            # both connectivity links of INT
    MECH      = any registered mechanism name or alias (FP, VWL, ROO,
                DVFS, VWL+ROO, ROO+VWL, DVFS+ROO, ROO+DVFS)

A link's *depth* is the hop distance of the module whose connectivity
link it is (root modules sit at depth 1).  ``-up`` is the response link
carrying read data toward the processor; ``-down`` is the request link
into the module.  Clauses are applied in order and **the last matching
clause wins**, so broad depth bands can be layered and then pinned with
targeted per-link exceptions.

Specs are canonicalized (case, spacing, mechanism aliases) by
:func:`canonical_override_spec` so that equivalent spellings produce
identical :meth:`ExperimentConfig.cache_key` values.  The empty spec
canonicalizes to ``""`` and resolves to no overrides at all, keeping
homogeneous configs bit-identical to their pre-override form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.mechanisms import (
    MechanismConfig,
    canonical_mechanism,
    make_mechanism,
)
from repro.network.topology import Topology

__all__ = [
    "OverrideError",
    "OverrideClause",
    "LinkMechanism",
    "parse_mechanism_overrides",
    "canonical_override_spec",
    "resolve_link_mechanisms",
]


class OverrideError(ValueError):
    """Raised for malformed or unsatisfiable mechanism-override specs."""


#: Depth comparison operators, longest first so ``>=`` wins over ``>``.
_DEPTH_OPS: Tuple[str, ...] = (">=", "<=", "==", "<", ">")

_DEPTH_RE = re.compile(r"^depth\s*(>=|<=|==|=|<|>)\s*(\d+)$")
_LINK_RE = re.compile(r"^link\s*:\s*m(\d+)(?:-(up|down))?$")


@dataclass(frozen=True)
class OverrideClause:
    """One parsed ``selector:MECH`` clause.

    ``kind`` is ``"depth"`` or ``"link"``.  For depth clauses ``op`` and
    ``value`` hold the comparison; for link clauses ``value`` is the
    module id and ``direction`` is ``"up"``, ``"down"`` or ``""`` (both).
    ``mechanism`` is always the canonical mechanism name.
    """

    kind: str
    mechanism: str
    op: str = ""
    value: int = 0
    direction: str = ""

    def matches(self, module: int, depth: int, direction: str) -> bool:
        """Whether this clause selects the given connectivity link."""
        if self.kind == "depth":
            return {
                ">=": depth >= self.value,
                "<=": depth <= self.value,
                "==": depth == self.value,
                "<": depth < self.value,
                ">": depth > self.value,
            }[self.op]
        return module == self.value and self.direction in ("", direction)

    def selector_text(self) -> str:
        """Canonical selector spelling of this clause."""
        if self.kind == "depth":
            return f"depth{self.op}{self.value}"
        suffix = f"-{self.direction}" if self.direction else ""
        return f"link:m{self.value}{suffix}"

    def text(self) -> str:
        """Canonical ``selector:MECH`` spelling of this clause."""
        return f"{self.selector_text()}:{self.mechanism}"


@dataclass(frozen=True)
class LinkMechanism:
    """The resolved mechanism assignment for one unidirectional link.

    ``direction`` is ``"up"`` (response toward the processor) or
    ``"down"`` (request into the module); ``source`` records the clause
    text that produced the assignment, for introspection and tracing.
    """

    link_name: str
    module: int
    direction: str
    depth: int
    mechanism: MechanismConfig
    source: str


def parse_mechanism_overrides(spec: str) -> Tuple[OverrideClause, ...]:
    """Parse an override spec into clauses (empty tuple for ``""``).

    Raises :class:`OverrideError` (a ``ValueError``) on syntax errors or
    unknown mechanism names; validation against a concrete topology
    happens later, in :func:`resolve_link_mechanisms`.
    """
    spec = spec.strip()
    if not spec:
        return ()
    clauses = []
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            raise OverrideError(f"empty clause in override spec {spec!r}")
        selector, sep, mech_name = raw.rpartition(":")
        if not sep or not selector.strip() or not mech_name.strip():
            raise OverrideError(
                f"override clause {raw!r} must look like 'selector:MECH' "
                "(e.g. 'depth>=3:ROO+VWL' or 'link:m2-up:FP')"
            )
        try:
            mechanism = canonical_mechanism(mech_name.strip())
        except ValueError as exc:
            raise OverrideError(f"override clause {raw!r}: {exc}") from None
        selector = selector.strip().lower()
        m = _DEPTH_RE.match(selector)
        if m:
            op = m.group(1)
            if op == "=":
                op = "=="
            clauses.append(
                OverrideClause(
                    kind="depth", mechanism=mechanism,
                    op=op, value=int(m.group(2)),
                )
            )
            continue
        m = _LINK_RE.match(selector)
        if m:
            clauses.append(
                OverrideClause(
                    kind="link", mechanism=mechanism,
                    value=int(m.group(1)), direction=m.group(2) or "",
                )
            )
            continue
        raise OverrideError(
            f"unknown override selector {selector!r} in clause {raw!r}; "
            "expected 'depth<op><N>' or 'link:m<id>[-up|-down]'"
        )
    return tuple(clauses)


def canonical_override_spec(spec: str) -> str:
    """Canonical spelling of ``spec`` (identity for already-canonical).

    Normalizes case, spacing, ``=`` vs ``==``, and mechanism aliases
    (``ROO+VWL`` becomes ``VWL+ROO``) while preserving clause order,
    which is semantically significant (last match wins).
    """
    return ",".join(c.text() for c in parse_mechanism_overrides(spec))


def resolve_link_mechanisms(
    spec: Union[str, Sequence[OverrideClause]],
    topology: Topology,
    base_mechanism: MechanismConfig,
    wake_ns: float = 14.0,
) -> Dict[str, LinkMechanism]:
    """Resolve override clauses to concrete per-link assignments.

    Returns ``{link_name: LinkMechanism}`` for every connectivity link
    selected by at least one clause (the last matching clause wins);
    unselected links keep ``base_mechanism`` and are absent from the
    result, so an empty spec returns ``{}``.

    Raises :class:`OverrideError` when a link clause names a module the
    topology does not have.
    """
    clauses = (
        parse_mechanism_overrides(spec) if isinstance(spec, str) else tuple(spec)
    )
    if not clauses:
        return {}
    n = topology.num_modules
    for clause in clauses:
        if clause.kind == "link" and not 0 <= clause.value < n:
            raise OverrideError(
                f"override clause {clause.text()!r} names module "
                f"{clause.value}, but the topology has modules 0..{n - 1}"
            )
    # One MechanismConfig instance per distinct name: links freely share
    # the frozen config object.
    mechs: Dict[str, MechanismConfig] = {}

    def mech_for(name: str) -> MechanismConfig:
        if name not in mechs:
            mechs[name] = make_mechanism(name, wake_ns=wake_ns)
        return mechs[name]

    out: Dict[str, LinkMechanism] = {}
    for i in range(n):
        depth = topology.depth(i)
        for direction, link_name in zip(("down", "up"), topology.link_names(i)):
            winner: Optional[OverrideClause] = None
            for clause in clauses:
                if clause.matches(i, depth, direction):
                    winner = clause
            if winner is None:
                continue
            if winner.mechanism == base_mechanism.name:
                # Matching the base mechanism is a no-op assignment;
                # reuse the base config so homogeneous behavior (and
                # object identity checks) are preserved exactly.
                mechanism = base_mechanism
            else:
                mechanism = mech_for(winner.mechanism)
            out[link_name] = LinkMechanism(
                link_name=link_name,
                module=i,
                direction=direction,
                depth=depth,
                mechanism=mechanism,
                source=winner.text(),
            )
    return out
