"""Minimally connected memory-network topologies (Figure 3 of the paper).

A *minimally connected* topology is a tree rooted at the processor: every
available link attaches a brand-new module, which minimizes average and
worst-case hop distance and makes the network acyclic (no deadlock or
livelock avoidance logic required).

The HMC standard provides two module flavours:

* **high-radix** HMCs with four full links (eight unidirectional links),
* **low-radix** HMCs with two full links, at roughly half the area/power.

Every module spends one full link on its *connectivity link* toward the
processor (its parent), leaving three (high-radix) or one (low-radix)
full links for downstream children.

Topologies implemented, following our reading of Figure 3 (documented in
DESIGN.md):

``daisychain``
    A single chain of low-radix modules.
``ternary_tree``
    A complete ternary tree of high-radix modules (minimizes hop count).
``star``
    Rings of modules equidistant from the processor; a module is
    high-radix only when it needs two or more children.  For small
    networks this matches the ternary tree's hop distances while using
    fewer high-radix HMCs.
``ddrx_like``
    Rows of three modules; the center module of the first row attaches to
    the processor, modules chain horizontally within the first row, and
    each first-row module grows a vertical chain downward.  Capacity
    scales by adding rows, mirroring how DDRx DIMMs add ranks.
``box``
    An extra (not evaluated in the paper's result figures): star-like
    growth with rings capped at four modules.

Modules are numbered breadth-first from the processor so that module *i*
holds the *i*-th contiguous slice of physical memory: hot, low-numbered
address ranges land near the processor, matching the paper's mapping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.registry import Registry

__all__ = [
    "Radix",
    "Topology",
    "TopologyError",
    "build_topology",
    "daisychain",
    "ternary_tree",
    "star",
    "ddrx_like",
    "box",
    "TOPOLOGY_BUILDERS",
    "TOPOLOGY_NAMES",
]

#: Sentinel for the processor endpoint.
PROCESSOR: int = -1


class TopologyError(ValueError):
    """Raised for malformed or unsatisfiable topology requests."""


class Radix(enum.Enum):
    """HMC link radix per the HMC 2.1 specification."""

    HIGH = 4  #: four full links (eight unidirectional)
    LOW = 2  #: two full links (four unidirectional)

    @property
    def full_links(self) -> int:
        """Number of full (bidirectional) links the module provides."""
        return self.value

    @property
    def max_children(self) -> int:
        """Downstream links left after the connectivity link to the parent."""
        return self.value - 1


@dataclass
class Topology:
    """An immutable tree of memory modules rooted at the processor.

    ``parent[i]`` is the module upstream of module ``i`` (``PROCESSOR``
    for the root), ``children[i]`` lists downstream modules in ascending
    order, and ``radix[i]`` gives the module flavour.
    """

    name: str
    parent: List[int]
    radix: List[Radix]
    children: List[List[int]] = field(default_factory=list)
    _depths: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        n = len(self.parent)
        if n == 0:
            raise TopologyError("a topology needs at least one module")
        if len(self.radix) != n:
            raise TopologyError("parent and radix arrays must have equal length")
        if not self.children:
            self.children = [[] for _ in range(n)]
            for i, p in enumerate(self.parent):
                if p == PROCESSOR:
                    continue
                if not 0 <= p < n:
                    raise TopologyError(f"module {i} has out-of-range parent {p}")
                self.children[p].append(i)
        self._validate()
        self._depths = self._compute_depths()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        roots = [i for i, p in enumerate(self.parent) if p == PROCESSOR]
        if roots != [0]:
            raise TopologyError(
                f"exactly module 0 must attach to the processor, got roots={roots}"
            )
        for i, kids in enumerate(self.children):
            if len(kids) > self.radix[i].max_children:
                raise TopologyError(
                    f"module {i} ({self.radix[i].name} radix) has {len(kids)} "
                    f"children, max {self.radix[i].max_children}"
                )
        # Acyclicity / reachability: walking parents from every node must
        # reach the processor without revisiting a node.
        n = len(self.parent)
        for i in range(n):
            seen = set()
            node = i
            while node != PROCESSOR:
                if node in seen:
                    raise TopologyError(f"cycle detected through module {node}")
                seen.add(node)
                node = self.parent[node]
                if len(seen) > n:
                    raise TopologyError("parent chain exceeds module count")

    def _compute_depths(self) -> List[int]:
        depths = [0] * self.num_modules
        for i in range(self.num_modules):
            p = self.parent[i]
            depths[i] = 1 if p == PROCESSOR else depths[p] + 1
        return depths

    # ------------------------------------------------------------------
    @property
    def num_modules(self) -> int:
        """Number of memory modules in the network."""
        return len(self.parent)

    def depth(self, module: int) -> int:
        """Hop distance from the processor to ``module`` (root = 1)."""
        return self._depths[module]

    @property
    def max_depth(self) -> int:
        """Worst-case hop distance from the processor."""
        return max(self._depths)

    @property
    def avg_depth(self) -> float:
        """Average hop distance from the processor."""
        return sum(self._depths) / self.num_modules

    def link_names(self, module: int) -> Tuple[str, str]:
        """Names of ``module``'s connectivity links, ``(request, response)``.

        The request link runs down from the parent,
        ``req:{parent}->{module}``, and the response link back up,
        ``resp:{module}->{parent}``; the processor is parent ``-1``.
        """
        parent = self.parent[module]
        return f"req:{parent}->{module}", f"resp:{module}->{parent}"

    def path_from_processor(self, module: int) -> List[int]:
        """Modules traversed from the processor to ``module``, inclusive."""
        path: List[int] = []
        node = module
        while node != PROCESSOR:
            path.append(node)
            node = self.parent[node]
        path.reverse()
        return path

    def subtree(self, module: int) -> List[int]:
        """All modules at or below ``module`` (preorder)."""
        out: List[int] = []
        stack = [module]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(self.children[node]))
        return out

    def links_by_depth(self) -> Dict[int, int]:
        """``S(d)``: number of full connectivity links at hop distance ``d``.

        The connectivity link of module ``i`` sits at hop distance
        ``depth(i)``; used by the static fat/tapered-tree baseline.
        """
        counts: Dict[int, int] = {}
        for i in range(self.num_modules):
            d = self._depths[i]
            counts[d] = counts.get(d, 0) + 1
        return counts

    def num_high_radix(self) -> int:
        """Count of high-radix modules (area/leakage proxy)."""
        return sum(1 for r in self.radix if r is Radix.HIGH)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}, n={self.num_modules}, "
            f"max_depth={self.max_depth})"
        )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
#: Registry of builders by name; decorate a ``(n: int) -> Topology``
#: callable with ``@TOPOLOGY_BUILDERS.register("name")`` to add one.
TOPOLOGY_BUILDERS: Registry = Registry("topology", error_cls=TopologyError)


@TOPOLOGY_BUILDERS.register("daisychain")
def daisychain(n: int) -> Topology:
    """A chain of ``n`` low-radix modules: processor - 0 - 1 - ... - n-1."""
    _check_n(n)
    parent = [PROCESSOR] + list(range(n - 1))
    radix = [Radix.LOW] * n
    return Topology("daisychain", parent, radix)


@TOPOLOGY_BUILDERS.register("ternary_tree")
def ternary_tree(n: int) -> Topology:
    """A complete ternary tree of ``n`` high-radix modules, BFS numbered."""
    _check_n(n)
    parent = [PROCESSOR] + [(i - 1) // 3 for i in range(1, n)]
    radix = [Radix.HIGH] * n
    return Topology("ternary_tree", parent, radix)


def _ring_growth(name: str, n: int, ring_cap: Optional[int] = None) -> Topology:
    """Shared ring-growth builder behind ``star`` and ``box``.

    Rings of modules equidistant from the processor: children of ring
    ``r`` are distributed round-robin over ring ``r``'s modules, each of
    which can anchor up to three children, so ring ``r+1`` holds at most
    ``3 * len(ring r)`` modules -- further capped at ``ring_cap`` when
    given.  A module becomes high-radix only when it receives two or
    more children; the root is always high-radix.
    """
    _check_n(n)
    parent = [PROCESSOR]
    child_count = [0]
    ring = [0]
    placed = 1
    while placed < n:
        capacity = 3 * len(ring)
        if ring_cap is not None:
            capacity = min(ring_cap, capacity)
        take = min(n - placed, capacity)
        next_ring: List[int] = []
        for j in range(take):
            p = ring[j % len(ring)]
            parent.append(p)
            child_count[p] += 1
            child_count.append(0)
            next_ring.append(placed)
            placed += 1
        ring = next_ring
    radix = [
        Radix.HIGH if (i == 0 or child_count[i] >= 2) else Radix.LOW
        for i in range(n)
    ]
    return Topology(name, parent, radix)


@TOPOLOGY_BUILDERS.register("star")
def star(n: int) -> Topology:
    """Rings of modules equidistant from the processor.

    Children of ring ``r`` are distributed round-robin over ring ``r``'s
    modules; a module becomes high-radix only when it receives two or
    more children.  The root is always high-radix (it anchors the first
    ring of up to three modules).
    """
    return _ring_growth("star", n)


@TOPOLOGY_BUILDERS.register("ddrx_like")
def ddrx_like(n: int, row_width: int = 3) -> Topology:
    """Rows of ``row_width`` modules, scaling by adding rows.

    Row 0 holds modules ``0..row_width-1``: module 0 (row center) attaches
    to the processor and the rest chain off it horizontally.  Module ``i``
    of each subsequent row hangs below module ``i`` of the previous row,
    forming ``row_width`` parallel vertical chains.  Radix: module 0 is
    high (up + two horizontal + one down); other row-0 modules and all
    deeper modules are low-radix except where the horizontal fan-out of
    row 0 requires more links.
    """
    _check_n(n)
    if row_width < 1:
        raise TopologyError("row_width must be >= 1")
    parent = [PROCESSOR]
    for i in range(1, n):
        if i < row_width:
            # Horizontal chain within row 0: 1 and 2 hang off 0, then 3
            # off 1, 4 off 2, ... for wider rows.
            parent.append(0 if i <= 2 else i - 2)
        else:
            parent.append(i - row_width)
    topo_children: List[int] = [0] * n
    for i in range(1, n):
        topo_children[parent[i]] += 1
    radix = []
    for i in range(n):
        need = topo_children[i] + 1
        if need > Radix.HIGH.full_links:
            raise TopologyError(
                f"ddrx_like row_width={row_width} needs {need} links at module {i}"
            )
        radix.append(Radix.LOW if need <= Radix.LOW.full_links else Radix.HIGH)
    return Topology("ddrx_like", parent, radix)


@TOPOLOGY_BUILDERS.register("box")
def box(n: int) -> Topology:
    """Star-like growth with rings capped at four modules (extra topology)."""
    return _ring_growth("box", n, ring_cap=4)


def _check_n(n: int) -> None:
    if n < 1:
        raise TopologyError(f"need at least one module, got {n}")


#: The four topologies evaluated in the paper's result figures.
TOPOLOGY_NAMES: Tuple[str, ...] = ("daisychain", "ternary_tree", "star", "ddrx_like")


def build_topology(name: str, n: int) -> Topology:
    """Build topology ``name`` with ``n`` modules.

    Raises
    ------
    TopologyError
        If ``name`` is unknown or ``n`` is invalid.
    """
    return TOPOLOGY_BUILDERS.get(name)(n)
