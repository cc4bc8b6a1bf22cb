"""Bounded in-memory result cache with least-recently-used eviction.

The experiment service's first tier: a mapping from
:meth:`~repro.harness.experiment.ExperimentConfig.cache_key` to
:class:`~repro.harness.experiment.ExperimentResult`, bounded to
``capacity`` entries.  A ``get`` refreshes recency; a ``put`` past
capacity evicts the least-recently-used entry and counts it, so the
``/stats`` endpoint can report eviction pressure alongside hit ratios.

``capacity=0`` disables the tier entirely (every lookup misses, every
store is dropped) without the callers needing a second code path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.harness.experiment import ExperimentResult

__all__ = ["LruResultCache"]


class LruResultCache:
    """LRU mapping of cache keys to experiment results.

    The cache has no lock of its own: the experiment service reads and
    writes it with its condition held.  ``capacity`` is fixed at
    construction -- the eviction loop, the ``/stats`` payload, and the
    admission math all assume it never moves -- so it is a read-only
    property.  ``inserts`` counts every store over the cache's lifetime,
    a warm-start pre-population included.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[str, ExperimentResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0

    @property
    def capacity(self) -> int:
        """The fixed entry bound chosen at construction."""
        return self._capacity

    def get(self, key: str) -> Optional[ExperimentResult]:
        """The cached result for ``key`` (refreshing recency), or None."""
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return result

    def put(self, key: str, result: ExperimentResult) -> None:
        """Store ``result`` under ``key``, evicting LRU entries past capacity."""
        if self._capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = result
        self.inserts += 1
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        """Number of live entries."""
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """JSON-safe counters: size, capacity, hits, misses, evictions,
        and the lifetime insert total."""
        return {
            "size": len(self._entries),
            "capacity": self._capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
        }
