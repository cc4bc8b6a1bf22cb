"""The :class:`ResultStore` protocol: what every result backend provides.

A result store maps ``ExperimentConfig.cache_key()`` to a persisted
:class:`~repro.harness.experiment.ExperimentResult`.  The protocol is
deliberately the superset of what the three consumers need:

- ``SweepRunner`` probes a whole sweep chunk at once via ``get_many``
  and writes each fresh simulation back with ``put``;
- the serve layer's disk tier does per-request ``get``/``put`` behind
  its in-memory LRU and surfaces the counters in ``/v1/stats``;
- the CLI ``store`` subcommands drive ``stats`` and ``compact`` and
  the JSON->SQLite migration helper.

Every backend is *schema-version aware*: entries are tagged with
:func:`store_schema_tag` (``v<SCHEMA_VERSION>-<repro.__version__>``,
the JSON layout's directory name), and an entry written under any
other tag is a miss (never a stale hit, never an error).  Every
backend persists the same :func:`store_entry` dict, so entries migrate
between backends byte-comparably.  Backends also share one counter
contract -- ``hits``/``misses``/``writes``/``quarantined`` attributes,
exact under concurrent access -- because the serve stats payload and
the CLI cache summary read those attributes directly.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Protocol, Tuple, runtime_checkable

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.io import result_to_cache_dict

__all__ = [
    "ResultStore",
    "store_schema_tag",
    "store_entry",
    "SCHEMA_VERSION",
    "default_cache_dir",
]

#: Bump when the cache-dict layout changes incompatibly.
#: v2: ``mechanism_overrides`` joined the config payload (omitted when
#: empty) and flat result rows gained the column; entries written under
#: v1 are silently treated as misses, never as stale hits.
SCHEMA_VERSION = 2


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-mnet``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-mnet").expanduser()


def store_schema_tag() -> str:
    """The active entry tag: ``v<SCHEMA_VERSION>-<repro.__version__>``.

    Shared by every backend so a schema or package-version bump
    invalidates all stale entries at once.
    """
    import repro  # deferred: repro.__init__ imports the store facade

    return f"v{SCHEMA_VERSION}-{repro.__version__}"


def store_entry(
    tag: str, key: str, result: ExperimentResult
) -> Dict[str, object]:
    """The ``{"schema", "key", "result"}`` entry every backend persists.

    The key order is part of the JSON layout: entry files are written
    in insertion order, so it must stay ``schema, key, result``.
    """
    return {"schema": tag, "key": key, "result": result_to_cache_dict(result)}


@runtime_checkable
class ResultStore(Protocol):
    """Persistent result cache keyed by ``ExperimentConfig.cache_key()``.

    Implementations must be safe to share across threads (serve
    dispatcher + HTTP handler threads funnel through one instance) and
    across processes (two CLI invocations may race on the same path).
    Counter attributes (``hits``, ``misses``, ``writes``,
    ``quarantined``) must stay exact under that contention.

    ``len()`` may scan the whole store (a directory glob, a ``COUNT``
    query), and an empty store is falsy.  Code that holds an optional
    store compares it with ``None``; it never truth-tests it.
    """

    hits: int
    misses: int
    writes: int
    quarantined: int

    @property
    def schema_tag(self) -> str:
        """Entry tag tying stored payloads to schema + package version."""
        ...

    def get(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        """The stored result for ``config``, or ``None`` on a miss.

        Corrupt entries are quarantined (evidence kept, ``quarantined``
        incremented) and reported as misses; entries written under a
        different schema tag are plain misses.
        """
        ...

    def put(self, config: ExperimentConfig, result: ExperimentResult) -> None:
        """Persist ``result`` under ``config``'s key (upsert)."""
        ...

    def get_many(
        self, configs: Iterable[ExperimentConfig]
    ) -> Dict[str, ExperimentResult]:
        """Bulk lookup: ``{cache_key: result}`` for every hit.

        Missing keys are simply absent from the returned mapping.  Each
        probed config counts exactly one hit or one miss, so the
        counters match what a per-key ``get`` loop would have recorded.
        """
        ...

    def put_many(
        self, items: Iterable[Tuple[ExperimentConfig, ExperimentResult]]
    ) -> int:
        """Persist a batch of results; returns how many were written."""
        ...

    def contains(self, config: ExperimentConfig) -> bool:
        """Whether an entry exists for ``config`` (no counter changes)."""
        ...

    def __len__(self) -> int:
        """Number of entries readable under the active schema tag."""
        ...

    def stats(self) -> Dict[str, object]:
        """Backend-identifying snapshot: counters, entry count, size."""
        ...

    def compact(self) -> Dict[str, int]:
        """Drop stale-schema and quarantined debris; reclaim space.

        Returns a summary of what was removed (backend-specific keys,
        always including ``removed_entries``).
        """
        ...


def distinct_configs(
    configs: Iterable[ExperimentConfig],
) -> List[Tuple[str, ExperimentConfig]]:
    """``(cache_key, config)`` pairs with duplicate keys dropped.

    Shared helper for ``get_many`` implementations: a sweep chunk may
    contain repeated configs and each distinct key must count exactly
    once toward hits/misses.
    """
    seen: Dict[str, ExperimentConfig] = {}
    for config in configs:
        key = config.cache_key()
        if key not in seen:
            seen[key] = config
    return list(seen.items())
