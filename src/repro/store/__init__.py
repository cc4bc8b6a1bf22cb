"""Pluggable result-store layer: one protocol, two backends.

Every cached :class:`~repro.harness.experiment.ExperimentResult` lives
behind the :class:`~repro.store.base.ResultStore` protocol, keyed by
``ExperimentConfig.cache_key()``:

- :class:`~repro.store.jsondir.JsonDirStore` -- one JSON file per
  result under a schema-tagged directory (the historical ``DiskCache``
  layout and name);
- :class:`~repro.store.sqlite.SqliteStore` -- a single WAL-mode SQLite
  file whose ``get_many`` answers a whole sweep chunk with one query.

``make_store`` maps the CLI's ``--store json|sqlite`` choice onto a
backend rooted at a cache directory; ``migrate_json_to_sqlite``
converts an existing JSON cache into a SQLite file with count and
byte-equality verification.  Both backends serve bit-identical results
and keep one hit/miss/write/quarantine counter contract.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.store.base import ResultStore

__all__ = [
    "ResultStore",
    "JsonDirStore",
    "SqliteStore",
    "MigrationReport",
    "migrate_json_to_sqlite",
    "make_store",
    "store_schema_tag",
    "STORE_BACKENDS",
    "DEFAULT_SQLITE_FILENAME",
    "SCHEMA_VERSION",
]

#: Each public name's defining module, imported on first use
#: (``make_store`` and ``STORE_BACKENDS`` are defined below).
_EXPORTS = {
    "ResultStore": "repro.store.base",
    "JsonDirStore": "repro.store.jsondir",
    "SqliteStore": "repro.store.sqlite",
    "MigrationReport": "repro.store.migrate",
    "migrate_json_to_sqlite": "repro.store.migrate",
    "store_schema_tag": "repro.store.base",
    "DEFAULT_SQLITE_FILENAME": "repro.store.sqlite",
    "SCHEMA_VERSION": "repro.store.base",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

#: Backend names accepted by ``make_store`` and the CLI ``--store`` flag.
STORE_BACKENDS = ("json", "sqlite")


def make_store(
    backend: str, root: Union[str, Path, None] = None
) -> ResultStore:
    """Construct a result store rooted at a cache directory.

    ``backend`` is ``"json"`` (a schema-tagged directory of JSON
    files) or ``"sqlite"`` (one ``results.sqlite`` file inside the
    root; passing a path that already ends in ``.sqlite`` uses that
    file directly).  ``root`` defaults to the usual cache directory
    (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-mnet``).
    """
    if backend not in STORE_BACKENDS:
        raise ValueError(
            f"unknown store backend {backend!r} "
            f"(expected one of {STORE_BACKENDS})"
        )
    # Imported here, not through the lazy table: a module's own
    # functions never reach its ``__getattr__``.  The SQLite backend
    # (and ``sqlite3``) loads only when it is the one asked for.
    root_path: Optional[Path] = Path(root).expanduser() if root else None
    if backend == "json":
        from repro.store.jsondir import JsonDirStore

        return JsonDirStore(root_path)
    from repro.store.base import default_cache_dir
    from repro.store.sqlite import DEFAULT_SQLITE_FILENAME, SqliteStore

    base = root_path if root_path is not None else default_cache_dir()
    if base.suffix == ".sqlite":
        return SqliteStore(base)
    return SqliteStore(base / DEFAULT_SQLITE_FILENAME)
