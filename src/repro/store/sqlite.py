"""Single-file SQLite result store with bulk lookups.

One database file holds every entry, so a sweep chunk's tier probe is
one indexed ``SELECT ... WHERE key IN (...)`` instead of N stat/open/
parse round-trips -- the point of the store layer (see
``store_bulk_lookup`` in the perf suite).  Layout:

- ``results(key PRIMARY KEY, schema, payload, created_unix)`` where
  ``payload`` is the zlib-compressed canonical JSON of exactly the
  :func:`~repro.store.base.store_entry` dict a JSON-store file holds
  (``{"schema": tag, "key": key, "result": cache-dict}``), so entries
  migrate between backends byte-comparably;
- ``quarantine`` mirrors the JSON layout's ``quarantine/`` directory:
  corrupt rows are moved there (evidence kept for post-mortems), the
  ``quarantined`` counter bumps once, and the read reports a miss.

Concurrency: the database runs in WAL mode with a generous busy
timeout, so concurrent writers -- ParallelExecutor results landing
while serve dispatcher threads write theirs, or two CLI processes
racing on one file -- serialize safely instead of corrupting.  Each
thread gets its own connection (sqlite3 connections are not shareable
across threads); the hit/miss/write/quarantine counters are guarded by
a lock so they stay exact, matching the JSON store's contract.

Schema awareness: rows store the same ``v<schema>-<version>`` tag the
JSON layout used as its directory name.  A row written under any other
tag is a plain miss (never a stale hit); ``compact()`` deletes such
rows and vacuums the file.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.io import result_from_cache_dict
from repro.store.base import distinct_configs, store_entry, store_schema_tag

__all__ = ["SqliteStore", "DEFAULT_SQLITE_FILENAME"]

#: File name used when a store is addressed by cache *directory* rather
#: than an explicit ``.sqlite`` path (see ``make_store``).
DEFAULT_SQLITE_FILENAME = "results.sqlite"

# Stay far under SQLite's historical 999-parameter limit.
_IN_CHUNK = 400

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    schema TEXT NOT NULL,
    payload BLOB NOT NULL,
    created_unix REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    key TEXT NOT NULL,
    schema TEXT,
    payload BLOB,
    reason TEXT NOT NULL,
    quarantined_unix REAL NOT NULL
);
"""


def _encode_payload(payload: Dict[str, object]) -> bytes:
    """Canonical compressed bytes for a cache payload dict."""
    return zlib.compress(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


def _decode_payload(blob: bytes) -> Dict[str, object]:
    """Inverse of :func:`_encode_payload`; raises on corrupt input."""
    data = json.loads(zlib.decompress(blob).decode("utf-8"))
    if not isinstance(data, dict):
        raise ValueError("cache payload is not a JSON object")
    return data


class SqliteStore:
    """``ResultStore`` backend over one WAL-mode SQLite file."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path).expanduser()
        if self.path.exists() and self.path.is_dir():
            raise IsADirectoryError(
                f"sqlite store path {self.path} is a directory "
                f"(expected a database file)"
            )
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        # Guards the counters above; data consistency itself comes from
        # SQLite's own locking (WAL + busy timeout).
        self._lock = threading.Lock()
        self._local = threading.local()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Create tables eagerly so a freshly constructed store is a
        # valid (empty) database even before the first put.
        self._conn()

    @property
    def schema_tag(self) -> str:
        """Entry tag tying rows to schema + package version."""
        return store_schema_tag()

    def _conn(self) -> sqlite3.Connection:
        """This thread's connection, created (and configured) lazily."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        conn = sqlite3.connect(
            str(self.path), timeout=30.0, isolation_level=None
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        conn.executescript(_SCHEMA_SQL)
        self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close the calling thread's connection (others close on exit)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # -- reads ---------------------------------------------------------

    def get(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        """The stored result for ``config``, or ``None`` on a miss."""
        found = self.get_many([config])
        return found.get(config.cache_key())

    def get_many(
        self, configs: Iterable[ExperimentConfig]
    ) -> Dict[str, ExperimentResult]:
        """One ``IN (...)`` query per chunk of 400 keys; ``{key: result}``."""
        pairs = distinct_configs(configs)
        if not pairs:
            return {}
        conn = self._conn()
        tag = self.schema_tag
        found: Dict[str, ExperimentResult] = {}
        for start in range(0, len(pairs), _IN_CHUNK):
            chunk = pairs[start : start + _IN_CHUNK]
            marks = ",".join("?" for _ in chunk)
            rows = conn.execute(
                f"SELECT key, schema, payload FROM results WHERE key IN ({marks})",
                [key for key, _ in chunk],
            ).fetchall()
            by_key = {row[0]: row for row in rows}
            for key, _config in chunk:
                row = by_key.get(key)
                if row is None or row[1] != tag:
                    # Absent, or written under another schema/version:
                    # a plain miss either way.
                    with self._lock:
                        self.misses += 1
                    continue
                try:
                    payload = _decode_payload(row[2])
                    result = result_from_cache_dict(payload["result"])
                except (zlib.error, json.JSONDecodeError, KeyError, TypeError, ValueError):
                    self._quarantine_row(key, "undecodable payload")
                    with self._lock:
                        self.misses += 1
                    continue
                found[key] = result
                with self._lock:
                    self.hits += 1
        return found

    def contains(self, config: ExperimentConfig) -> bool:
        """Whether a row exists under the active tag (counters untouched)."""
        row = self._conn().execute(
            "SELECT 1 FROM results WHERE key = ? AND schema = ?",
            (config.cache_key(), self.schema_tag),
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        """Number of rows readable under the active schema tag."""
        row = self._conn().execute(
            "SELECT COUNT(*) FROM results WHERE schema = ?", (self.schema_tag,)
        ).fetchone()
        return int(row[0])

    # -- writes --------------------------------------------------------

    def put(self, config: ExperimentConfig, result: ExperimentResult) -> None:
        """Upsert ``result`` under ``config``'s key."""
        self.put_many([(config, result)])

    def put_many(
        self, items: Iterable[Tuple[ExperimentConfig, ExperimentResult]]
    ) -> int:
        """Upsert a batch in one transaction; returns rows written."""
        tag = self.schema_tag
        rows: List[Tuple[str, str, bytes, float]] = []
        for config, result in items:
            key = config.cache_key()
            payload = store_entry(tag, key, result)
            rows.append((key, tag, _encode_payload(payload), time.time()))
        if not rows:
            return 0
        self._write_rows(rows)
        return len(rows)

    def put_payload(self, key: str, payload: Dict[str, object]) -> None:
        """Upsert a pre-serialized cache payload dict (migration path).

        ``payload`` must be the exact shape a JSON-store file holds --
        ``{"schema": tag, "key": key, "result": cache-dict}`` -- and is
        stored verbatim, so migrated entries stay byte-comparable with
        their JSON-directory source.
        """
        schema = str(payload.get("schema", ""))
        self._write_rows([(key, schema, _encode_payload(payload), time.time())])

    def _write_rows(self, rows: List[Tuple[str, str, bytes, float]]) -> None:
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT OR REPLACE INTO results (key, schema, payload, created_unix) "
                "VALUES (?, ?, ?, ?)",
                rows,
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        with self._lock:
            self.writes += len(rows)

    # -- hygiene -------------------------------------------------------

    def _quarantine_row(self, key: str, reason: str) -> None:
        """Move a corrupt row into the ``quarantine`` table, count once.

        Mirrors the JSON layout's quarantine directory: evidence is
        preserved for diagnosis and the entry stops being served.  Two
        threads racing on the same row count it once -- the loser's
        DELETE matches nothing.
        """
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT schema, payload FROM results WHERE key = ?", (key,)
            ).fetchone()
            deleted = conn.execute(
                "DELETE FROM results WHERE key = ?", (key,)
            ).rowcount
            if deleted and row is not None:
                conn.execute(
                    "INSERT INTO quarantine "
                    "(key, schema, payload, reason, quarantined_unix) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (key, row[0], row[1], reason, time.time()),
                )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        if deleted:
            with self._lock:
                self.quarantined += 1

    def stats(self) -> Dict[str, object]:
        """Counters plus entry/stale/quarantine counts and file size."""
        conn = self._conn()
        tag = self.schema_tag
        entries = int(
            conn.execute(
                "SELECT COUNT(*) FROM results WHERE schema = ?", (tag,)
            ).fetchone()[0]
        )
        stale = int(
            conn.execute(
                "SELECT COUNT(*) FROM results WHERE schema != ?", (tag,)
            ).fetchone()[0]
        )
        quarantine_entries = int(
            conn.execute("SELECT COUNT(*) FROM quarantine").fetchone()[0]
        )
        size = 0
        for suffix in ("", "-wal", "-shm"):
            sidecar = Path(str(self.path) + suffix)
            if sidecar.exists():
                size += sidecar.stat().st_size
        return {
            "backend": "sqlite",
            "path": str(self.path),
            "schema": tag,
            "entries": entries,
            "stale_entries": stale,
            "size_bytes": size,
            "quarantine_entries": quarantine_entries,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
        }

    def compact(self) -> Dict[str, int]:
        """Drop stale-schema rows and quarantine evidence, then VACUUM."""
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            removed = conn.execute(
                "DELETE FROM results WHERE schema != ?", (self.schema_tag,)
            ).rowcount
            removed_quarantine = conn.execute("DELETE FROM quarantine").rowcount
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        conn.execute("VACUUM")
        return {
            "removed_entries": removed + removed_quarantine,
            "removed_stale": removed,
            "removed_quarantine": removed_quarantine,
        }
