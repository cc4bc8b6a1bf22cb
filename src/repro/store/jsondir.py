"""JSON-directory result store: one JSON file per result.

Each :class:`~repro.harness.experiment.ExperimentResult` lives in a file
named ``<cache_key>.json``, grouped under a *schema tag* directory::

    <root>/v<SCHEMA_VERSION>-<repro.__version__>/<cache_key>.json

The tag couples the store to both the serialization schema and the
package version, so bumping ``repro.__version__`` (or the schema)
invalidates every stale entry without any migration logic -- old
directories are simply never read again (``compact()`` prunes them).

The default root is ``~/.cache/repro-mnet``; override per-call with the
constructor argument, or globally with the ``REPRO_CACHE_DIR``
environment variable.  Entries are written atomically (tempfile +
rename) so concurrent writers -- e.g. a :class:`ParallelExecutor` batch
feeding one store, or two CLI invocations racing -- at worst do
duplicate work, never corrupt an entry.  Unreadable or truncated files
are treated as misses and moved aside into a ``quarantine/``
subdirectory (so a recurring corruption source stays diagnosable
instead of silently vanishing); the ``quarantined`` counter surfaces
how often that happened.

Thread safety: one :class:`JsonDirStore` may be shared by concurrent
readers and writers (the experiment service's HTTP handler threads all
funnel through a single instance).  File operations are already safe --
writes land via ``mkstemp`` + atomic ``os.replace`` and a read races a
replace only into seeing the old or the new complete entry -- and the
hit/miss/write/quarantine counters are guarded by an internal lock so
they stay exact under contention.  Two threads racing to quarantine the
same corrupt entry count it once: the loser's ``os.replace`` finds the
path gone and treats that as already-quarantined.

Bulk reads cannot beat per-key probes here (the filesystem is the
index), so ``get_many`` is a loop; the point of the shared protocol is
that :class:`~repro.store.sqlite.SqliteStore` answers the same call
with one query.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.io import result_from_cache_dict
from repro.store.base import (
    default_cache_dir,
    distinct_configs,
    store_entry,
    store_schema_tag,
)

__all__ = ["JsonDirStore"]

#: Names ``store_schema_tag()`` gives entry directories
#: (``v<SCHEMA_VERSION>-<version>``); ``compact()`` prunes only these.
_TAG_DIR = re.compile(r"v\d+-\d[\w.+!-]*")


class JsonDirStore:
    """``ResultStore`` backend over one-JSON-file-per-result directories."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(
                f"cache dir {self.root} exists but is not a directory"
            )
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        # Guards the counters above (file operations are individually
        # atomic and need no lock; see the module docstring).
        self._lock = threading.Lock()
        # Resolved once: path_for runs on every lookup, and the schema
        # tag cannot change while the process runs.
        self._entry_dir = os.path.join(self.root, self.schema_tag)

    @property
    def schema_tag(self) -> str:
        """Directory name tying entries to schema + package version."""
        return store_schema_tag()

    @property
    def directory(self) -> Path:
        """The active (schema-tagged) cache directory."""
        return Path(self._entry_dir)

    def path_for(self, config: ExperimentConfig) -> Path:
        """Where this config's result lives (whether or not it exists)."""
        return Path(os.path.join(self._entry_dir, config.cache_key() + ".json"))

    # -- reads ---------------------------------------------------------

    def get(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        """The cached result for ``config``, or ``None`` on a miss."""
        path = self.path_for(config)
        try:
            with open(path) as fh:
                data = json.load(fh)
            result = result_from_cache_dict(data["result"])
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # Corrupt or half-written entry: quarantine it (keeps the
            # evidence for diagnosis) and re-simulate.
            self._quarantine(path)
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return result

    def get_many(
        self, configs: Iterable[ExperimentConfig]
    ) -> Dict[str, ExperimentResult]:
        """Per-key probe loop over the directory; ``{key: result}`` hits."""
        found: Dict[str, ExperimentResult] = {}
        for key, config in distinct_configs(configs):
            result = self.get(config)
            if result is not None:
                found[key] = result
        return found

    def contains(self, config: ExperimentConfig) -> bool:
        """Whether the entry file exists (counters untouched)."""
        return self.path_for(config).is_file()

    def __len__(self) -> int:
        """Number of entries readable under the active schema tag."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    # -- writes --------------------------------------------------------

    def put(self, config: ExperimentConfig, result: ExperimentResult) -> Path:
        """Persist ``result`` under ``config``'s key; returns the path."""
        path = self.path_for(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = store_entry(self.schema_tag, config.cache_key(), result)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                # One ``dumps`` call runs the C encoder; ``json.dump``
                # streams through the pure-Python one (same bytes).
                fh.write(json.dumps(payload))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self.writes += 1
        return path

    def put_many(
        self, items: Iterable[Tuple[ExperimentConfig, ExperimentResult]]
    ) -> int:
        """Write each pair atomically; returns the number written."""
        count = 0
        for config, result in items:
            self.put(config, result)
            count += 1
        return count

    # -- hygiene -------------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry into ``quarantine/`` (unlink as fallback).

        The quarantine directory sits *inside* the schema-tagged
        directory but its entries are never globbed by ``__len__`` nor
        looked up by ``get`` -- they only exist for post-mortems.
        Concurrent readers may race to quarantine the same entry; the
        loser finds the path already gone (``FileNotFoundError``) and
        does not double-count.
        """
        target = self.directory / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except FileNotFoundError:
            # Another thread already moved (or removed) it.
            return
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        with self._lock:
            self.quarantined += 1

    def stats(self) -> Dict[str, object]:
        """Counters plus entry count, on-disk size, and quarantine depth."""
        entries = len(self)
        size = 0
        quarantine_entries = 0
        if self.directory.is_dir():
            size = sum(
                p.stat().st_size
                for p in self.directory.glob("*.json")
                if p.is_file()
            )
            quarantine_dir = self.directory / "quarantine"
            if quarantine_dir.is_dir():
                quarantine_entries = sum(
                    1 for p in quarantine_dir.iterdir() if p.is_file()
                )
        return {
            "backend": "json",
            "path": str(self.root),
            "schema": self.schema_tag,
            "entries": entries,
            "size_bytes": size,
            "quarantine_entries": quarantine_entries,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
        }

    def compact(self) -> Dict[str, int]:
        """Delete stale schema-tag directories and quarantined debris.

        Live entries under the active tag are never touched, and
        neither is anything else under the root whose name is not a
        schema tag (a journal, a user's own directory).  Returns
        ``removed_entries`` (stale + quarantined files deleted) and
        ``removed_dirs`` (stale schema directories pruned).
        """
        removed_entries = 0
        removed_dirs = 0
        if self.root.is_dir():
            for child in self.root.iterdir():
                if (
                    child.name == self.schema_tag
                    or not _TAG_DIR.fullmatch(child.name)
                    or not child.is_dir()
                ):
                    continue
                removed_entries += sum(1 for p in child.rglob("*") if p.is_file())
                shutil.rmtree(child, ignore_errors=True)
                removed_dirs += 1
        quarantine_dir = self.directory / "quarantine"
        if quarantine_dir.is_dir():
            removed_entries += sum(
                1 for p in quarantine_dir.iterdir() if p.is_file()
            )
            shutil.rmtree(quarantine_dir, ignore_errors=True)
        return {"removed_entries": removed_entries, "removed_dirs": removed_dirs}
