"""Persistent on-disk result cache, keyed by config content hash.

One JSON file per :class:`~repro.harness.experiment.ExperimentResult`,
named ``<cache_key>.json`` and grouped under a *schema tag* directory::

    <root>/v<SCHEMA_VERSION>-<repro.__version__>/<cache_key>.json

The tag couples the cache to both the serialization schema and the
package version, so bumping ``repro.__version__`` (or the schema)
invalidates every stale entry without any migration logic -- old
directories are simply never read again.

The default root is ``~/.cache/repro-mnet``; override per-call with the
constructor argument, or globally with the ``REPRO_CACHE_DIR``
environment variable.  Entries are written atomically (tempfile +
rename) so concurrent writers -- e.g. a :class:`ParallelExecutor` batch
feeding one cache, or two CLI invocations racing -- at worst do
duplicate work, never corrupt an entry.  Unreadable or truncated files
are treated as misses and moved aside into a ``quarantine/``
subdirectory (so a recurring corruption source stays diagnosable
instead of silently vanishing); the ``quarantined`` counter surfaces
how often that happened.

Thread safety: one :class:`DiskCache` instance may be shared by
concurrent readers and writers (the experiment service's HTTP handler
threads all funnel through a single instance).  File operations are
already safe -- writes land via ``mkstemp`` + atomic ``os.replace`` and
a read races a replace only into seeing the old or the new complete
entry -- and the hit/miss/write/quarantine counters are guarded by an
internal lock so they stay exact under contention.  Two threads racing
to quarantine the same corrupt entry count it once: the loser's
``os.replace`` finds the path gone and treats that as
already-quarantined.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Optional, Union

from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.io import result_from_cache_dict, result_to_cache_dict

__all__ = ["DiskCache", "SCHEMA_VERSION", "default_cache_dir"]

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


class DiskCache:
    """JSON-per-result store under a versioned cache directory."""

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
        import repro  # deferred: repro.__init__ imports the harness

        return f"v{SCHEMA_VERSION}-{repro.__version__}"

    @property
    def directory(self) -> Path:
        """The active (schema-tagged) cache directory."""
        return Path(self._entry_dir)

    def path_for(self, config: ExperimentConfig) -> Path:
        """Where this config's result lives (whether or not it exists)."""
        return Path(os.path.join(self._entry_dir, config.cache_key() + ".json"))

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
            except FileNotFoundError:
                return
            except OSError:
                return
        with self._lock:
            self.quarantined += 1

    def put(self, config: ExperimentConfig, result: ExperimentResult) -> Path:
        """Persist ``result`` under ``config``'s key; returns the path."""
        path = self.path_for(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": self.schema_tag,
            "key": config.cache_key(),
            "result": result_to_cache_dict(result),
        }
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
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

    def __len__(self) -> int:
        """Number of entries readable under the active schema tag."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))
