"""Backend-conformance suite for the pluggable result-store layer.

Every test in :class:`TestStoreConformance` runs against BOTH backends
(``JsonDirStore`` and ``SqliteStore``) through the shared
:class:`~repro.store.base.ResultStore` surface: round-trips, bulk
lookups with partial hits, counter exactness under a concurrent writer
hammer, and corrupt-entry quarantine.  Backend-specific behaviors
(schema-version handling, compaction, migration, the bulk-lookup
speedup) follow in their own classes.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import replace

import pytest

from repro.cli import main
from repro.harness import figures as F
from repro.harness.diskcache import DiskCache
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.io import result_to_cache_dict
from repro.harness.sweep import SweepRunner, grid_configs
from repro.store import (
    DEFAULT_SQLITE_FILENAME,
    JsonDirStore,
    MigrationReport,
    ResultStore,
    SqliteStore,
    make_store,
    migrate_json_to_sqlite,
    store_schema_tag,
)

FAST = dict(window_ns=30_000.0, epoch_ns=10_000.0)

BACKENDS = ("json", "sqlite")


@pytest.fixture(scope="module")
def seed_run():
    """One real (config, result) pair; the basis for synthetic entries."""
    config = ExperimentConfig(workload="mixA", **FAST)
    return config, run_experiment(config)


def synthetic_entries(seed_run, n):
    """``n`` distinct (config, result) pairs derived from one real run.

    Each entry gets its own cache key (via ``seed``) and a marker value
    (``completed_reads``) so payload mix-ups are detectable.
    """
    config, result = seed_run
    out = []
    for i in range(n):
        cfg = config.replace(seed=1000 + i)
        out.append((cfg, replace(result, config=cfg, completed_reads=10_000 + i)))
    return out


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    """The store under test, parameterized over both backends."""
    return make_store(request.param, tmp_path)


def corrupt_entry(store, config) -> None:
    """Destroy one entry's stored payload, backend-appropriately."""
    if isinstance(store, SqliteStore):
        conn = sqlite3.connect(str(store.path))
        conn.execute(
            "UPDATE results SET payload = ? WHERE key = ?",
            (b"not-a-payload", config.cache_key()),
        )
        conn.commit()
        conn.close()
    else:
        store.path_for(config).write_text("{truncated")


def quarantine_evidence(store) -> int:
    """How many quarantined entries the backend kept for post-mortems."""
    if isinstance(store, SqliteStore):
        conn = sqlite3.connect(str(store.path))
        count = conn.execute("SELECT COUNT(*) FROM quarantine").fetchone()[0]
        conn.close()
        return int(count)
    quarantine_dir = store.directory / "quarantine"
    if not quarantine_dir.is_dir():
        return 0
    return sum(1 for p in quarantine_dir.iterdir() if p.is_file())


class TestStoreConformance:
    def test_implements_the_protocol(self, store):
        assert isinstance(store, ResultStore)
        assert store.schema_tag == store_schema_tag()

    def test_round_trip(self, store, seed_run):
        config, result = seed_run
        assert store.get(config) is None
        assert store.misses == 1
        store.put(config, result)
        fetched = store.get(config)
        assert result_to_cache_dict(fetched) == result_to_cache_dict(result)
        assert (store.hits, store.misses, store.writes) == (1, 1, 1)

    def test_contains_does_not_touch_counters(self, store, seed_run):
        config, result = seed_run
        assert not store.contains(config)
        store.put(config, result)
        assert store.contains(config)
        assert (store.hits, store.misses) == (0, 0)

    def test_get_many_partial_hits(self, store, seed_run):
        entries = synthetic_entries(seed_run, 5)
        assert store.put_many(entries[:3]) == 3
        found = store.get_many([cfg for cfg, _ in entries])
        assert set(found) == {cfg.cache_key() for cfg, _ in entries[:3]}
        for cfg, result in entries[:3]:
            assert (
                result_to_cache_dict(found[cfg.cache_key()])
                == result_to_cache_dict(result)
            )
        assert (store.hits, store.misses) == (3, 2)

    def test_get_many_counts_duplicates_once(self, store, seed_run):
        config, result = seed_run
        store.put(config, result)
        found = store.get_many([config, config, config])
        assert len(found) == 1
        assert (store.hits, store.misses) == (1, 0)

    def test_len_counts_active_entries(self, store, seed_run):
        assert len(store) == 0
        store.put_many(synthetic_entries(seed_run, 4))
        assert len(store) == 4

    def test_put_overwrites_in_place(self, store, seed_run):
        config, result = seed_run
        store.put(config, result)
        store.put(config, replace(result, completed_reads=42))
        assert len(store) == 1
        assert store.get(config).completed_reads == 42

    def test_corrupt_entry_quarantined_and_miss(self, store, seed_run):
        config, result = seed_run
        store.put(config, result)
        corrupt_entry(store, config)
        assert store.get(config) is None
        assert store.quarantined == 1
        assert store.misses == 1
        assert quarantine_evidence(store) == 1
        # The corrupt entry is gone, not re-served.
        assert not store.contains(config)
        assert len(store) == 0

    def test_concurrent_writer_hammer(self, store, seed_run):
        """8 threads × shared + private keys: exact counters, no errors."""
        entries = synthetic_entries(seed_run, 24)
        shared_cfg, shared_result = seed_run
        per_thread = 3
        errors = []

        def hammer(worker: int) -> None:
            try:
                mine = entries[worker * per_thread : (worker + 1) * per_thread]
                for cfg, result in mine:
                    store.put(cfg, result)
                    assert store.get(cfg) is not None
                store.put(shared_cfg, shared_result)
                store.get_many([cfg for cfg, _ in mine])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(store) == 25  # 24 private + 1 shared
        assert store.writes == 8 * (per_thread + 1)
        assert store.hits == 8 * per_thread * 2
        assert store.quarantined == 0

    def test_stats_payload(self, store, seed_run):
        store.put_many(synthetic_entries(seed_run, 2))
        store.get(seed_run[0])  # one miss
        stats = store.stats()
        assert stats["backend"] in BACKENDS
        assert stats["entries"] == 2
        assert stats["schema"] == store_schema_tag()
        assert stats["size_bytes"] > 0
        assert (stats["hits"], stats["misses"], stats["writes"]) == (0, 1, 2)
        assert stats["quarantined"] == 0

    def test_compact_keeps_live_entries(self, store, seed_run):
        entries = synthetic_entries(seed_run, 3)
        store.put_many(entries)
        summary = store.compact()
        assert summary["removed_entries"] == 0
        assert len(store) == 3
        assert store.get_many([cfg for cfg, _ in entries]).keys() == {
            cfg.cache_key() for cfg, _ in entries
        }

    def test_compact_drops_quarantine_evidence(self, store, seed_run):
        config, result = seed_run
        store.put(config, result)
        corrupt_entry(store, config)
        store.get(config)
        assert quarantine_evidence(store) == 1
        summary = store.compact()
        assert summary["removed_entries"] == 1
        assert quarantine_evidence(store) == 0


class TestJsonDirStore:
    def test_is_a_disk_cache(self, tmp_path):
        """Full back-compat: a JsonDirStore *is* the historical layout."""
        store = JsonDirStore(tmp_path)
        assert isinstance(store, DiskCache)
        assert DiskCache is JsonDirStore
        # The traced benchmark wraps these through ``cls.__dict__``, so
        # each backend must define them itself, not inherit them.
        for cls in (JsonDirStore, SqliteStore):
            for attr in ("get", "put", "get_many"):
                assert attr in cls.__dict__, (cls.__name__, attr)

    def test_layout_shared_with_plain_diskcache(self, tmp_path, seed_run):
        config, result = seed_run
        JsonDirStore(tmp_path).put(config, result)
        legacy = DiskCache(tmp_path)
        assert result_to_cache_dict(legacy.get(config)) == result_to_cache_dict(
            result
        )
        legacy.put(config.replace(seed=2), replace(result, completed_reads=7))
        assert len(JsonDirStore(tmp_path)) == 2

    def test_compact_prunes_stale_schema_dirs(self, tmp_path, seed_run):
        store = JsonDirStore(tmp_path)
        store.put(*seed_run)
        stale = tmp_path / "v1-0.9.0"
        stale.mkdir()
        (stale / "deadbeef.json").write_text("{}")
        # Not a schema tag: a user's own directory under the root.
        mine = tmp_path / "my_results"
        mine.mkdir()
        (mine / "keep.json").write_text("{}")
        summary = store.compact()
        assert summary == {"removed_entries": 1, "removed_dirs": 1}
        assert not stale.exists()
        assert (mine / "keep.json").exists()
        assert len(store) == 1


class TestSqliteStore:
    def test_stale_schema_rows_are_misses_not_quarantined(
        self, tmp_path, seed_run
    ):
        config, result = seed_run
        store = SqliteStore(tmp_path / "s.sqlite")
        store.put(config, result)
        conn = sqlite3.connect(str(store.path))
        conn.execute("UPDATE results SET schema = 'v1-0.9.0'")
        conn.commit()
        conn.close()
        assert store.get(config) is None
        assert (store.misses, store.quarantined) == (1, 0)
        assert len(store) == 0
        assert store.stats()["stale_entries"] == 1
        summary = store.compact()
        assert summary["removed_stale"] == 1

    def test_concurrent_connections_share_one_file(self, tmp_path, seed_run):
        """Two store instances (two 'processes') see each other's writes."""
        config, result = seed_run
        writer = SqliteStore(tmp_path / "s.sqlite")
        reader = SqliteStore(tmp_path / "s.sqlite")
        writer.put(config, result)
        assert reader.contains(config)
        assert result_to_cache_dict(reader.get(config)) == result_to_cache_dict(
            result
        )

    def test_rejects_directory_path(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            SqliteStore(tmp_path)

    def test_get_many_is_one_query_fast(self, tmp_path, seed_run):
        """The tentpole claim: bulk lookup beats per-key JSON probes."""
        import time

        entries = synthetic_entries(seed_run, 200)
        json_store = JsonDirStore(tmp_path / "json")
        sqlite_store = SqliteStore(tmp_path / "s.sqlite")
        json_store.put_many(entries)
        sqlite_store.put_many(entries)
        configs = [cfg for cfg, _ in entries]

        def best_of(fn, repeats=3):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                found = fn()
                times.append(time.perf_counter() - t0)
                assert len(found) == 200
            return min(times)

        json_time = best_of(
            lambda: {
                cfg.cache_key(): json_store.get(cfg) for cfg in configs
            }
        )
        sqlite_time = best_of(lambda: sqlite_store.get_many(configs))
        assert sqlite_time < json_time, (
            f"SqliteStore.get_many ({sqlite_time * 1e3:.2f} ms) should beat "
            f"per-key JSON probes ({json_time * 1e3:.2f} ms) on a warm "
            f"200-config sweep"
        )


class TestMigration:
    def test_counts_and_payload_equality(self, tmp_path, seed_run):
        entries = synthetic_entries(seed_run, 6)
        source = JsonDirStore(tmp_path)
        source.put_many(entries)
        # One corrupt file must be skipped and counted, not migrated.
        bad = source.directory / ("f" * 24 + ".json")
        bad.write_text("{nope")
        dest = SqliteStore(tmp_path / DEFAULT_SQLITE_FILENAME)
        report = migrate_json_to_sqlite(source, dest, sample=4)
        assert isinstance(report, MigrationReport)
        assert report.scanned == 7
        assert report.migrated == 6
        assert report.skipped_corrupt == 1
        assert report.dest_entries == 6
        assert report.sampled == 4
        assert report.mismatches == []
        assert report.ok
        for cfg, result in entries:
            assert result_to_cache_dict(dest.get(cfg)) == result_to_cache_dict(
                result
            )

    def test_sampled_payloads_are_byte_equal(self, tmp_path, seed_run):
        from repro.store.migrate import _canonical
        from repro.store.sqlite import _decode_payload

        source = JsonDirStore(tmp_path)
        source.put_many(synthetic_entries(seed_run, 3))
        dest = SqliteStore(tmp_path / "m.sqlite")
        report = migrate_json_to_sqlite(source, dest, sample=3)
        assert report.ok and report.sampled == 3
        conn = sqlite3.connect(str(dest.path))
        for path in source.directory.glob("*.json"):
            with open(path) as fh:
                src_payload = json.load(fh)
            row = conn.execute(
                "SELECT payload FROM results WHERE key = ?", (path.stem,)
            ).fetchone()
            assert _canonical(_decode_payload(row[0])) == _canonical(src_payload)
        conn.close()

    def test_mismatched_filename_key_is_skipped(self, tmp_path, seed_run):
        source = JsonDirStore(tmp_path)
        source.put(*seed_run)
        entry = next(source.directory.glob("*.json"))
        entry.rename(entry.with_name("0" * 24 + ".json"))
        dest = SqliteStore(tmp_path / "m.sqlite")
        report = migrate_json_to_sqlite(source, dest)
        assert report.skipped_mismatched_key == 1
        assert report.migrated == 0
        assert report.ok  # skipping is accounted for, not a failure

    def test_cli_migrate_stats_compact(self, tmp_path, seed_run, capsys):
        source = JsonDirStore(tmp_path)
        source.put_many(synthetic_entries(seed_run, 3))
        assert main(["store", "migrate", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "verified           OK" in out
        assert "migrated           3" in out
        assert (tmp_path / DEFAULT_SQLITE_FILENAME).is_file()

        assert main(
            ["store", "stats", "--store", "sqlite", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "backend" in out and "sqlite" in out and "entries" in out

        assert main(
            ["store", "compact", "--store", "sqlite", "--cache-dir",
             str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "removed_entries" in out


class TestMakeStore:
    def test_json_backend(self, tmp_path):
        store = make_store("json", tmp_path)
        assert isinstance(store, JsonDirStore)
        assert store.root == tmp_path

    def test_sqlite_backend_in_directory(self, tmp_path):
        store = make_store("sqlite", tmp_path)
        assert isinstance(store, SqliteStore)
        assert store.path == tmp_path / DEFAULT_SQLITE_FILENAME

    def test_sqlite_backend_explicit_file(self, tmp_path):
        store = make_store("sqlite", tmp_path / "custom.sqlite")
        assert store.path == tmp_path / "custom.sqlite"

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_store("redis", tmp_path)


class TestSweepRunnerIntegration:
    def test_sweep_results_bit_identical_across_backends(self, tmp_path):
        """The acceptance bar: either backend serves identical sweeps."""
        base = ExperimentConfig(workload="sp.D", mechanism="VWL",
                                policy="unaware", **FAST)
        grid = grid_configs(base, alphas=[0.05, 0.2])

        def payload(result):
            # wall_time_s is host timing, not simulation output.
            d = result_to_cache_dict(result)
            d.pop("wall_time_s", None)
            return d

        outcomes = {}
        for backend in BACKENDS:
            store = make_store(backend, tmp_path / backend)
            first = SweepRunner(disk_cache=store)
            outcomes[backend] = [payload(r) for r in first.run_all(grid)]
            assert first.runs == len(grid)
            # A fresh runner over the same store must serve everything
            # from the disk tier via one get_many batch.
            second = SweepRunner(disk_cache=store)
            replayed = [payload(r) for r in second.run_all(grid)]
            assert second.runs == 0
            assert second.disk_hits == len(grid)
            assert replayed == outcomes[backend]
        assert outcomes["json"] == outcomes["sqlite"]


class TestStoredRowsBitIdentical:
    """A stored result reduces to exactly the floats a fresh one does.

    The SQLite store hands ``watts`` back in sorted key order and both
    stores return link hours sorted; power totals and figure 13 must
    not depend on that order.  Both the grid and the extra run were
    picked because summing them in the stores' order changes the last
    bit.
    """

    SETTINGS = F.RunSettings(
        workloads=("sp.D", "mixB"),
        topologies=("ternary_tree",),
        **FAST,
    )

    @pytest.fixture(scope="class")
    def fresh(self):
        runner = SweepRunner()
        rows = F.fig13_link_hours(runner, self.SETTINGS, scale="small")
        runner.run(
            ExperimentConfig(workload="mixB", mechanism="VWL", policy="unaware",
                             collect_link_hours=True, **FAST)
        )
        return list(runner.cache.values()), rows

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trip(self, tmp_path, fresh, backend):
        results, rows = fresh
        store = make_store(backend, tmp_path)
        for result in results:
            assert result.link_hours
            store.put(result.config, result)
        for result in results:
            stored = store.get(result.config)
            assert stored.link_hours == result.link_hours
            for name in ("total_w", "io_fraction", "idle_io_fraction"):
                assert getattr(stored.breakdown, name) == getattr(
                    result.breakdown, name
                ), name
        replay = SweepRunner(disk_cache=store)
        assert F.fig13_link_hours(replay, self.SETTINGS, scale="small") == rows
        assert replay.runs == 0
