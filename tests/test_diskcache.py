"""Tests for the persistent on-disk result cache and its SweepRunner
integration: cross-invocation reuse, schema invalidation, observability
sufficiency, cache-key aliasing, and concurrent reader/writer safety."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.harness.diskcache import DiskCache, default_cache_dir
from repro.harness.experiment import ExperimentConfig
from repro.harness.sweep import SweepRunner, grid_configs
from repro.store import base as store_base

FAST = dict(window_ns=40_000.0, epoch_ns=15_000.0)


@pytest.fixture()
def cfg():
    return ExperimentConfig(workload="sp.D", mechanism="VWL", policy="unaware", **FAST)


class TestCacheKey:
    def test_case_aliases_share_a_key(self):
        lower = ExperimentConfig(workload="sp.D", mechanism="vwl+roo", **FAST)
        upper = ExperimentConfig(workload="sp.D", mechanism="VWL+ROO", **FAST)
        assert lower == upper
        assert lower.cache_key() == upper.cache_key()

    def test_observability_flags_share_a_key(self, cfg):
        assert cfg.cache_key() == cfg.replace(collect_link_hours=True).cache_key()

    def test_simulation_fields_split_keys(self, cfg):
        for change in (
            dict(seed=2), dict(alpha=0.1), dict(workload="lu.D"),
            dict(topology="star"), dict(mechanism="ROO"), dict(policy="aware"),
            dict(window_ns=50_000.0), dict(wake_ns=20.0),
            dict(mapping="interleaved"), dict(scale="big"),
        ):
            assert cfg.cache_key() != cfg.replace(**change).cache_key(), change

    def test_baseline_normalizes_non_simulation_fields(self, cfg):
        # With policy "none" / mechanism "FP", alpha and wake_ns are
        # inert; baselines of different managed points must collapse
        # into one simulation.
        a = cfg.replace(alpha=0.025).baseline()
        b = cfg.replace(alpha=0.05, wake_ns=20.0).baseline()
        assert a.cache_key() == b.cache_key()


class TestDiskCache:
    def test_miss_then_hit_roundtrip(self, tmp_path, cfg):
        cache = DiskCache(tmp_path)
        assert cache.get(cfg) is None
        assert cache.misses == 1
        runner = SweepRunner()
        result = runner.run(cfg)
        cache.put(cfg, result)
        assert len(cache) == 1
        again = cache.get(cfg)
        assert cache.hits == 1
        assert again == result  # full dataclass equality, floats exact

    def test_schema_bump_invalidates(self, tmp_path, cfg, monkeypatch):
        cache = DiskCache(tmp_path)
        cache.put(cfg, SweepRunner().run(cfg))
        monkeypatch.setattr(store_base, "SCHEMA_VERSION", store_base.SCHEMA_VERSION + 1)
        fresh = DiskCache(tmp_path)
        assert fresh.get(cfg) is None
        assert len(fresh) == 0

    def test_v1_entries_are_misses_under_v2(self, tmp_path, cfg, monkeypatch):
        """Entries written under schema v1 (before mechanism_overrides
        joined the payload) are silently skipped, never read as stale
        hits and never crashed on."""
        assert store_base.SCHEMA_VERSION == 2
        monkeypatch.setattr(store_base, "SCHEMA_VERSION", 1)
        old = DiskCache(tmp_path)
        v1_path = old.put(cfg, SweepRunner().run(cfg))
        monkeypatch.setattr(store_base, "SCHEMA_VERSION", 2)
        fresh = DiskCache(tmp_path)
        assert fresh.get(cfg) is None
        assert fresh.misses == 1
        assert fresh.quarantined == 0  # a miss, not corruption
        assert len(fresh) == 0
        # The v1 entry is untouched on disk for anyone still on v1.
        assert v1_path.exists()

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path, cfg):
        cache = DiskCache(tmp_path)
        cache.put(cfg, SweepRunner().run(cfg))
        cache.path_for(cfg).write_text("{ truncated")
        assert cache.get(cfg) is None
        assert not cache.path_for(cfg).exists()

    def test_root_must_be_a_directory(self, tmp_path):
        not_a_dir = tmp_path / "plain-file"
        not_a_dir.write_text("")
        with pytest.raises(NotADirectoryError):
            DiskCache(not_a_dir)

    def test_default_root_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        assert DiskCache().root == tmp_path / "alt"


class TestSweepRunnerWithDiskCache:
    def test_second_invocation_simulates_nothing(self, tmp_path):
        """Acceptance: a fresh runner over a warm disk cache does zero
        simulations on a fig15-style grid, proven by the counters."""
        base = ExperimentConfig(workload="sp.D", **FAST)
        grid = grid_configs(
            base, mechanisms=["VWL", "ROO"], policies=["unaware", "aware"],
            alphas=[0.025, 0.05],
        )
        first = SweepRunner(disk_cache=DiskCache(tmp_path))
        results = first.run_all(grid)
        assert first.runs == len(grid)
        second = SweepRunner(disk_cache=DiskCache(tmp_path))
        replayed = second.run_all(grid)
        assert second.runs == 0
        assert second.disk_hits == len(grid)
        assert replayed == results

    def test_cached_run_without_link_hours_is_rerun(self, tmp_path, cfg):
        runner = SweepRunner(disk_cache=DiskCache(tmp_path))
        plain = runner.run(cfg)
        assert plain.link_hours is None
        rich = runner.run(cfg.replace(collect_link_hours=True))
        assert runner.runs == 2  # the plain cache entry did not satisfy
        assert rich.link_hours
        # The richer run overwrote both layers; now either request hits.
        fresh = SweepRunner(disk_cache=DiskCache(tmp_path))
        assert fresh.run(cfg.replace(collect_link_hours=True)).link_hours
        assert fresh.run(cfg) == rich
        assert fresh.runs == 0

    def test_run_all_prefers_richer_alias(self, cfg):
        runner = SweepRunner()
        results = runner.run_all([cfg, cfg.replace(collect_link_hours=True)])
        assert runner.runs == 1
        assert results[0].link_hours is not None
        assert results[0] is results[1]

    def test_case_alias_never_double_simulates(self, tmp_path):
        runner = SweepRunner(disk_cache=DiskCache(tmp_path))
        lower = ExperimentConfig(
            workload="sp.D", mechanism="vwl", policy="unaware", **FAST
        )
        upper = ExperimentConfig(
            workload="sp.D", mechanism="VWL", policy="unaware", **FAST
        )
        assert runner.run(lower) is runner.run(upper)
        assert runner.runs == 1

    def test_memory_layer_preferred_over_disk(self, tmp_path, cfg):
        runner = SweepRunner(disk_cache=DiskCache(tmp_path))
        runner.run(cfg)
        runner.run(cfg)
        assert runner.memory_hits == 1
        assert runner.disk_cache.hits == 0


class TestDiskCacheConcurrency:
    """One shared DiskCache under a thread pool (the serving workload:
    every HTTP handler thread funnels through a single instance)."""

    THREADS = 8
    ROUNDS = 25

    def test_thread_pool_hammering_one_key(self, tmp_path, cfg):
        cache = DiskCache(tmp_path)
        result = SweepRunner().run(cfg)
        bad = []
        barrier = threading.Barrier(self.THREADS)

        def hammer(_worker: int) -> None:
            barrier.wait()  # maximize overlap
            for _ in range(self.ROUNDS):
                cache.put(cfg, result)
                got = cache.get(cfg)
                # Writes are atomic: a concurrent reader sees a complete
                # entry (old or new), never a torn one and never a miss.
                if got != result:
                    bad.append(got)

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            for future in [
                pool.submit(hammer, i) for i in range(self.THREADS)
            ]:
                future.result()
        total = self.THREADS * self.ROUNDS
        assert not bad
        assert cache.writes == total
        assert cache.hits == total
        assert cache.misses == 0
        assert cache.quarantined == 0
        assert len(cache) == 1  # no stray tmp files counted as entries
        assert cache.get(cfg) == result

    def test_concurrent_quarantine_counts_once(self, tmp_path, cfg):
        cache = DiskCache(tmp_path)
        cache.put(cfg, SweepRunner().run(cfg))
        cache.path_for(cfg).write_text("{ torn")
        barrier = threading.Barrier(self.THREADS)

        def read(_worker: int):
            barrier.wait()
            return cache.get(cfg)

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            results = [
                f.result()
                for f in [pool.submit(read, i) for i in range(self.THREADS)]
            ]
        # Every racer sees a miss; exactly one wins the quarantine move.
        assert results == [None] * self.THREADS
        assert cache.misses == self.THREADS
        assert cache.quarantined == 1
        assert not cache.path_for(cfg).exists()
        quarantine = cache.directory / "quarantine"
        assert len(list(quarantine.glob("*.json"))) == 1
