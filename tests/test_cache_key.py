"""``ExperimentConfig.cache_key()``: pinned bytes and the per-instance memo.

The literal keys below name entries in every on-disk store and in the
benchmark's reference digests, so a change to how the key is computed
must leave each of them byte-identical.
"""

import pickle
import sys
import threading
from dataclasses import asdict

import pytest

from repro.harness.experiment import ExperimentConfig
from repro.harness.io import config_to_dict

#: name -> (constructor keywords, the key those configs have always had).
GOLDEN = {
    "plain": (dict(workload="sp.D"), "975d3c26f383d7f58b732589"),
    "mechanism_alias": (
        dict(workload="lu.D", mechanism="roo+vwl", policy="aware"),
        "9bbded7cfcd21a81c217df7b",
    ),
    "mechanism_overrides": (
        dict(
            workload="mixB",
            mechanism="VWL",
            policy="unaware",
            mechanism_overrides="depth>=3:ROO+VWL,link:m2-up:FP",
        ),
        "46d0db6e2ec3c3b80f2f2168",
    ),
    "fault_spec": (
        dict(
            workload="sp.D",
            fault_spec="seed=7,crc=0.3,crc_bursts=4,burst_ns=8000,down=1,stall=2",
        ),
        "7d7992155b3b4ad43b63edd5",
    ),
    # Observability never reaches the key: same bytes as "plain".
    "observability": (
        dict(
            workload="sp.D",
            collect_link_hours=True,
            trace_path="t.jsonl",
            trace_format="jsonl",
            trace_categories="fault,link",
            metrics_path="m.json",
            audit="strict",
        ),
        "975d3c26f383d7f58b732589",
    ),
    "big_scale": (
        dict(
            workload="mixB",
            topology="ternary_tree",
            scale="big",
            mechanism="DVFS",
            policy="unaware",
        ),
        "3a925abf3679695c5b6e9fb7",
    ),
    "non_round_floats": (
        dict(workload="sp.D", alpha=0.1 + 0.2, window_ns=1e5 / 3),
        "089809dc6f7f661179e8d016",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_key(name):
    kwargs, key = GOLDEN[name]
    config = ExperimentConfig(**kwargs)
    assert config.cache_key() == key
    # The memoized answer is the same bytes.
    assert config.cache_key() == key


def test_alias_and_canonical_spelling_share_a_key():
    alias = ExperimentConfig(workload="lu.D", mechanism="roo+vwl", policy="aware")
    canonical = ExperimentConfig(workload="lu.D", mechanism="VWL+ROO", policy="aware")
    assert alias.cache_key() == canonical.cache_key()


class TestMemo:
    def config(self):
        return ExperimentConfig(**GOLDEN["mechanism_overrides"][0])

    def test_replace_gets_its_own_key(self):
        config = self.config()
        key = config.cache_key()
        changed = config.replace(seed=2)
        assert changed.cache_key() != key
        assert changed.cache_key() == ExperimentConfig(
            **{**GOLDEN["mechanism_overrides"][0], "seed": 2}
        ).cache_key()
        assert config.replace(collect_link_hours=True).cache_key() == key
        assert config.cache_key() == key

    @pytest.mark.parametrize("call_first", [False, True])
    def test_pickle_round_trip_keeps_the_key(self, call_first):
        config = self.config()
        if call_first:
            config.cache_key()
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.cache_key() == GOLDEN["mechanism_overrides"][1]

    def test_memo_is_invisible(self):
        config = self.config()
        before = (
            config_to_dict(config),
            asdict(config),
            hash(config),
            repr(config),
        )
        twin = self.config()
        config.cache_key()
        assert config == twin
        after = (
            config_to_dict(config),
            asdict(config),
            hash(config),
            repr(config),
        )
        assert after == before

    def test_concurrent_first_calls_agree(self):
        config = self.config()
        barrier = threading.Barrier(8)
        keys = []

        def first_call():
            barrier.wait(timeout=10)
            keys.append(config.cache_key())

        threads = [threading.Thread(target=first_call) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert keys == [GOLDEN["mechanism_overrides"][1]] * 8
        assert config.cache_key() == GOLDEN["mechanism_overrides"][1]
