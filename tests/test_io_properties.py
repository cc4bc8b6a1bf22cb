"""Property tests for serialization round-trips."""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.experiment import OBSERVABILITY_FIELDS, ExperimentConfig
from repro.harness.io import config_from_dict, config_to_dict
from repro.workloads.profiles import WORKLOAD_NAMES
from repro.workloads.traces import TraceRecord

_MECHANISMS = ["FP", "VWL", "ROO", "DVFS", "VWL+ROO", "DVFS+ROO"]

config_strategy = st.builds(
    ExperimentConfig,
    workload=st.sampled_from(WORKLOAD_NAMES),
    topology=st.sampled_from(["daisychain", "ternary_tree", "star", "ddrx_like", "box"]),
    scale=st.sampled_from(["small", "big"]),
    # Mixed-case spellings must canonicalize, not fork the config space.
    mechanism=st.sampled_from(_MECHANISMS).flatmap(
        lambda m: st.sampled_from([m, m.lower(), m.capitalize()])
    ),
    policy=st.sampled_from(["none", "unaware", "aware", "static"]),
    alpha=st.floats(min_value=0.0, max_value=0.5),
    window_ns=st.floats(min_value=1.0, max_value=1e7),
    epoch_ns=st.floats(min_value=1_000.0, max_value=100_000.0),
    seed=st.integers(min_value=0, max_value=2**31),
    wake_ns=st.sampled_from([14.0, 20.0]),
    mapping=st.sampled_from(["contiguous", "interleaved"]),
    collect_link_hours=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(config=config_strategy)
def test_config_roundtrip_property(config):
    assert config_from_dict(config_to_dict(config)) == config


@settings(max_examples=60, deadline=None)
@given(config=config_strategy)
def test_mechanism_canonicalized_property(config):
    assert config.mechanism == config.mechanism.upper()
    assert config == config.replace(mechanism=config.mechanism.lower())


def historical_cache_key(config):
    """The key as ``cache_key()`` has always computed it, step by step."""
    payload = {
        name: getattr(config, name)
        for name in sorted(config.__dataclass_fields__)
        if name not in OBSERVABILITY_FIELDS
    }
    if not payload["mechanism_overrides"]:
        del payload["mechanism_overrides"]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


@settings(max_examples=60, deadline=None)
@given(config=config_strategy)
def test_cache_key_property(config):
    key = config.cache_key()
    assert key == historical_cache_key(config)
    # Stable and insensitive to observability flags...
    assert key == config.cache_key()
    assert key == config.replace(
        collect_link_hours=not config.collect_link_hours
    ).cache_key()
    # ...but sensitive to any simulation-affecting change.
    assert key != config.replace(seed=config.seed + 1).cache_key()
    assert key != config.replace(window_ns=config.window_ns + 1.0).cache_key()


@settings(max_examples=60, deadline=None)
@given(
    time_ns=st.floats(min_value=0, max_value=1e9),
    address=st.integers(min_value=0, max_value=2**48),
    is_read=st.booleans(),
    stream=st.integers(min_value=0, max_value=1023),
)
def test_trace_record_roundtrip_property(time_ns, address, is_read, stream):
    record = TraceRecord(time_ns, address, is_read, stream)
    parsed = TraceRecord.from_line(record.to_line())
    assert parsed.address == record.address
    assert parsed.is_read == record.is_read
    assert parsed.stream == record.stream
    assert abs(parsed.time_ns - record.time_ns) <= 0.001
