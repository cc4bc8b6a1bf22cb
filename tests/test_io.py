"""Tests for config/result serialization and batch specs."""

import csv
import json
from dataclasses import asdict

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.io import (
    RESULT_FIELDS,
    config_from_dict,
    config_to_dict,
    load_batch,
    result_from_cache_dict,
    result_to_cache_dict,
    result_to_dict,
    save_results_csv,
    save_results_json,
)

FAST = dict(window_ns=50_000.0, epoch_ns=15_000.0)


@pytest.fixture(scope="module")
def result():
    return run_experiment(
        ExperimentConfig(workload="sp.D", mechanism="VWL", policy="unaware", **FAST)
    )


class TestConfigRoundtrip:
    def test_roundtrip_identity(self):
        cfg = ExperimentConfig(
            workload="is.D", topology="box", scale="big",
            mechanism="DVFS+ROO", policy="aware", alpha=0.1, seed=7,
            wake_ns=20.0, mapping="interleaved",
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_json_serializable(self):
        cfg = ExperimentConfig(workload="lu.D")
        json.dumps(config_to_dict(cfg))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"workload": "lu.D", "frobnicate": 1})

    @pytest.mark.parametrize(
        "extra",
        [
            {},
            dict(mechanism="VWL+ROO", policy="aware", mechanism_overrides="depth>=2:FP"),
            dict(audit="warn", trace_path="t.jsonl", trace_format="csv"),
            dict(fault_spec="crc=0.01", collect_link_hours=True, metrics_path="m.json"),
        ],
    )
    def test_to_dict_matches_asdict_reference(self, extra):
        """Same keys, values and key order as ``dataclasses.asdict`` with
        the two omission rules applied."""
        cfg = ExperimentConfig(workload="lu.D", **extra)
        reference = asdict(cfg)
        for name in ("mechanism_overrides", "audit"):
            if not reference[name]:
                del reference[name]
        assert list(config_to_dict(cfg).items()) == list(reference.items())


class TestResultFlattening:
    def test_all_fields_present(self, result):
        row = result_to_dict(result)
        assert set(row) == set(RESULT_FIELDS)

    def test_result_fields_drift_guard(self, result):
        # RESULT_FIELDS is the CSV header contract: it must match the
        # keys result_to_dict emits, in order, with no strays either way.
        assert list(result_to_dict(result)) == list(RESULT_FIELDS)

    def test_values_consistent(self, result):
        row = result_to_dict(result)
        assert row["num_modules"] == result.num_modules
        assert row["network_power_w"] == pytest.approx(
            row["power_per_hmc_w"] * row["num_modules"]
        )
        buckets = (
            row["idle_io_w"] + row["active_io_w"] + row["logic_leak_w"]
            + row["logic_dyn_w"] + row["dram_leak_w"] + row["dram_dyn_w"]
        )
        assert buckets == pytest.approx(row["power_per_hmc_w"])


class TestCacheDictRoundtrip:
    def test_roundtrip_is_lossless(self, result):
        data = json.loads(json.dumps(result_to_cache_dict(result)))
        assert result_from_cache_dict(data) == result

    def test_link_hours_tuple_keys_roundtrip(self):
        rich = run_experiment(
            ExperimentConfig(
                workload="sp.D", mechanism="VWL", policy="unaware",
                collect_link_hours=True, **FAST,
            )
        )
        assert rich.link_hours  # tuple-keyed dict, not JSON-safe as-is
        data = json.loads(json.dumps(result_to_cache_dict(rich)))
        assert result_from_cache_dict(data).link_hours == rich.link_hours


class TestPersistence:
    def test_save_json(self, result, tmp_path):
        path = str(tmp_path / "out.json")
        assert save_results_json(path, [result]) == 1
        payload = json.loads(open(path).read())
        assert payload[0]["config"]["workload"] == "sp.D"
        assert payload[0]["metrics"]["completed_reads"] > 0

    def test_save_csv(self, result, tmp_path):
        path = str(tmp_path / "out.csv")
        assert save_results_csv(path, [result, result]) == 2
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["workload"] == "sp.D"
        assert float(rows[0]["power_per_hmc_w"]) > 0


class TestBatchSpecs:
    def test_explicit_list(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([
            {"workload": "lu.D"},
            {"workload": "sp.D", "mechanism": "VWL", "policy": "unaware"},
        ]))
        configs = load_batch(str(path))
        assert len(configs) == 2
        assert configs[1].mechanism == "VWL"

    def test_grid_expansion(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({
            "base": {"workload": "lu.D", "window_ns": 50_000.0},
            "grid": {
                "workload": ["lu.D", "sp.D"],
                "mechanism": ["VWL", "ROO"],
                "alpha": [0.025, 0.05],
            },
        }))
        configs = load_batch(str(path))
        assert len(configs) == 8
        assert all(c.window_ns == 50_000.0 for c in configs)

    def test_bad_axis_rejected(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({
            "base": {"workload": "lu.D"},
            "grid": {"seed": [1, 2]},
        }))
        with pytest.raises(ValueError):
            load_batch(str(path))

    def test_bad_shape_rejected(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"grid": {}}))
        with pytest.raises(ValueError):
            load_batch(str(path))
