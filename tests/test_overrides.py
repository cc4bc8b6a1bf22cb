"""Tests for the per-link mechanism override layer: spec parsing and
canonicalization, resolution against concrete topologies, heterogeneous
network wiring, cache-key behavior, and end-to-end determinism."""

import pytest

from repro.core.mechanisms import make_mechanism
from repro.core.overrides import (
    LinkMechanism,
    OverrideClause,
    OverrideError,
    canonical_override_spec,
    parse_mechanism_overrides,
    resolve_link_mechanisms,
)
from repro.harness.builder import SimulationBuilder
from repro.harness.executor import ParallelExecutor, SerialExecutor
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.io import config_to_dict, result_to_cache_dict, result_to_dict
from repro.network.network import MemoryNetwork
from repro.network.topology import build_topology, daisychain, ternary_tree
from repro.sim.engine import Simulator
from repro.workloads.mapping import make_mapping

FAST = dict(window_ns=40_000.0, epoch_ns=15_000.0)


class TestParsing:
    def test_empty_spec_parses_to_nothing(self):
        assert parse_mechanism_overrides("") == ()
        assert parse_mechanism_overrides("   ") == ()
        assert canonical_override_spec("") == ""

    def test_depth_clause(self):
        (clause,) = parse_mechanism_overrides("depth>=3:ROO")
        assert clause.kind == "depth"
        assert clause.op == ">="
        assert clause.value == 3
        assert clause.mechanism == "ROO"

    def test_link_clause_directions(self):
        both, up, down = parse_mechanism_overrides(
            "link:m2:FP,link:m2-up:VWL,link:m2-down:ROO"
        )
        assert (both.kind, both.value, both.direction) == ("link", 2, "")
        assert (up.value, up.direction) == (2, "up")
        assert (down.value, down.direction) == (2, "down")

    def test_clause_order_is_preserved(self):
        clauses = parse_mechanism_overrides("depth>=1:VWL,link:m0-up:FP")
        assert [c.kind for c in clauses] == ["depth", "link"]

    def test_canonicalization(self):
        # Case, whitespace, '=' vs '==', and mechanism aliases all
        # normalize; equivalent spellings become the same string.
        messy = "  Depth >= 2 : roo+vwl ,  LINK : m1-up : fp "
        assert canonical_override_spec(messy) == "depth>=2:VWL+ROO,link:m1-up:FP"
        assert canonical_override_spec("depth=3:dvfs") == "depth==3:DVFS"

    def test_canonical_is_idempotent(self):
        spec = "depth>=2:VWL+ROO,link:m1-up:FP"
        assert canonical_override_spec(spec) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "depth>=2",             # no mechanism
            ":VWL",                 # no selector
            "depth>=2:VWL,,",       # empty clause
            "depth!=2:VWL",         # unsupported operator
            "width>=2:VWL",         # unknown selector
            "link:q2:VWL",          # malformed link selector
            "link:m2-sideways:VWL", # unknown direction
            "depth>=2:WARP",        # unknown mechanism
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(OverrideError):
            parse_mechanism_overrides(bad)

    def test_override_error_is_a_value_error(self):
        assert issubclass(OverrideError, ValueError)

    def test_depth_operators_match(self):
        def clause(op, value):
            return OverrideClause(kind="depth", mechanism="FP", op=op, value=value)

        assert clause(">=", 2).matches(0, 2, "up")
        assert not clause(">=", 2).matches(0, 1, "up")
        assert clause("<=", 2).matches(0, 2, "down")
        assert clause("==", 2).matches(0, 2, "up")
        assert not clause("==", 2).matches(0, 3, "up")
        assert clause("<", 2).matches(0, 1, "up")
        assert clause(">", 2).matches(0, 3, "up")

    def test_link_clause_direction_matching(self):
        both = OverrideClause(kind="link", mechanism="FP", value=1)
        up = OverrideClause(kind="link", mechanism="FP", value=1, direction="up")
        assert both.matches(1, 5, "up") and both.matches(1, 5, "down")
        assert up.matches(1, 5, "up") and not up.matches(1, 5, "down")
        assert not both.matches(2, 5, "up")


class TestResolve:
    def test_empty_spec_resolves_to_no_overrides(self):
        base = make_mechanism("FP")
        assert resolve_link_mechanisms("", daisychain(4), base) == {}

    def test_depth_band_selects_both_directions(self):
        base = make_mechanism("FP")
        resolved = resolve_link_mechanisms("depth>=2:VWL", daisychain(4), base)
        # Modules 1..3 sit at depths 2..4; module 0 (depth 1) is untouched.
        assert set(resolved) == {
            "req:0->1", "resp:1->0",
            "req:1->2", "resp:2->1",
            "req:2->3", "resp:3->2",
        }
        assert all(lm.mechanism.name == "VWL" for lm in resolved.values())

    def test_single_link_selector(self):
        base = make_mechanism("FP")
        resolved = resolve_link_mechanisms("link:m2-up:ROO", daisychain(4), base)
        (lm,) = resolved.values()
        assert isinstance(lm, LinkMechanism)
        assert lm.link_name == "resp:2->1"
        assert (lm.module, lm.direction, lm.depth) == (2, "up", 3)
        assert lm.mechanism.name == "ROO"
        assert lm.source == "link:m2-up:ROO"

    def test_last_matching_clause_wins(self):
        base = make_mechanism("FP")
        resolved = resolve_link_mechanisms(
            "depth>=1:VWL,link:m0-up:ROO", daisychain(2), base
        )
        assert resolved["resp:0->-1"].mechanism.name == "ROO"
        assert resolved["req:-1->0"].mechanism.name == "VWL"

    def test_base_mechanism_match_reuses_base_object(self):
        base = make_mechanism("FP")
        resolved = resolve_link_mechanisms("link:m0:FP", daisychain(2), base)
        assert resolved["req:-1->0"].mechanism is base
        assert resolved["resp:0->-1"].mechanism is base

    def test_distinct_links_share_one_config_per_name(self):
        base = make_mechanism("FP")
        resolved = resolve_link_mechanisms("depth>=1:VWL", daisychain(3), base)
        configs = {id(lm.mechanism) for lm in resolved.values()}
        assert len(configs) == 1

    def test_wake_ns_threads_into_override_mechanisms(self):
        base = make_mechanism("FP")
        resolved = resolve_link_mechanisms(
            "link:m0:ROO", daisychain(1), base, wake_ns=20.0
        )
        assert resolved["resp:0->-1"].mechanism.wake_ns == 20.0

    def test_unknown_module_rejected_with_topology_bounds(self):
        base = make_mechanism("FP")
        with pytest.raises(OverrideError, match="modules 0..3"):
            resolve_link_mechanisms("link:m9:VWL", daisychain(4), base)

    def test_depths_follow_topology_not_module_ids(self):
        base = make_mechanism("FP")
        # ternary_tree(4): root 0 at depth 1, children 1..3 at depth 2.
        resolved = resolve_link_mechanisms("depth==2:ROO", ternary_tree(4), base)
        assert set(resolved) == {
            "req:0->1", "resp:1->0",
            "req:0->2", "resp:2->0",
            "req:0->3", "resp:3->0",
        }


class TestHeterogeneousNetwork:
    def _network(self, spec, base_name="FP", n=4):
        topo = build_topology("daisychain", n)
        base = make_mechanism(base_name)
        mapping = make_mapping("contiguous", footprint_gb=1.0, scale="small")
        resolved = resolve_link_mechanisms(spec, topo, base)
        return MemoryNetwork(
            Simulator(), topo, base, mapping,
            link_mechanisms={name: lm.mechanism for name, lm in resolved.items()},
        )

    def test_overridden_links_carry_their_own_mechanism(self):
        network = self._network("depth>=3:VWL+ROO")
        by_name = {link.name: link for link in network.all_links()}
        assert by_name["req:1->2"].mech.name == "VWL+ROO"
        assert by_name["req:-1->0"].mech.name == "FP"

    def test_roo_enabled_follows_per_link_mechanism(self):
        network = self._network("depth>=3:VWL+ROO")
        by_name = {link.name: link for link in network.all_links()}
        assert by_name["resp:3->2"].roo_enabled
        assert not by_name["resp:0->-1"].roo_enabled

    def test_aggregates_reflect_the_mix(self):
        homogeneous = self._network("")
        assert not homogeneous.has_roo_links
        assert not homogeneous.has_width_scaling_links
        mixed = self._network("depth>=3:VWL+ROO")
        assert mixed.has_roo_links
        assert mixed.has_width_scaling_links
        roo_only = self._network("link:m3:ROO")
        assert roo_only.has_roo_links
        assert not roo_only.has_width_scaling_links

    def test_unknown_link_name_rejected_by_network(self):
        topo = build_topology("daisychain", 2)
        base = make_mechanism("FP")
        mapping = make_mapping("contiguous", footprint_gb=1.0, scale="small")
        with pytest.raises(ValueError, match="req:0->7"):
            MemoryNetwork(
                Simulator(), topo, base, mapping,
                link_mechanisms={"req:0->7": make_mechanism("VWL")},
            )


class TestConfigIntegration:
    def test_spec_canonicalized_at_construction(self):
        cfg = ExperimentConfig(
            workload="sp.D", mechanism_overrides="Depth>=2 : roo+vwl", **FAST
        )
        assert cfg.mechanism_overrides == "depth>=2:VWL+ROO"

    def test_invalid_spec_rejected_at_construction(self):
        with pytest.raises(OverrideError):
            ExperimentConfig(workload="sp.D", mechanism_overrides="bogus", **FAST)

    def test_equivalent_spellings_share_a_cache_key(self):
        a = ExperimentConfig(
            workload="sp.D", mechanism_overrides="depth>=2:VWL+ROO", **FAST
        )
        b = ExperimentConfig(
            workload="sp.D", mechanism_overrides="depth >= 2 : ROO+VWL", **FAST
        )
        assert a.cache_key() == b.cache_key()

    def test_overrides_split_the_cache_key(self):
        plain = ExperimentConfig(workload="sp.D", **FAST)
        hetero = plain.replace(mechanism_overrides="depth>=2:VWL+ROO")
        assert plain.cache_key() != hetero.cache_key()

    def test_baseline_strips_overrides(self):
        hetero = ExperimentConfig(
            workload="sp.D", mechanism="VWL+ROO", policy="aware",
            mechanism_overrides="depth<=1:FP", **FAST
        )
        assert hetero.baseline().mechanism_overrides == ""
        assert hetero.baseline() == ExperimentConfig(workload="sp.D", **FAST).baseline()

    def test_empty_spec_omitted_from_serialized_config(self):
        plain = ExperimentConfig(workload="sp.D", **FAST)
        assert "mechanism_overrides" not in config_to_dict(plain)
        hetero = plain.replace(mechanism_overrides="depth>=2:VWL")
        assert config_to_dict(hetero)["mechanism_overrides"] == "depth>=2:VWL"


class TestEndToEnd:
    HETERO = dict(
        workload="sp.D", topology="daisychain", mechanism="FP",
        mechanism_overrides="depth>=2:VWL+ROO,link:m0-up:FP",
        policy="aware", alpha=0.05, **FAST,
    )

    def test_heterogeneous_run_completes_and_reports_spec(self):
        result = run_experiment(ExperimentConfig(**self.HETERO))
        assert result.completed_reads > 0
        row = result_to_dict(result)
        assert row["mechanism_overrides"] == "depth>=2:VWL+ROO,link:m0-up:FP"

    def test_overrides_change_measured_power(self):
        managed = run_experiment(ExperimentConfig(**self.HETERO))
        plain = run_experiment(
            ExperimentConfig(**{**self.HETERO, "mechanism_overrides": ""})
        )
        # FP links cannot sleep or narrow, so the depth-staged mix must
        # spend less I/O power than the all-FP run under the same policy.
        assert managed.network_power_w < plain.network_power_w

    def test_serial_and_parallel_heterogeneous_runs_identical(self):
        configs = [
            ExperimentConfig(**{**self.HETERO, "seed": s}) for s in (1, 2)
        ]
        serial = SerialExecutor().run_many(configs)
        parallel = ParallelExecutor(jobs=2).run_many(configs)

        def norm(r):
            d = result_to_cache_dict(r)
            d.pop("wall_time_s")
            return d

        assert [norm(r) for r in serial] == [norm(r) for r in parallel]

    def test_builder_exposes_resolved_link_mechanisms(self):
        simulation = SimulationBuilder(ExperimentConfig(**self.HETERO)).build()
        assert simulation.link_mechanisms
        assert all(
            lm.mechanism.name in ("VWL+ROO", "FP")
            for lm in simulation.link_mechanisms.values()
        )
        # The spec pins module 0's response link back to the base FP.
        assert simulation.link_mechanisms["resp:0->-1"].mechanism.name == "FP"
