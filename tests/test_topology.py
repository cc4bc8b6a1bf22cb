"""Unit and property tests for network topologies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import (
    Radix,
    Topology,
    TopologyError,
    TOPOLOGY_BUILDERS,
    TOPOLOGY_NAMES,
    box,
    build_topology,
    daisychain,
    ddrx_like,
    star,
    ternary_tree,
)


class TestRadix:
    def test_high_radix_has_four_full_links(self):
        assert Radix.HIGH.full_links == 4
        assert Radix.HIGH.max_children == 3

    def test_low_radix_has_two_full_links(self):
        assert Radix.LOW.full_links == 2
        assert Radix.LOW.max_children == 1


class TestDaisychain:
    def test_structure(self):
        t = daisychain(4)
        assert t.parent == [-1, 0, 1, 2]
        assert all(r is Radix.LOW for r in t.radix)

    def test_depths_are_linear(self):
        t = daisychain(5)
        assert [t.depth(i) for i in range(5)] == [1, 2, 3, 4, 5]
        assert t.max_depth == 5

    def test_single_module(self):
        t = daisychain(1)
        assert t.num_modules == 1
        assert t.depth(0) == 1


class TestTernaryTree:
    def test_root_children(self):
        t = ternary_tree(4)
        assert t.children[0] == [1, 2, 3]

    def test_all_high_radix(self):
        t = ternary_tree(13)
        assert all(r is Radix.HIGH for r in t.radix)

    def test_minimal_depth(self):
        # 1 + 3 + 9 = 13 modules fit within depth 3.
        t = ternary_tree(13)
        assert t.max_depth == 3

    def test_bfs_numbering(self):
        t = ternary_tree(13)
        assert [t.depth(i) for i in range(13)] == [1] + [2] * 3 + [3] * 9


class TestStar:
    def test_root_is_high_radix(self):
        t = star(4)
        assert t.radix[0] is Radix.HIGH

    def test_small_star_matches_ternary_tree_depths(self):
        # Section III-A: for smaller sizes, star matches ternary-tree
        # hop distances with fewer high-radix HMCs.
        for n in (2, 3, 4, 5, 6, 7):
            s, tt = star(n), ternary_tree(n)
            assert s.max_depth == tt.max_depth, f"n={n}"
            assert s.num_high_radix() <= tt.num_high_radix(), f"n={n}"

    def test_chain_nodes_are_low_radix(self):
        t = star(7)  # root + ring of 3 + ring of 3, one child each
        assert sum(1 for r in t.radix if r is Radix.HIGH) == 1

    def test_fanout_nodes_become_high_radix(self):
        t = star(13)
        # Ring-1 nodes must fan out to support ring 2 of 9.
        assert t.radix[1] is Radix.HIGH


class TestDdrxLike:
    def test_row0_layout(self):
        t = ddrx_like(3)
        # Figure 3: row 0 reads "1 0 2" with 0 at the processor.
        assert t.parent == [-1, 0, 0]

    def test_rows_grow_downward(self):
        t = ddrx_like(9)
        assert t.parent[3] == 0
        assert t.parent[4] == 1
        assert t.parent[5] == 2
        assert t.parent[6] == 3

    def test_mixed_radix(self):
        t = ddrx_like(9)
        assert t.radix[0] is Radix.HIGH  # up + 2 horizontal + 1 down
        assert t.radix[8] is Radix.LOW

    def test_depths_by_row(self):
        t = ddrx_like(9)
        assert t.depth(0) == 1
        assert t.depth(1) == t.depth(2) == 2
        assert t.depth(3) == 2  # directly below module 0
        assert t.depth(4) == t.depth(5) == 3


class TestDdrxRowWidth:
    def test_row_width_one_degenerates_to_a_chain(self):
        t = ddrx_like(5, row_width=1)
        assert t.parent == daisychain(5).parent
        assert [t.depth(i) for i in range(5)] == [1, 2, 3, 4, 5]

    def test_row_width_two(self):
        t = ddrx_like(6, row_width=2)
        # Row 0 is [0, 1]; rows below hang module i off module i - 2.
        assert t.parent == [-1, 0, 0, 1, 2, 3]
        assert t.depth(0) == 1
        assert t.depth(1) == 2
        assert t.depth(2) == 2
        assert t.depth(4) == 3

    def test_row_width_five(self):
        t = ddrx_like(15, row_width=5)
        # Row 0 chains horizontally: 1, 2 off 0, then 3 off 1, 4 off 2.
        assert t.parent[:5] == [-1, 0, 0, 1, 2]
        # Each deeper row hangs straight below the previous one.
        assert all(t.parent[i] == i - 5 for i in range(5, 15))
        assert t.radix[0] is Radix.HIGH

    def test_row_width_must_be_positive(self):
        with pytest.raises(TopologyError):
            ddrx_like(4, row_width=0)

    def test_partial_last_row(self):
        # 7 modules with row_width 3: full rows of 3, then one leftover.
        t = ddrx_like(7)
        assert t.num_modules == 7
        assert t.parent[6] == 3


class TestSingleModule:
    """Every builder must handle the degenerate one-module network."""

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
    def test_one_module_topology(self, name):
        t = build_topology(name, 1)
        assert t.num_modules == 1
        assert t.parent == [-1]
        assert t.depth(0) == 1
        assert t.max_depth == 1
        assert t.children[0] == []

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
    def test_one_module_network_builds_and_runs(self, name):
        from repro.core.mechanisms import make_mechanism
        from repro.network.network import MemoryNetwork
        from repro.sim.engine import Simulator
        from repro.workloads.mapping import make_mapping

        network = MemoryNetwork(
            Simulator(),
            build_topology(name, 1),
            make_mechanism("VWL+ROO"),
            make_mapping("contiguous", footprint_gb=1.0, scale="small"),
        )
        links = list(network.all_links())
        assert len(links) == 2  # one request, one response
        assert {link.name for link in links} == {"req:-1->0", "resp:0->-1"}
        network.start()
        network.sim.run(until=1_000.0)


class TestRegistryDrift:
    """The registry, the paper-name tuple, and the CLI stay in sync."""

    def test_every_registered_name_builds_its_own_name(self):
        for name in TOPOLOGY_BUILDERS.names():
            assert build_topology(name, 4).name == name

    def test_paper_names_are_exactly_the_documented_four(self):
        assert TOPOLOGY_NAMES == ("daisychain", "ternary_tree", "star", "ddrx_like")
        assert set(TOPOLOGY_NAMES) <= set(TOPOLOGY_BUILDERS.names())

    def test_registry_matches_module_level_builders(self):
        # Guards against registering a builder without exporting it (or
        # vice versa): every registered callable is the module function.
        import repro.network.topology as topo_mod

        for name in TOPOLOGY_BUILDERS.names():
            assert TOPOLOGY_BUILDERS.get(name) is getattr(topo_mod, name)

    def test_cli_choices_track_the_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        run_parser = next(
            a for a in parser._subparsers._group_actions[0].choices.values()
            if a.prog.endswith(" run")
        )
        topo_action = next(
            a for a in run_parser._actions if "--topology" in a.option_strings
        )
        assert list(topo_action.choices) == sorted(TOPOLOGY_BUILDERS)
        t = box(10)
        from collections import Counter

        depth_counts = Counter(t.depth(i) for i in range(10))
        assert depth_counts[1] == 1
        assert all(v <= 4 for d, v in depth_counts.items() if d > 1)


class TestValidation:
    def test_zero_modules_rejected(self):
        with pytest.raises(TopologyError):
            daisychain(0)

    def test_unknown_name_rejected(self):
        with pytest.raises(TopologyError):
            build_topology("mesh", 4)

    def test_builder_registry_covers_paper_topologies(self):
        for name in TOPOLOGY_NAMES:
            assert name in TOPOLOGY_BUILDERS

    def test_overfull_children_rejected(self):
        with pytest.raises(TopologyError):
            Topology(
                "bad",
                parent=[-1, 0, 0],
                radix=[Radix.LOW, Radix.LOW, Radix.LOW],
            )

    def test_multiple_roots_rejected(self):
        with pytest.raises(TopologyError):
            Topology(
                "bad",
                parent=[-1, -1],
                radix=[Radix.HIGH, Radix.HIGH],
            )


class TestHelpers:
    def test_path_from_processor(self):
        t = daisychain(4)
        assert t.path_from_processor(3) == [0, 1, 2, 3]
        assert t.path_from_processor(0) == [0]

    def test_subtree(self):
        t = ternary_tree(5)
        assert set(t.subtree(1)) == {1, 4}
        assert set(t.subtree(0)) == {0, 1, 2, 3, 4}

    def test_links_by_depth(self):
        t = ternary_tree(13)
        assert t.links_by_depth() == {1: 1, 2: 3, 3: 9}

    def test_avg_depth(self):
        t = daisychain(3)
        assert t.avg_depth == pytest.approx(2.0)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(TOPOLOGY_BUILDERS)),
    n=st.integers(min_value=1, max_value=64),
)
def test_topology_invariants(name, n):
    """Every builder yields a valid tree for any module count."""
    t = build_topology(name, n)
    assert t.num_modules == n
    # Module 0 attaches to the processor; everyone reaches it.
    assert t.parent[0] == -1
    for i in range(n):
        path = t.path_from_processor(i)
        assert path[0] == 0 and path[-1] == i
        assert len(path) == t.depth(i)
    # Radix constraints hold.
    for i in range(n):
        assert len(t.children[i]) <= t.radix[i].max_children
    # BFS-ish numbering: a child is always numbered after its parent.
    for i in range(1, n):
        assert t.parent[i] < i
    # Every module is counted exactly once in the root's subtree.
    assert sorted(t.subtree(0)) == list(range(n))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=64))
def test_ternary_tree_minimizes_depth(n):
    """No evaluated topology beats the ternary tree's worst-case depth."""
    tt = ternary_tree(n)
    for name in ("daisychain", "star", "ddrx_like"):
        assert build_topology(name, n).max_depth >= tt.max_depth
