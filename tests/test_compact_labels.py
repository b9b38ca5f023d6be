"""Property battery: the compact 2-hop cover vs. the dict-backed oracle.

The compact cover (:mod:`repro.graph.compact_labels`) is the production
reachability index past the closure's |V|² wall, so its contract is
**bit-identity**: on any graph, every ``distance`` / ``query`` /
``exact_followee_set`` / ``reachability`` answer must equal the
dict-of-dicts :class:`~repro.graph.two_hop.TwoHopCover` — same values,
same types — and ``reachability(exact_followees=True)`` must equal the
BFS ground truth :func:`~repro.graph.reachability.weighted_reachability`.
The randomized suite here sweeps density, hop horizon, and seeds; the
deterministic classes pin edge cases and the ``label_bytes`` accounting.
"""

import math
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import scale_tier_profile
from repro.graph.compact_labels import (
    CompactTwoHopCover,
    build_compact_two_hop_cover,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import streaming_world_graph
from repro.graph.reachability import (
    weighted_reachability,
    weighted_reachability_from,
)
from repro.graph.two_hop import INF, build_two_hop_cover

from conftest import random_graph


ORDERS = ["degree", "coverage", "random"]

#: Every flat buffer of a compact cover, in constructor order.
BUFFERS = (
    "_landmarks",
    "_rank_of",
    "_in_offsets",
    "_in_pivots",
    "_in_dists",
    "_out_offsets",
    "_out_pivots",
    "_out_dists",
    "_f_offsets",
    "_f_pool",
)


def assert_same_buffers(built, frozen):
    """Byte-identical label buffers and budget bookkeeping."""
    for name in BUFFERS:
        assert bytes(getattr(built, name)) == bytes(getattr(frozen, name)), name
    assert built.pruned_followee_entries == frozen.pruned_followee_entries
    assert (
        built.stats()["followee_rank_cutoff"]
        == frozen.stats()["followee_rank_cutoff"]
    )


def assert_bit_identical(compact, oracle, graph):
    """Every query answer matches the dict cover in value AND type."""
    for s in graph.nodes():
        for t in graph.nodes():
            want = oracle.distance(s, t)
            got = compact.distance(s, t)
            assert got == want, (s, t)
            assert type(got) is type(want), (s, t)
            want_d, want_f = oracle.query(s, t)
            got_d, got_f = compact.query(s, t)
            assert got_d == want_d and got_f == want_f, (s, t)
            assert compact.exact_followee_set(s, t) == oracle.exact_followee_set(
                s, t
            ), (s, t)
            for exact in (False, True):
                want_r = oracle.reachability(s, t, exact_followees=exact)
                got_r = compact.reachability(s, t, exact_followees=exact)
                assert got_r == want_r, (s, t, exact)


class TestRandomizedIdentity:
    """The heart of the battery: seeds x densities x hop horizons."""

    @settings(max_examples=40, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=24),
        density=st.floats(min_value=0.05, max_value=0.6),
        max_hops=st.sampled_from([1, 2, 3, 4, 6]),
        seed=st.integers(min_value=0, max_value=10_000),
        order=st.sampled_from(ORDERS),
    )
    def test_matches_dict_cover(self, nodes, density, max_hops, seed, order):
        edges = int(density * nodes * (nodes - 1))
        graph = random_graph(nodes, edges, seed)
        oracle = build_two_hop_cover(
            graph, max_hops=max_hops, order=order, seed=seed
        )
        compact = build_compact_two_hop_cover(
            graph, max_hops=max_hops, order=order, seed=seed
        )
        assert compact.max_hops == max_hops
        assert compact.num_label_entries() == oracle.num_label_entries()
        assert_bit_identical(compact, oracle, graph)
        frozen = CompactTwoHopCover.from_cover(oracle, graph, order=order, seed=seed)
        assert_same_buffers(compact, frozen)

    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=20),
        density=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_exact_mode_matches_bfs_ground_truth(self, nodes, density, seed):
        """``exact_followees=True`` equals Eq. 4 computed from scratch."""
        edges = int(density * nodes * (nodes - 1))
        graph = random_graph(nodes, edges, seed)
        compact = build_compact_two_hop_cover(graph, max_hops=4)
        for s in graph.nodes():
            truth = weighted_reachability_from(graph, s, 4)
            for t in graph.nodes():
                got = compact.reachability(s, t, exact_followees=True)
                want = truth.get(t, 0.0) if s != t else 0.0
                assert got == pytest.approx(want, abs=1e-12), (s, t)
                single = weighted_reachability(graph, s, t, 4)
                assert got == pytest.approx(single, abs=1e-12), (s, t)

    @settings(max_examples=20, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=20),
        density=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
        order=st.sampled_from(ORDERS),
    )
    def test_from_cover_freeze_is_identical(self, nodes, density, seed, order):
        """Freezing a built dict cover == building compactly from scratch."""
        edges = int(density * nodes * (nodes - 1))
        graph = random_graph(nodes, edges, seed)
        oracle = build_two_hop_cover(graph, max_hops=4, order=order, seed=seed)
        frozen = CompactTwoHopCover.from_cover(oracle, graph, order=order, seed=seed)
        direct = build_compact_two_hop_cover(
            graph, max_hops=4, order=order, seed=seed
        )
        assert frozen.num_label_entries() == direct.num_label_entries()
        assert_same_buffers(direct, frozen)
        assert_bit_identical(frozen, oracle, graph)
        assert_bit_identical(direct, oracle, graph)


class TestStreamingWorldIdentity:
    """Hub/faction worlds give labels dozens of entries long — the sizes
    where a stale build-time memo or a missed table reset would show,
    which the small random graphs above never reach."""

    @pytest.mark.parametrize("seed", [5, 23])
    @pytest.mark.parametrize("budgeted", [False, True], ids=["free", "budget"])
    def test_build_equals_frozen_dict_cover(self, seed, budgeted):
        graph = streaming_world_graph(scale_tier_profile(800, seed))
        oracle = build_two_hop_cover(graph)
        budget = None
        if budgeted:
            free = build_compact_two_hop_cover(graph)
            backbone = free.backbone_bytes()
            budget = backbone + (free.label_bytes() - backbone) // 2
        built = build_compact_two_hop_cover(graph, memory_budget_bytes=budget)
        frozen = CompactTwoHopCover.from_cover(
            oracle, graph, memory_budget_bytes=budget
        )
        assert built.num_label_entries() / graph.num_nodes > 20
        if budgeted:
            assert built.pruned_followee_entries > 0
        assert_same_buffers(built, frozen)

    def test_build_phase_timings_in_stats(self):
        graph = streaming_world_graph(scale_tier_profile(200, 3))
        stats = build_compact_two_hop_cover(graph).stats()
        assert stats["bfs_s"] > 0 and stats["flatten_s"] > 0
        frozen = CompactTwoHopCover.from_cover(build_two_hop_cover(graph), graph)
        assert frozen.stats()["bfs_s"] is None
        assert frozen.stats()["flatten_s"] > 0


class TestEdgeCases:
    def test_empty_graph(self):
        graph = DiGraph(0)
        compact = build_compact_two_hop_cover(graph)
        assert compact.num_label_entries() == 0
        assert compact.label_bytes() > 0  # offsets arrays still exist

    def test_single_node(self):
        graph = DiGraph(1)
        compact = build_compact_two_hop_cover(graph)
        assert compact.distance(0, 0) == 0.0
        assert type(compact.distance(0, 0)) is float
        assert compact.reachability(0, 0) == 0.0

    def test_self_loops_rejected_by_graph(self):
        """The container forbids self-loops, so covers never see them."""
        graph = DiGraph(2)
        with pytest.raises(ValueError):
            graph.add_edge(1, 1)

    def test_unreachable_pair_is_inf_distance_zero_reachability(self):
        graph = DiGraph.from_edges(3, [(0, 1)])  # node 2 isolated
        compact = build_compact_two_hop_cover(graph)
        oracle = build_two_hop_cover(graph)
        assert compact.distance(0, 2) == oracle.distance(0, 2) == INF
        assert compact.distance(0, 2) is INF or math.isinf(compact.distance(0, 2))
        assert compact.reachability(0, 2) == 0.0
        assert compact.query(0, 2) == (INF, set())

    def test_beyond_horizon_is_unreachable(self, chain_graph):
        compact = build_compact_two_hop_cover(chain_graph, max_hops=2)
        assert compact.distance(0, 2) == 2
        assert compact.distance(0, 3) == INF
        assert compact.reachability(0, 3) == 0.0

    def test_max_hops_over_255_rejected(self, diamond_graph):
        """Distances live in single bytes; the ctor enforces the ceiling."""
        with pytest.raises(ValueError):
            build_compact_two_hop_cover(diamond_graph, max_hops=256)

    def test_distance_one_followee_is_target(self, diamond_graph):
        # d==1 entries synthesize {target} at query time (no pool span)
        compact = build_compact_two_hop_cover(diamond_graph)
        assert compact.query(0, 1) == (1, {1})
        assert compact.exact_followee_set(0, 1) == {1}


class TestMemoryBudget:
    def _world(self, seed=3):
        return random_graph(40, 300, seed)

    def test_budget_respected_and_distances_unchanged(self):
        graph = self._world()
        free = build_compact_two_hop_cover(graph, max_hops=4)
        budget = free.stats()["backbone_bytes"] + (
            free.label_bytes() - free.stats()["backbone_bytes"]
        ) // 3
        pruned = build_compact_two_hop_cover(
            graph, max_hops=4, memory_budget_bytes=budget
        )
        assert pruned.label_bytes() <= budget
        assert pruned.pruned_followee_entries > 0
        for s in graph.nodes():
            for t in graph.nodes():
                assert pruned.distance(s, t) == free.distance(s, t)

    def test_pruned_followees_bounded_by_exact(self):
        """stored span ⊆ lazily recovered ⊆ exact F_st (Theorem 1)."""
        graph = self._world()
        free = build_compact_two_hop_cover(graph, max_hops=4)
        backbone = free.stats()["backbone_bytes"]
        pruned = build_compact_two_hop_cover(
            graph, max_hops=4, memory_budget_bytes=backbone
        )
        for s in graph.nodes():
            for t in graph.nodes():
                exact = free.exact_followee_set(s, t)
                _, recovered = pruned.query(s, t)
                _, stored = free.query(s, t)
                assert recovered <= exact or not exact, (s, t)
                # the pruned cover recovers at least what the free cover
                # had stored for the same minimal pivots
                assert stored <= exact or not exact, (s, t)

    def test_exact_reachability_unaffected_by_pruning(self):
        graph = self._world()
        free = build_compact_two_hop_cover(graph, max_hops=4)
        backbone = free.stats()["backbone_bytes"]
        pruned = build_compact_two_hop_cover(
            graph, max_hops=4, memory_budget_bytes=backbone
        )
        for s in graph.nodes():
            for t in graph.nodes():
                assert pruned.reachability(
                    s, t, exact_followees=True
                ) == free.reachability(s, t, exact_followees=True)

    def test_budget_below_backbone_raises(self):
        graph = self._world()
        free = build_compact_two_hop_cover(graph, max_hops=4)
        floor = free.stats()["backbone_bytes"]
        with pytest.raises(ValueError, match="distance backbone"):
            build_compact_two_hop_cover(
                graph, max_hops=4, memory_budget_bytes=floor - 1
            )

    def test_hub_landmarks_keep_their_pools(self):
        """Pruning drops the least-central landmarks' pools first."""
        graph = self._world()
        free = build_compact_two_hop_cover(graph, max_hops=4)
        backbone = free.stats()["backbone_bytes"]
        mid = backbone + (free.label_bytes() - backbone) // 2
        pruned = build_compact_two_hop_cover(
            graph, max_hops=4, memory_budget_bytes=mid
        )
        cutoff = pruned.stats()["followee_rank_cutoff"]
        assert 0 < cutoff <= graph.num_nodes


class TestSerialization:
    def test_pickle_roundtrip_preserves_queries(self):
        graph = random_graph(30, 150, 7)
        compact = build_compact_two_hop_cover(graph, max_hops=4)
        clone = pickle.loads(pickle.dumps(compact))
        for s in graph.nodes():
            for t in graph.nodes():
                assert clone.distance(s, t) == compact.distance(s, t)
                assert clone.query(s, t) == compact.query(s, t)
        assert clone.label_bytes() == compact.label_bytes()


class TestLabelBytes:
    """Index-bytes reporting pinned against hand-computed layouts."""

    def test_compact_bytes_match_hand_computed_fixture(self, diamond_graph):
        """The documented layout formula, fed only by oracle label shape."""
        cover = build_two_hop_cover(diamond_graph, max_hops=4)
        compact = CompactTwoHopCover.from_cover(cover, diamond_graph)
        n = diamond_graph.num_nodes
        total_in = sum(len(cover.in_label(v)) for v in diamond_graph.nodes())
        total_out = sum(len(cover.out_label(v)) for v in diamond_graph.nodes())
        # only distance>1 entries store a pool span; d==1 followees are
        # synthesized as {landmark} at query time
        pool = sum(
            len(entry[1])
            for v in diamond_graph.nodes()
            for entry in cover.out_label(v).values()
            if entry[0] > 1
        )
        expected = (
            4 * n                  # landmark order (every node is one)
            + 4 * n                # node -> rank
            + 8 * (n + 1) * 2      # in/out offset arrays
            + 5 * total_in         # in pivots (4 B) + distances (1 B)
            + 5 * total_out        # out pivots + distances
            + 8 * (total_out + 1)  # followee span offsets
            + 4 * pool             # flat followee pool
        )
        assert compact.label_bytes() == expected
        assert compact.size_bytes() == expected
        assert compact.backbone_bytes() == expected - 4 * pool

    def test_dict_cover_bytes_count_every_container(self, diamond_graph):
        """No more bare ``getsizeof(dict)``: entries, tuples, followee
        sets, and int objects are all accounted for."""
        cover = build_two_hop_cover(diamond_graph, max_hops=4)
        int_size = sys.getsizeof(1 << 16)
        expected = 0
        for node in diamond_graph.nodes():
            lbl_in = cover.in_label(node)
            expected += sys.getsizeof(lbl_in) + 2 * int_size * len(lbl_in)
            lbl_out = cover.out_label(node)
            expected += sys.getsizeof(lbl_out)
            for _, entry in lbl_out.items():
                followees = entry[1]
                expected += 2 * int_size
                expected += sys.getsizeof(entry)
                expected += sys.getsizeof(followees) + int_size * len(followees)
        assert cover.label_bytes() == expected
        assert cover.size_bytes() == expected

    def test_compact_is_smaller_than_dict_cover(self):
        graph = random_graph(60, 500, 5)
        cover = build_two_hop_cover(graph, max_hops=4)
        compact = CompactTwoHopCover.from_cover(cover, graph)
        assert compact.label_bytes() < cover.label_bytes() / 4
