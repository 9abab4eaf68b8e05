"""Unit tests for subgraph samplers."""

import numpy as np
import pytest
from reference_views import khop_neighbors, sample_subgraph

from repro.graph import Graph


class TestKhop:
    def test_one_hop(self, tiny_graph):
        assert set(khop_neighbors(tiny_graph, 0, 1).tolist()) == {1, 2}

    def test_two_hop(self, tiny_graph):
        assert set(khop_neighbors(tiny_graph, 0, 2).tolist()) == {1, 2, 3}

    def test_excludes_self(self, tiny_graph):
        assert 0 not in khop_neighbors(tiny_graph, 0, 3)

    def test_isolated_node(self, rng):
        g = Graph(rng.normal(size=(3, 2)), np.array([[1, 2]]))
        assert len(khop_neighbors(g, 0, 2)) == 0

    def test_invalid_k(self, tiny_graph):
        with pytest.raises(ValueError):
            khop_neighbors(tiny_graph, 0, 0)


class TestEnclosingSubgraph:
    def test_slot_zero_is_target(self, tiny_graph):
        sub = sample_subgraph(tiny_graph, 2, k=2, size=4)
        assert sub.node_ids[0] == 2
        assert sub.target == 2

    def test_fixed_size(self, tiny_graph):
        for target in range(tiny_graph.num_nodes):
            sub = sample_subgraph(tiny_graph, target, k=2, size=5)
            assert sub.num_nodes == 6

    def test_features_match_slots(self, tiny_graph):
        sub = sample_subgraph(tiny_graph, 1, k=2, size=4)
        np.testing.assert_array_equal(sub.features,
                                      tiny_graph.features[sub.node_ids])

    def test_edges_reference_true_parent_edges(self, tiny_graph):
        sub = sample_subgraph(tiny_graph, 0, k=2, size=4)
        for (a, b), orig in zip(sub.edges, sub.edge_orig_ids):
            u, v = int(sub.node_ids[a]), int(sub.node_ids[b])
            assert tiny_graph.has_edge(u, v)
            assert tiny_graph.edge_id(u, v) == orig

    def test_target_edges_come_first_and_touch_slot0(self, tiny_graph):
        sub = sample_subgraph(tiny_graph, 2, k=2, size=6)
        mtar = sub.num_target_edges
        assert mtar >= 1
        assert np.all(sub.edges[:mtar, 0] == 0)
        assert np.all(sub.edges[mtar:, 0] != 0)

    def test_target_edge_ids_unique(self, tiny_graph):
        sub = sample_subgraph(tiny_graph, 2, k=2, size=8)
        ids = sub.target_edge_orig_ids
        assert len(np.unique(ids)) == len(ids)

    def test_one_hop_neighbors_prioritized(self, tiny_graph):
        # Node 2 has 3 neighbours (0, 1, 3).  With 3 slots the context
        # is exactly those; with 4 all three are kept plus one filler
        # drawn from the 2-hop pool.
        one_hop = set(tiny_graph.neighbors(2).tolist())
        assert one_hop == {0, 1, 3}
        ball = set(khop_neighbors(tiny_graph, 2, 2).tolist())
        for seed in range(20):
            exact = sample_subgraph(tiny_graph, 2, k=2, size=3, seed=seed)
            assert sorted(exact.node_ids[1:].tolist()) == sorted(one_hop)
            padded = sample_subgraph(tiny_graph, 2, k=2, size=4, seed=seed)
            context = padded.node_ids[1:].tolist()
            assert len(context) == 4
            assert one_hop <= set(context)
            assert set(context) <= ball

    def test_isolated_target_degenerates_gracefully(self, rng):
        g = Graph(rng.normal(size=(3, 2)), np.array([[1, 2]]))
        sub = sample_subgraph(g, 0, k=2, size=3)
        assert sub.num_edges == 0
        assert sub.num_target_edges == 0
        assert np.all(sub.node_ids == 0)

    def test_small_neighborhood_pads_with_replacement(self, rng):
        g = Graph(rng.normal(size=(3, 2)), np.array([[0, 1]]))
        sub = sample_subgraph(g, 0, k=2, size=5)
        assert sub.num_nodes == 6          # padded despite 1 neighbour
