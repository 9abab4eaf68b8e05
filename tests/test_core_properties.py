"""Property-based tests for BOURNE's core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_views import (
    build_graph_view,
    build_hypergraph_view,
    dense_gcn_operator,
    dense_hgnn_operator,
    sample_subgraph,
)

from repro.core import BourneConfig, discriminate
from repro.graph import Graph
from repro.tensor import Tensor


def random_connected_graph(seed: int, num_nodes: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(num_nodes - 1)}
    for _ in range(num_nodes):
        u, v = rng.integers(0, num_nodes, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(rng.normal(size=(num_nodes, 5)),
                 np.array(sorted(edges), dtype=np.int64))


class TestDiscriminatorProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_score_bounds(self, seed, alpha, beta):
        """S ∈ [0, 2(α+β)] since cos ∈ [−1, 1]."""
        rng = np.random.default_rng(seed)
        target = Tensor(rng.normal(size=(4, 6)))
        patch = Tensor(rng.normal(size=(4, 6)))
        sub = Tensor(rng.normal(size=(4, 6)))
        scores = discriminate(target, patch, sub, alpha, beta).data
        assert np.all(scores >= -1e-9)
        assert np.all(scores <= 2 * (alpha + beta) + 1e-9)

    def test_perfect_agreement_scores_zero(self):
        h = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        scores = discriminate(h, h, h, 0.6, 0.4).data
        np.testing.assert_allclose(scores, 0.0, atol=1e-9)

    def test_opposite_contexts_score_maximal(self):
        h = Tensor(np.ones((2, 4)))
        opposite = Tensor(-np.ones((2, 4)))
        scores = discriminate(h, opposite, opposite, 0.5, 0.5).data
        np.testing.assert_allclose(scores, 2.0, atol=1e-9)

    def test_alpha_beta_decompose(self):
        rng = np.random.default_rng(1)
        h, p, s = (Tensor(rng.normal(size=(3, 4))) for _ in range(3))
        combined = discriminate(h, p, s, 0.3, 0.7).data
        patch_only = discriminate(h, p, s, 1.0, 0.0).data
        sub_only = discriminate(h, p, s, 0.0, 1.0).data
        np.testing.assert_allclose(combined, 0.3 * patch_only + 0.7 * sub_only,
                                   atol=1e-9)


class TestOperatorProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=10))
    def test_dense_gcn_operator_symmetric_psd_diag(self, seed, n):
        rng = np.random.default_rng(seed)
        adjacency = (rng.random((n, n)) < 0.4).astype(float)
        adjacency = np.triu(adjacency, 1)
        adjacency = adjacency + adjacency.T
        op = dense_gcn_operator(adjacency)
        np.testing.assert_allclose(op, op.T, atol=1e-12)
        assert np.all(np.diag(op) > 0)          # self-loops survive
        eigenvalues = np.linalg.eigvalsh(op)
        assert eigenvalues.max() <= 1.0 + 1e-9  # normalized spectrum

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=8),
           st.integers(min_value=1, max_value=6))
    def test_dense_hgnn_operator_symmetric_psd(self, seed, nodes, hyperedges):
        rng = np.random.default_rng(seed)
        incidence = (rng.random((nodes, hyperedges)) < 0.5).astype(float)
        op = dense_hgnn_operator(incidence)
        np.testing.assert_allclose(op, op.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(op)
        assert eigenvalues.min() >= -1e-9       # PSD by construction


class TestViewProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=6, max_value=20),
           st.integers(min_value=2, max_value=8))
    def test_view_layout_invariants(self, seed, num_nodes, size):
        graph = random_connected_graph(seed, num_nodes)
        rng = np.random.default_rng(seed + 1)
        target = int(rng.integers(0, num_nodes))
        sub = sample_subgraph(graph, target, k=2, size=size, seed=seed)

        gview = build_graph_view(sub)
        assert gview.features.shape[0] == sub.num_nodes + 1
        np.testing.assert_array_equal(gview.features[0], 0.0)
        np.testing.assert_array_equal(gview.features[-1], sub.features[0])

        hview = build_hypergraph_view(sub)
        if sub.num_edges == 0:
            assert hview is None
        else:
            mtar = sub.num_target_edges
            assert hview.features.shape[0] == sub.num_edges + mtar
            np.testing.assert_array_equal(hview.features[:mtar], 0.0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_subgraph_contains_all_target_edges_when_capacity(self, seed):
        """With K ≥ deg(v_t), every incident edge appears as a target edge."""
        graph = random_connected_graph(seed, 12)
        rng = np.random.default_rng(seed)
        target = int(rng.integers(0, graph.num_nodes))
        degree = len(graph.neighbors(target))
        sub = sample_subgraph(graph, target, k=2, size=max(degree, 2),
                              seed=seed)
        assert sub.num_target_edges == degree


class TestConfigProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_any_valid_alpha_beta_accepted(self, alpha, beta):
        config = BourneConfig(alpha=alpha, beta=beta)
        assert config.alpha == alpha

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1.01, max_value=10.0))
    def test_out_of_range_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            BourneConfig(alpha=alpha)
