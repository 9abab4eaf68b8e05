"""Unit tests for the propagation operators and the dual node features.

The library builds the dual hypergraph (Definition 2) per batch of views
in :mod:`repro.core.views`, which ``test_core_views`` pins against the
per-target oracle in ``reference_views``; the HGNN operator (Eq. 10)
and dual features checked here are the oracle's.
"""

import numpy as np

from repro.graph import gcn_operator

from reference_views import dense_hgnn_operator, edge_features


def dual_incidence(graph) -> np.ndarray:
    """Dense dual incidence ``M* = Mᵀ``: one row per edge of ``graph``."""
    incidence = np.zeros((graph.num_edges, graph.num_nodes))
    rows = np.arange(graph.num_edges)
    incidence[rows, graph.edges[:, 0]] = 1.0
    incidence[rows, graph.edges[:, 1]] = 1.0
    return incidence


class TestEdgeFeatures:
    def test_endpoint_mean(self, rng):
        features = rng.normal(size=(4, 3))
        edges = np.array([[0, 1], [2, 3]])
        out = edge_features(features, edges)
        np.testing.assert_allclose(out[0], 0.5 * (features[0] + features[1]))
        np.testing.assert_allclose(out[1], 0.5 * (features[2] + features[3]))

    def test_empty_edges(self, rng):
        out = edge_features(rng.normal(size=(3, 5)), np.zeros((0, 2)))
        assert out.shape == (0, 5)


class TestOperators:
    def test_gcn_operator_symmetric(self, tiny_graph):
        op = gcn_operator(tiny_graph.adjacency).toarray()
        np.testing.assert_allclose(op, op.T, atol=1e-12)

    def test_gcn_operator_entries_nonnegative_bounded(self, tiny_graph):
        op = gcn_operator(tiny_graph.adjacency).toarray()
        assert np.all(op >= 0.0)
        assert np.all(op <= 1.0 + 1e-9)
        # Self-loop entries on the diagonal.
        assert np.all(np.diag(op) > 0.0)

    def test_gcn_operator_zero_degree_row(self):
        # Isolated node with no self-loops at all: zero row is fine.
        op = gcn_operator(np.zeros((2, 2)), add_self_loops=False).toarray()
        np.testing.assert_allclose(op, np.zeros((2, 2)))

    def test_gcn_operator_self_loops_make_identity(self):
        op = gcn_operator(np.zeros((3, 3)), add_self_loops=True).toarray()
        np.testing.assert_allclose(op, np.eye(3))

    def test_hgnn_operator_symmetric(self, tiny_graph):
        op = dense_hgnn_operator(dual_incidence(tiny_graph))
        np.testing.assert_allclose(op, op.T, atol=1e-12)

    def test_hgnn_operator_empty_incidence(self):
        op = dense_hgnn_operator(np.zeros((3, 2)))
        np.testing.assert_allclose(op, np.zeros((3, 3)))

    def test_hgnn_propagation_constant_vector_invariance(self):
        """A single hyperedge over all nodes averages a constant vector
        back to (a multiple of) itself."""
        incidence = np.ones((4, 1))
        op = dense_hgnn_operator(incidence)
        out = op @ np.ones(4)
        np.testing.assert_allclose(out, np.full(4, out[0]))
