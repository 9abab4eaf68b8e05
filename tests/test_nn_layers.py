"""Unit tests for neural layers: Linear, MLP, GCN/HGNN conv, GAT."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import Bourne, BourneConfig
from repro.graph import gcn_operator
from repro.graph.normalize import block_diag_csr
from repro.nn import (
    GATConv,
    GCNConv,
    Linear,
    MLP,
    PReLU,
)
from repro.tensor import Tensor

from reference_views import dense_hgnn_operator


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(4, 3, rng)
        assert layer(Tensor(np.ones((5, 4)))).shape == (5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_matches_manual_affine(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_gradients_flow(self, rng):
        layer = Linear(3, 2, rng)
        layer(Tensor(np.ones((2, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_repr(self, rng):
        assert "Linear" in repr(Linear(2, 2, rng))


class TestMLP:
    def test_shapes(self, rng):
        mlp = MLP(4, [8, 8], 2, rng)
        assert mlp(Tensor(np.ones((3, 4)))).shape == (3, 2)

    def test_hidden_layers_have_activations(self, rng):
        mlp = MLP(4, [8], 2, rng)
        prelu_params = [n for n, _ in mlp.named_parameters() if "alpha" in n]
        assert len(prelu_params) == 1

    def test_no_hidden(self, rng):
        mlp = MLP(4, [], 2, rng)
        assert mlp(Tensor(np.ones((1, 4)))).shape == (1, 2)


class TestGCNConv:
    def test_shape_and_grad(self, rng):
        operator = gcn_operator(sp.eye(5, format="csr"))
        conv = GCNConv(4, 6, rng)
        out = conv(operator, Tensor(np.ones((5, 4))))
        assert out.shape == (5, 6)
        out.sum().backward()
        assert conv.weight.grad is not None
        assert conv.act.alpha.grad is not None

    def test_identity_operator_equals_dense_layer(self, rng):
        # With operator = I (no self-loop added in the operator itself),
        # a GCN layer is exactly PReLU(x @ W).
        conv = GCNConv(3, 2, rng)
        x = rng.normal(size=(4, 3))
        out = conv(sp.eye(4, format="csr"), Tensor(x)).data
        support = x @ conv.weight.data
        alpha = conv.act.alpha.data
        expected = np.where(support > 0, support, alpha * support)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_aggregation_mixes_neighbors(self, rng):
        adjacency = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=float))
        operator = gcn_operator(adjacency)
        conv = GCNConv(2, 2, rng, activation=None)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = conv(operator, Tensor(x)).data
        # Each node's output must depend on the other's features.
        solo = conv(gcn_operator(sp.csr_matrix((2, 2))), Tensor(x)).data
        assert not np.allclose(out, solo)

    def test_invalid_activation(self, rng):
        with pytest.raises(ValueError):
            GCNConv(3, 2, rng, activation="gelu")

    def test_view_stack_propagates_like_block_diagonal(self, rng):
        """A ``(B, S, S)`` operator stack is the block-diagonal
        operator of its views: same output, same weight, slope and
        input gradients (asymmetric blocks, so a transpose would show)."""
        stack = rng.normal(size=(5, 4, 4))
        x = rng.normal(size=(20, 3))
        upstream = rng.normal(size=(20, 2))
        results = []
        for operator in (stack, block_diag_csr(stack)):
            conv = GCNConv(3, 2, np.random.default_rng(0))
            inputs = Tensor(x, requires_grad=True)
            out = conv(operator, inputs)
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data, conv.weight.grad,
                            conv.act.alpha.grad, inputs.grad))
        for dense, sparse in zip(*results):
            np.testing.assert_allclose(dense, sparse, rtol=1e-12, atol=1e-12)
        assert results[0][2] != 0.0  # some pre-activations were negative


class TestHGNNConv:
    """Eq. 10 is the GCNConv layer over the HGNN operator."""

    def test_shape(self, rng):
        incidence = np.array([[1, 0], [1, 1], [0, 1]], dtype=float)
        operator = dense_hgnn_operator(incidence)
        conv = GCNConv(4, 6, rng)
        out = conv(operator, Tensor(np.ones((3, 4))))
        assert out.shape == (3, 6)

    def test_parameter_layout_matches_gcn(self):
        """The hypergraph (target) branch mirrors the graph (online)
        branch's conv parameters one for one, as the EMA needs."""
        model = Bourne(5, BourneConfig(hidden_dim=6, predictor_hidden=8,
                                       num_layers=2))
        online = [p.data.shape for p in model.online.encoder_parameters()]
        target = [p.data.shape for p in model.target.encoder_parameters()]
        assert online == target == [(5, 6), (), (6, 6), ()]


class TestGATConv:
    def test_shape_and_grad(self, rng):
        edges = np.array([[0, 1, 2], [1, 2, 0]])
        conv = GATConv(4, 3, rng)
        out = conv(edges, 4, Tensor(np.ones((4, 4))))
        assert out.shape == (4, 3)
        out.sum().backward()
        assert conv.weight.grad is not None
        assert conv.att_src.grad is not None

    def test_isolated_node_attends_to_self(self, rng):
        edges = np.zeros((2, 0), dtype=np.int64)
        conv = GATConv(2, 2, rng)
        x = rng.normal(size=(3, 2))
        out = conv(edges, 3, Tensor(x)).data
        # Self-loop only: output = h (attention weight 1 on itself).
        expected = x @ conv.weight.data
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_attention_weights_normalize(self, rng):
        # Messages into a node are a convex combination: with identical
        # source features the output equals the single-source value.
        edges = np.array([[0, 1], [2, 2]])
        conv = GATConv(2, 2, rng)
        x = np.ones((3, 2))
        out = conv(edges, 3, Tensor(x)).data
        expected = (np.ones((1, 2)) @ conv.weight.data).reshape(-1)
        np.testing.assert_allclose(out[2], expected, atol=1e-9)


class TestPReLU:
    def test_negative_slope_learnable(self):
        act = PReLU(init_alpha=0.1)
        out = act(Tensor(np.array([-10.0])))
        assert out.data[0] == pytest.approx(-1.0)
        out.sum().backward()
        assert act.alpha.grad is not None
