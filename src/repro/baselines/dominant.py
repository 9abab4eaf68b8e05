"""DOMINANT (Ding et al., SDM 2019): deep graph autoencoder detector.

A GCN encoder produces node embeddings Z; an attribute decoder (one more
GCN layer) reconstructs X and a structure decoder reconstructs A via
``σ(ZZᵀ)``.  Node anomaly score is the convex combination of the two
per-node reconstruction errors.  The structure term is evaluated on
incident edges plus sampled non-edges, keeping memory linear in |E|
instead of the paper's dense ``n × n`` reconstruction.
"""

from __future__ import annotations

import numpy as np

from ..graph.graph import Graph
from ..graph.normalize import gcn_operator
from ..nn.conv import GCNConv
from ..nn.module import Module
from ..optim.adam import Adam
from ..tensor.autograd import Tensor, no_grad
from ..tensor.functional import binary_cross_entropy_with_logits
from .base import BaseDetector, sample_negative_edges, structure_score_from_embeddings


class _DominantNet(Module):
    def __init__(self, in_features: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.enc1 = GCNConv(in_features, hidden, rng)
        self.enc2 = GCNConv(hidden, hidden, rng)
        self.attr_dec = GCNConv(hidden, in_features, rng, activation=None)

    def forward(self, operator, x: Tensor):
        z = self.enc2(operator, self.enc1(operator, x))
        x_hat = self.attr_dec(operator, z)
        return z, x_hat


class Dominant(BaseDetector):
    """Graph-autoencoder node anomaly detector."""

    detects_nodes = True

    def __init__(self, hidden: int = 64, epochs: int = 100, lr: float = 5e-3,
                 balance: float = 0.5, negative_ratio: int = 1, seed: int = 0):
        super().__init__(seed)
        if not 0.0 <= balance <= 1.0:
            raise ValueError("balance must be in [0, 1]")
        self.hidden = hidden
        self.epochs = epochs
        self.lr = lr
        self.balance = balance
        self.negative_ratio = negative_ratio
        self._net: _DominantNet | None = None
        self._scores: np.ndarray | None = None

    def fit(self, graph: Graph) -> "Dominant":
        rng = np.random.default_rng(self.seed)
        operator = gcn_operator(graph.adjacency)
        net = _DominantNet(graph.num_features, self.hidden, rng)
        optimizer = Adam(net.parameters(), lr=self.lr)
        x = Tensor(graph.features)
        edges = graph.edges

        for _ in range(self.epochs):
            z, x_hat = net(operator, x)
            attr_diff = x_hat - x
            attr_loss = (attr_diff * attr_diff).mean()

            if graph.num_edges:
                negatives = sample_negative_edges(
                    graph, self.negative_ratio * graph.num_edges, rng
                )
                pairs = np.concatenate([edges, negatives], axis=0)
                labels = np.concatenate([
                    np.ones(len(edges)), np.zeros(len(negatives)),
                ])
                logits = (z[pairs[:, 0]] * z[pairs[:, 1]]).sum(axis=1)
                struct_loss = binary_cross_entropy_with_logits(logits, labels)
                loss = self.balance * attr_loss + (1 - self.balance) * struct_loss
            else:
                loss = attr_loss
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        with no_grad():
            z, x_hat = net(operator, x)
        attr_error = np.linalg.norm(x_hat.data - graph.features, axis=1)
        struct_error = structure_score_from_embeddings(z.data, graph, rng)

        def rescale(v):
            span = v.max() - v.min()
            return (v - v.min()) / span if span > 0 else np.zeros_like(v)

        self._scores = (self.balance * rescale(attr_error)
                        + (1 - self.balance) * rescale(struct_error))
        self._net = net
        self._fitted = True
        return self

    def score_nodes(self, graph: Graph) -> np.ndarray:
        self._require_fitted()
        return self._scores.copy()
