"""Shared infrastructure for the baseline detectors.

Every baseline implements ``fit(graph)`` and then ``score_nodes(graph)``
and/or ``score_edges(graph)``, returning arrays aligned with
``graph.features`` rows / ``graph.edges`` rows (higher = more anomalous).
"""

from __future__ import annotations


import numpy as np

from ..graph.graph import Graph


class BaseDetector:
    """Common plumbing: fitted flag and RNG."""

    #: capability flags, overridden by subclasses
    detects_nodes: bool = False
    detects_edges: bool = False

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._fitted = False

    def fit(self, graph: Graph) -> "BaseDetector":
        raise NotImplementedError

    def score_nodes(self, graph: Graph) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} does not score nodes")

    def score_edges(self, graph: Graph) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} does not score edges")

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} must be fit() before scoring")


def sample_negative_edges(graph: Graph, count: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Sample ``count`` node pairs that are not edges of ``graph``."""
    negatives = []
    attempts = 0
    limit = 50 * count + 100
    n = graph.num_nodes
    while len(negatives) < count and attempts < limit:
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v or graph.has_edge(u, v):
            continue
        negatives.append((min(u, v), max(u, v)))
    return np.asarray(negatives, dtype=np.int64).reshape(-1, 2)


def structure_score_from_embeddings(
    embeddings: np.ndarray, graph: Graph, rng: np.random.Generator,
    samples_per_node: int = 10,
) -> np.ndarray:
    """Per-node structure reconstruction error from inner products.

    For each node, BCE of σ(z_i·z_j) over its incident edges (label 1)
    and ``samples_per_node`` random non-neighbours (label 0) — the
    sampled surrogate of the dense ``||A − σ(ZZᵀ)||`` objective that
    keeps memory linear in the edge count.
    """
    n = graph.num_nodes
    errors = np.zeros(n)
    counts = np.zeros(n)

    def bce(logits: np.ndarray, labels: float) -> np.ndarray:
        return (np.maximum(logits, 0.0) - logits * labels
                + np.log1p(np.exp(-np.abs(logits))))

    if graph.num_edges:
        e = graph.edges
        logits = (embeddings[e[:, 0]] * embeddings[e[:, 1]]).sum(axis=1)
        errs = bce(logits, 1.0)
        np.add.at(errors, e[:, 0], errs)
        np.add.at(errors, e[:, 1], errs)
        np.add.at(counts, e[:, 0], 1)
        np.add.at(counts, e[:, 1], 1)

    pairs = rng.integers(0, n, size=(samples_per_node * n // 2, 2))
    distinct = pairs[:, 0] != pairs[:, 1]
    pairs = pairs[distinct]
    # Filter out true edges via adjacency lookup (vectorized).
    adjacency = graph.adjacency
    is_edge = np.asarray(
        adjacency[pairs[:, 0], pairs[:, 1]]
    ).reshape(-1) > 0
    pairs = pairs[~is_edge]
    if len(pairs):
        logits = (embeddings[pairs[:, 0]] * embeddings[pairs[:, 1]]).sum(axis=1)
        errs = bce(logits, 0.0)
        np.add.at(errors, pairs[:, 0], errs)
        np.add.at(errors, pairs[:, 1], errs)
        np.add.at(counts, pairs[:, 0], 1)
        np.add.at(counts, pairs[:, 1], 1)
    return errors / np.maximum(counts, 1.0)
