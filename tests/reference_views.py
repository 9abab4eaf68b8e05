"""Dense per-target reference for BOURNE's views — the tests' oracle.

The library builds views for a whole sampled batch at once
(:func:`repro.core.views.build_batched_views`).  This module keeps the
straightforward per-target construction the vectorized builders must
reproduce bit for bit: one subgraph at a time, small dense adjacency /
incidence matrices normalized with dense GCN (Eq. 4) and HGNN (Eq. 10)
operators, then stacked into the same batch containers: a dense
``(B, S, S)`` stack for graph views, a block-diagonal operator for
hypergraph views.
It builds unaugmented views only; the Γ1/Γ2 augmentation is
counter-based and lives in the vectorized builder alone.

:func:`khop_neighbors` is the plain BFS the sampler's candidate pools
are checked against, and :func:`sample_subgraph` samples one target
through the library's batched sampler.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.views import BatchedGraphViews, BatchedHypergraphViews
from repro.graph.index import derive_target_seeds
from repro.graph.sampling import SampledSubgraph, sample_enclosing_subgraphs


def sample_subgraph(graph, target: int, k: int, size: int,
                    seed: int = 0) -> SampledSubgraph:
    """``target``'s enclosing subgraph under the batch sampler, with
    the per-target seed derived from ``(seed, target)``."""
    targets = np.array([target], dtype=np.int64)
    batch = sample_enclosing_subgraphs(
        graph, targets, k=k, size=size,
        target_seeds=derive_target_seeds(seed, targets))
    return batch.view(0)


def khop_neighbors(graph, node: int, k: int,
                   max_pool: Optional[int] = None) -> np.ndarray:
    """Nodes within ``k`` hops of ``node`` (excluding ``node`` itself),
    in BFS order; ``max_pool`` stops the search once that many are
    collected."""
    if k < 1:
        raise ValueError("k must be >= 1")
    seen = {node}
    frontier = deque([(node, 0)])
    collected: List[int] = []
    while frontier:
        current, depth = frontier.popleft()
        if depth == k:
            continue
        for neighbor in graph.neighbors(current):
            neighbor = int(neighbor)
            if neighbor not in seen:
                seen.add(neighbor)
                collected.append(neighbor)
                frontier.append((neighbor, depth + 1))
                if max_pool is not None and len(collected) >= max_pool:
                    return np.asarray(collected, dtype=np.int64)
    return np.asarray(collected, dtype=np.int64)


@dataclass
class GraphView:
    """Anonymized graph view of one target node.

    Row layout (``Ns`` slots + 1): row 0 is the anonymized target
    (features zeroed, edges kept), rows ``1..Ns-1`` the context slots,
    row ``Ns`` the isolated raw-feature copy of the target.
    """

    features: np.ndarray        # (Ns+1, D)
    operator: np.ndarray        # (Ns+1, Ns+1) normalized propagation
    patch_row: int              # row of h_p (aggregated target position)
    target_row: int             # row of h_t (isolated raw copy)
    num_context_rows: int       # rows participating in the readout h_s


@dataclass
class HypergraphView:
    """Anonymized dual-hypergraph view of one target's edges.

    Row layout (``Ms`` dual nodes + ``Mtar``): rows ``0..Mtar-1`` are the
    anonymized target edges, rows ``Mtar..Ms-1`` the context edges, rows
    ``Ms..Ms+Mtar-1`` the isolated raw-feature copies of the target
    edges.
    """

    features: np.ndarray        # (Ms+Mtar, D)
    operator: np.ndarray        # normalized HGNN propagation (dense)
    num_target_edges: int       # Mtar
    num_context_rows: int       # Ms (rows pooled into z_s)
    edge_orig_ids: np.ndarray   # (Mtar,) parent-graph edge ids


def _inverse_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """``values**exponent`` with zeros mapped to zero (no warnings)."""
    out = np.zeros_like(values)
    positive = values > 0
    out[positive] = values[positive] ** exponent
    return out


def edge_features(features: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Dual node features (Definition 2): each edge's endpoint mean."""
    features = np.asarray(features, dtype=np.float64)
    if len(edges) == 0:
        return np.zeros((0, features.shape[1]))
    edges = np.asarray(edges, dtype=np.int64)
    return 0.5 * (features[edges[:, 0]] + features[edges[:, 1]])


def dense_gcn_operator(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric GCN normalization of a small dense adjacency (Eq. 4)."""
    a_tilde = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt = _inverse_power(a_tilde.sum(axis=1), -0.5)
    return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]


def dense_hgnn_operator(incidence: np.ndarray) -> np.ndarray:
    """HGNN propagation of a small dense incidence matrix (Eq. 10)."""
    dv = _inverse_power(incidence.sum(axis=1), -0.5)
    de = _inverse_power(incidence.sum(axis=0), -1.0)
    scaled = incidence * dv[:, None]
    return (scaled * de[None, :]) @ scaled.T


def build_graph_view(sub: SampledSubgraph) -> GraphView:
    """Anonymize the target node (Eq. 1) and extend the adjacency (Eq. 2)."""
    ns = sub.num_nodes
    dim = sub.features.shape[1]

    features = np.zeros((ns + 1, dim))
    features[1:ns] = sub.features[1:]
    features[ns] = sub.features[0]          # raw copy of the target

    adjacency = np.zeros((ns + 1, ns + 1))
    if len(sub.edges):
        adjacency[sub.edges[:, 0], sub.edges[:, 1]] = 1.0
        adjacency[sub.edges[:, 1], sub.edges[:, 0]] = 1.0
    adjacency[ns, ns] = 1.0                 # isolated self-loop of Eq. 2

    return GraphView(
        features=features,
        operator=dense_gcn_operator(adjacency),
        patch_row=0,
        target_row=ns,
        num_context_rows=ns,
    )


def build_hypergraph_view(sub: SampledSubgraph) -> Optional[HypergraphView]:
    """Dual-transform and anonymize target edges (Eq. 7–8), unaugmented.

    Returns ``None`` when the subgraph has no edges at all (isolated
    target).
    """
    ms = sub.num_edges
    if ms == 0:
        return None
    mtar = sub.num_target_edges
    ns = sub.num_nodes
    dim = sub.features.shape[1]

    dual_features = edge_features(sub.features, sub.edges)       # (Ms, D)
    incidence = np.zeros((ms, ns))                               # M* = Mᵀ
    edge_ids = np.arange(ms)
    incidence[edge_ids, sub.edges[:, 0]] = 1.0
    incidence[edge_ids, sub.edges[:, 1]] = 1.0

    # Eq. 7: zero the target-edge rows, append their raw features.
    features = np.zeros((ms + mtar, dim))
    features[mtar:ms] = dual_features[mtar:]
    features[ms:] = dual_features[:mtar]

    # Eq. 8: extend the incidence with an identity block for the copies.
    extended = np.zeros((ms + mtar, ns + mtar))
    extended[:ms, :ns] = incidence
    if mtar > 0:
        extended[ms:, ns:] = np.eye(mtar)

    return HypergraphView(
        features=features,
        operator=dense_hgnn_operator(extended),
        num_target_edges=mtar,
        num_context_rows=ms,
        edge_orig_ids=sub.target_edge_orig_ids.copy(),
    )


def batch_graph_views(views: Sequence[GraphView]) -> BatchedGraphViews:
    """Stack uniform graph views (same row count, patch row 0, target
    row last, every row but the target's in the readout) into the dense
    ``(B, S, S)`` batch."""
    rows_per = views[0].features.shape[0]
    assert all(v.features.shape[0] == rows_per
               and v.patch_row == 0
               and v.target_row == rows_per - 1
               and v.num_context_rows == rows_per - 1
               for v in views), "graph views must share one layout"
    return BatchedGraphViews(
        features=np.vstack([v.features for v in views]),
        operator=np.stack([v.operator for v in views]))


def batch_hypergraph_views(
    views: Sequence[Optional[HypergraphView]],
    feature_dim: int,
) -> BatchedHypergraphViews:
    """Stack hypergraph views; ``None`` entries become zero-row placeholders."""
    batch = len(views)
    blocks, sizes = [], []
    for view in views:
        if view is None:
            sizes.append(1)  # single zero placeholder row
            blocks.append(sp.csr_matrix((1, 1)))
        else:
            sizes.append(view.features.shape[0])
            blocks.append(view.operator)
    offsets = np.cumsum([0] + sizes)
    features = np.zeros((offsets[-1], feature_dim))
    zt_rows, owners, orig_ids = [], [], []
    p_rows, p_cols, p_vals = [], [], []
    c_rows, c_cols, c_vals = [], [], []
    has_edges = np.zeros(batch, dtype=bool)
    for b, (view, off) in enumerate(zip(views, offsets)):
        if view is None:
            continue
        has_edges[b] = True
        rows_here = view.features.shape[0]
        features[off:off + rows_here] = view.features
        ms = view.num_context_rows
        mtar = view.num_target_edges
        for t in range(mtar):
            zt_rows.append(off + ms + t)
            owners.append(b)
            orig_ids.append(int(view.edge_orig_ids[t]))
            p_rows.append(b)
            p_cols.append(off + t)          # anonymized target-edge rows → Z_p
            p_vals.append(1.0 / mtar)
        for r in range(ms):
            c_rows.append(b)
            c_cols.append(off + r)
            c_vals.append(1.0 / ms)
    operator = sp.block_diag(blocks, format="csr")
    total = features.shape[0]
    patch_pool = sp.csr_matrix((p_vals, (p_rows, p_cols)), shape=(batch, total))
    context_pool = sp.csr_matrix((c_vals, (c_rows, c_cols)), shape=(batch, total))
    return BatchedHypergraphViews(
        features=features,
        operator=operator,
        zt_rows=np.asarray(zt_rows, dtype=np.int64),
        edge_owner=np.asarray(owners, dtype=np.int64),
        edge_orig_ids=np.asarray(orig_ids, dtype=np.int64),
        edge_patch_rows=np.asarray(p_cols, dtype=np.int64),
        patch_pool=patch_pool,
        context_pool=context_pool,
        has_edges=has_edges,
    )
