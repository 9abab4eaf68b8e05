"""Dense per-target reference for BOURNE's views — the tests' oracle.

The library builds views for a whole sampled batch at once
(:func:`repro.core.views.build_batched_views`).  This module keeps the
straightforward per-target construction the vectorized builders must
reproduce bit for bit: one subgraph at a time, small dense adjacency /
incidence matrices normalized with dense GCN (Eq. 4) and HGNN (Eq. 10)
operators, then stacked into the same batch containers: a dense
``(B, S, S)`` stack for graph views, flat incidence arrays for
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
    incidence: np.ndarray       # (Ms+Mtar, Ns+Mtar) extended incidence (Eq. 8)
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
        incidence=extended,
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
    """Stack hypergraph views into the flat batch layout.

    Each view's incidence entries are read off its dense extended
    incidence, and its degree scales are that incidence's own row and
    column sums (Eq. 10).  ``None`` entries become one zero row with a
    1x1 all-zero incidence.
    """
    incidences = [np.zeros((1, 1)) if view is None else view.incidence
                  for view in views]
    row_off = np.cumsum([0] + [m.shape[0] for m in incidences])
    col_off = np.cumsum([0] + [m.shape[1] for m in incidences])
    features = np.zeros((row_off[-1], feature_dim))
    inc_rows, inc_cols, inc_view, row_scale, col_scale = [], [], [], [], []
    context_counts = np.zeros(len(views), dtype=np.int64)
    target_counts = np.zeros(len(views), dtype=np.int64)
    zt_rows, owners, orig_ids, patch_rows = [], [], [], []
    context_rows, context_owner = [], []
    for b, (view, incidence) in enumerate(zip(views, incidences)):
        rows, cols = np.nonzero(incidence)
        inc_rows.append(row_off[b] + rows)
        inc_cols.append(col_off[b] + cols)
        inc_view.append(np.full(len(rows), b))
        row_scale.append(_inverse_power(incidence.sum(axis=1), -0.5))
        col_scale.append(_inverse_power(incidence.sum(axis=0), -1.0))
        if view is None:
            continue
        off = row_off[b]
        features[off:row_off[b + 1]] = view.features
        ms = context_counts[b] = view.num_context_rows
        mtar = target_counts[b] = view.num_target_edges
        for t in range(mtar):
            zt_rows.append(off + ms + t)
            owners.append(b)
            orig_ids.append(int(view.edge_orig_ids[t]))
            patch_rows.append(off + t)      # anonymized target-edge rows → Z_p
        context_rows.extend(range(off, off + ms))
        context_owner.extend([b] * ms)

    def ids(values):
        return np.asarray(values, dtype=np.int64)

    return BatchedHypergraphViews(
        features=features,
        inc_rows=np.concatenate(inc_rows),
        inc_cols=np.concatenate(inc_cols),
        inc_view=np.concatenate(inc_view),
        row_scale=np.concatenate(row_scale),
        col_scale=np.concatenate(col_scale),
        row_offsets=ids(row_off),
        col_offsets=ids(col_off),
        context_counts=context_counts,
        target_counts=target_counts,
        context_rows=ids(context_rows),
        context_owner=ids(context_owner),
        zt_rows=ids(zt_rows),
        edge_owner=ids(owners),
        edge_orig_ids=ids(orig_ids),
        edge_patch_rows=ids(patch_rows),
    )


def dense_hypergraph_pools(views: Sequence[Optional[HypergraphView]]):
    """``(patch, context)`` readout pools of stacked hypergraph views as
    dense ``(B, Σ rows)`` matrices: each view's mean over its first
    ``Mtar`` rows and over its first ``Ms`` rows (a ``None`` view is one
    row and pools nothing)."""
    sizes = [1 if view is None else view.features.shape[0] for view in views]
    offsets = np.cumsum([0] + sizes)
    patch = np.zeros((len(views), offsets[-1]))
    context = np.zeros((len(views), offsets[-1]))
    for b, view in enumerate(views):
        if view is None:
            continue
        mtar, ms = view.num_target_edges, view.num_context_rows
        if mtar:
            patch[b, offsets[b]:offsets[b] + mtar] = 1.0 / mtar
        context[b, offsets[b]:offsets[b] + ms] = 1.0 / ms
    return patch, context
