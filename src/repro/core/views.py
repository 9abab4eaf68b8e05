"""View construction: anonymized graph views and augmented dual-hypergraph views.

Implements Section IV-A to IV-C preprocessing:

* graph view  ``Ĝ_t = {X̂_t, Â_t}`` — target-node anonymization (Eq. 1–2),
* hypergraph view ``Ĝ*_t = {X̂*_t, M̂*_t}`` — dual transformation,
  Γ1/Γ2 augmentation, and target-edge anonymization (Eq. 7–8),

plus batched containers that stitch the per-target views of a minibatch
into one block-diagonal operator so each training step costs two sparse
matmuls instead of ``2B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..graph.dual import edge_features
from ..graph.index import seeded_uniform
from ..graph.normalize import batched_gcn_operator, block_diag_csr
from ..graph.sampling import SampledSubgraph, SampledSubgraphBatch


@dataclass
class GraphView:
    """Anonymized graph view of one target node.

    Row layout (``Ns`` slots + 1): row 0 is the anonymized target
    (features zeroed, edges kept), rows ``1..Ns-1`` the context slots,
    row ``Ns`` the isolated raw-feature copy of the target.

    Operators are small dense arrays (views have ≤ K+2 rows); they are
    stitched into one sparse block-diagonal system at batch time.
    """

    features: np.ndarray        # (Ns+1, D)
    operator: np.ndarray        # (Ns+1, Ns+1) normalized propagation
    patch_row: int              # row of h_p (aggregated target position)
    target_row: int             # row of h_t (isolated raw copy)
    num_context_rows: int       # rows participating in the readout h_s


@dataclass
class HypergraphView:
    """Anonymized + augmented dual-hypergraph view of one target's edges.

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


def _dense_gcn_operator(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric GCN normalization of a small dense adjacency (Eq. 4)."""
    a_tilde = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt = _inverse_power(a_tilde.sum(axis=1), -0.5)
    return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]


def _dense_hgnn_operator(incidence: np.ndarray) -> np.ndarray:
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
    operator = _dense_gcn_operator(adjacency)

    return GraphView(
        features=features,
        operator=operator,
        patch_row=0,
        target_row=ns,
        num_context_rows=ns,
    )


def forward_mask_draws(dim: int, prob: float,
                       rng: np.random.Generator) -> Optional[np.ndarray]:
    """The Γ1 keep-vector :func:`mask_features` applies (``None`` when
    masking is disabled).  Consumes exactly the draws the masking
    helper would — the fused inference kernels call this so their mask
    matches the reference forward draw-for-draw."""
    if prob <= 0.0:
        return None
    return rng.random(dim) >= prob


def mask_features(features: np.ndarray, prob: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Γ1 — zero random feature dimensions with probability ``prob``."""
    keep = forward_mask_draws(features.shape[1], prob, rng)
    if keep is None:
        return features
    return features * keep[None, :]


#: Stream tag of the counter-based forward feature mask (the sampler
#: owns tags 1 and 2 in :mod:`repro.graph.sampling`).
_FORWARD_MASK_STREAM = 3

#: Stream tags of the counter-based Γ1/Γ2 *view* augmentation: each
#: target's mask and incidence-drop draws are keyed off its own sampling
#: seed, so augmented views never depend on batch layout or sharding.
_VIEW_MASK_STREAM = 4
_VIEW_DROP_STREAM = 5


def seeded_forward_mask_draws(dim: int, prob: float,
                              seeds) -> Optional[np.ndarray]:
    """Counter-based Γ1 keep-vectors, one ``(D,)`` row per seed
    (``None`` when masking is disabled); a pure function of ``(seed,
    dimension)`` shared by :func:`seeded_mask_features` and the fused
    inference kernels.  ``seeds`` is one seed or an array of them."""
    if prob <= 0.0:
        return None
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
    draws = seeded_uniform(seeds[:, None], _FORWARD_MASK_STREAM,
                           np.arange(dim, dtype=np.uint64)[None, :])
    return draws >= prob


def seeded_mask_features(features: np.ndarray, prob: float, seeds,
                         view_starts: Optional[np.ndarray] = None
                         ) -> np.ndarray:
    """Γ1 with counter-based draws: the mask depends on the seed only.

    Unlike :func:`mask_features`, which consumes a sequential RNG and
    therefore draws differently depending on how many forwards preceded
    it, this mask is a pure function of ``(seed, dimension)`` — the same
    ``splitmix64`` streams the batch sampler uses.  One seed masks every
    row; an array of seeds masks view ``i`` — the rows from
    ``view_starts[i]`` up to the next view's start — with ``seeds[i]``.
    Feeding each view its round's seed makes ``node_only`` augmented
    inference invariant to batch layout and to sharding.
    """
    keep = seeded_forward_mask_draws(features.shape[1], prob, seeds)
    if keep is None:
        return features
    if len(keep) > 1:
        rows = np.diff(np.append(view_starts, len(features)))
        keep = np.repeat(keep, rows, axis=0)
    return features * keep


def perturb_incidence(incidence, prob: float,
                      rng: np.random.Generator):
    """Γ2 — kick nodes out of hyperedges i.i.d. Bernoulli(``prob``).

    Only incidence entries are dropped; the dual-node count is unchanged
    (Section IV-A: hyperedge perturbation keeps the node set constant).
    Zero-degree rows created by the drop are handled by the operator
    normalization.  Accepts dense arrays or scipy sparse matrices.
    """
    if sp.issparse(incidence):
        if prob <= 0.0 or incidence.nnz == 0:
            return incidence
        result = incidence.tocoo()
        keep = rng.random(result.nnz) >= prob
        return sp.csr_matrix(
            (result.data[keep], (result.row[keep], result.col[keep])),
            shape=incidence.shape,
        )
    if prob <= 0.0:
        return incidence
    mask = rng.random(incidence.shape) >= prob
    return incidence * mask


def build_hypergraph_view(
    sub: SampledSubgraph,
    rng: np.random.Generator,
    feature_mask_prob: float = 0.2,
    incidence_drop_prob: float = 0.2,
    augment: bool = True,
) -> Optional[HypergraphView]:
    """Dual-transform, augment (Γ2∘Γ1), and anonymize target edges.

    Returns ``None`` when the subgraph has no edges at all (isolated
    target) — the caller substitutes a zero context, which maximizes the
    disagreement score for such degenerate nodes.
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

    if augment:
        dual_features = mask_features(dual_features, feature_mask_prob, rng)
        incidence = perturb_incidence(incidence, incidence_drop_prob, rng)

    # Eq. 7: zero the target-edge rows, append their raw features.
    features = np.zeros((ms + mtar, dim))
    features[mtar:ms] = dual_features[mtar:]
    features[ms:] = dual_features[:mtar]

    # Eq. 8: extend the incidence with an identity block for the copies.
    extended = np.zeros((ms + mtar, ns + mtar))
    extended[:ms, :ns] = incidence
    if mtar > 0:
        extended[ms:, ns:] = np.eye(mtar)
    operator = _dense_hgnn_operator(extended)

    return HypergraphView(
        features=features,
        operator=operator,
        num_target_edges=mtar,
        num_context_rows=ms,
        edge_orig_ids=sub.target_edge_orig_ids.copy(),
    )


# ----------------------------------------------------------------------
# Batched containers
# ----------------------------------------------------------------------
@dataclass
class BatchedGraphViews:
    """A minibatch of graph views under one block-diagonal operator.

    ``operator_stack`` carries the same propagation as ``operator`` but
    as the dense ``(B, S, S)`` per-view stack (``S`` rows each, patch
    row 0, target row ``S-1``, context rows ``0..S-2``) when every view
    is uniform — the layout the batched builders produce.  The fused
    inference backends (:mod:`repro.nn.fused`) run on the stack; the
    reference forward ignores it, so both operators always describe
    the identical system.  ``None`` when views are ragged.
    """

    features: np.ndarray        # (Σ rows, D)
    operator: sp.csr_matrix
    patch_rows: np.ndarray      # (B,)
    target_rows: np.ndarray     # (B,)
    context_pool: sp.csr_matrix  # (B, Σ rows) mean-readout operator
    operator_stack: Optional[np.ndarray] = None  # (B, S, S) dense stack

    @property
    def batch_size(self) -> int:
        return len(self.patch_rows)


@dataclass
class BatchedHypergraphViews:
    """A minibatch of hypergraph views under one block-diagonal operator."""

    features: np.ndarray
    operator: sp.csr_matrix
    zt_rows: np.ndarray          # (Σ Mtar,) isolated target-edge rows
    edge_owner: np.ndarray       # (Σ Mtar,) batch index of each target edge
    edge_orig_ids: np.ndarray    # (Σ Mtar,)
    edge_patch_rows: np.ndarray  # (Σ Mtar,) anonymized (context-aggregated) rows
    patch_pool: sp.csr_matrix    # (B, Σ rows) mean over anonymized target-edge rows
    context_pool: sp.csr_matrix  # (B, Σ rows) mean over all context rows (z_s)
    has_edges: np.ndarray        # (B,) bool — False for degenerate targets


def batch_graph_views_from_subgraphs(
        batch: SampledSubgraphBatch) -> BatchedGraphViews:
    """Anonymize + batch the graph views of a sampled batch, vectorized.

    Exploits the batch's uniform slot count: features, extended
    adjacencies (Eq. 1–2), and GCN operators are built as one ``(B, …)``
    stack and stitched into the block-diagonal system with pure index
    arithmetic.  Produces the same :class:`BatchedGraphViews` (bitwise)
    as ``batch_graph_views([build_graph_view(v) for v in batch.views()])``.
    """
    num_views = len(batch)
    ns = batch.slots
    dim = batch.features.shape[1]
    if num_views == 0:
        return BatchedGraphViews(
            features=np.zeros((0, dim)),
            operator=sp.csr_matrix((0, 0)),
            patch_rows=np.zeros(0, dtype=np.int64),
            target_rows=np.zeros(0, dtype=np.int64),
            context_pool=sp.csr_matrix((0, 0)),
        )
    rows_per = ns + 1

    feats = batch.features.reshape(num_views, ns, dim)
    features = np.zeros((num_views, rows_per, dim))
    features[:, 1:ns] = feats[:, 1:]
    features[:, ns] = feats[:, 0]           # raw copy of each target

    adjacency = np.zeros((num_views, rows_per, rows_per))
    edge_view = np.repeat(np.arange(num_views), np.diff(batch.edge_offsets))
    slot_a, slot_b = batch.edges[:, 0], batch.edges[:, 1]
    adjacency[edge_view, slot_a, slot_b] = 1.0
    adjacency[edge_view, slot_b, slot_a] = 1.0
    adjacency[:, ns, ns] = 1.0              # isolated self-loop of Eq. 2
    operator_stack = batched_gcn_operator(adjacency)
    operator = block_diag_csr(operator_stack)

    offsets = np.arange(num_views, dtype=np.int64) * rows_per
    pool_rows = np.repeat(np.arange(num_views), ns)
    pool_cols = (offsets[:, None] + np.arange(ns)).reshape(-1)
    context_pool = sp.csr_matrix(
        (np.full(num_views * ns, 1.0 / ns), (pool_rows, pool_cols)),
        shape=(num_views, num_views * rows_per))
    return BatchedGraphViews(
        features=features.reshape(-1, dim),
        operator=operator,
        patch_rows=offsets.copy(),
        target_rows=offsets + ns,
        context_pool=context_pool,
        operator_stack=operator_stack,
    )


def batch_hypergraph_views_from_subgraphs(
    batch: SampledSubgraphBatch,
    rng: Optional[np.random.Generator] = None,
    feature_mask_prob: float = 0.2,
    incidence_drop_prob: float = 0.2,
    augment: bool = True,
    target_seeds: Optional[np.ndarray] = None,
) -> BatchedHypergraphViews:
    """Dual-transform + augment + batch the hypergraph views, vectorized.

    The ragged per-target views (``Ms`` varies) are handled as flat
    segment arrays: dual features, Γ1/Γ2 augmentation draws, and the
    extended incidences (Eq. 7–8) are computed for the whole batch at
    once, and the block-diagonal HGNN operator falls out of ONE sparse
    product ``(Ŝ·D_e^{-1}) Ŝᵀ`` over the global scaled incidence — no
    per-view dense matmuls.  With augmentation off, per-block values
    match :func:`build_hypergraph_view` exactly.  Degenerate targets
    (no edges) become the same 1-row zero placeholders
    :func:`batch_hypergraph_views` emits.

    Augmentation draws are **counter-based** when ``target_seeds``
    (``(B,)`` ``uint64``, normally the per-target sampling seeds) is
    given: each view's Γ1 mask is a pure function of
    ``(seed, dimension)`` and each incidence drop of
    ``(seed, local edge, endpoint)``, so augmented views are identical
    whether a target is built alone, inside any batch, or on any shard
    — the property sharded training and augmented sharded inference
    rely on.  Without seeds the legacy path draws sequentially from
    ``rng`` (same distribution, batch-layout dependent).
    """
    num_views = len(batch)
    slots = batch.slots
    dim = batch.features.shape[1]
    if num_views == 0:
        return batch_hypergraph_views([], dim)
    edge_counts = np.diff(batch.edge_offsets)          # Ms per view
    target_counts = batch.num_target_edges.astype(np.int64)
    has_edges = edge_counts > 0

    view_rows = np.where(has_edges, edge_counts + target_counts, 1)
    view_cols = np.where(has_edges, slots + target_counts, 1)
    row_off = np.zeros(num_views + 1, dtype=np.int64)
    np.cumsum(view_rows, out=row_off[1:])
    col_off = np.zeros(num_views + 1, dtype=np.int64)
    np.cumsum(view_cols, out=col_off[1:])
    total_rows, total_cols = int(row_off[-1]), int(col_off[-1])
    num_edges = len(batch.edges)

    # Flat dual node features: endpoint mean per sampled edge (the
    # slot-feature rows live at view * slots + slot).
    edge_view = np.repeat(np.arange(num_views), edge_counts)
    slot_rows = edge_view * slots
    local_edge = np.arange(num_edges) - batch.edge_offsets[edge_view]
    dual = 0.5 * (batch.features[slot_rows + batch.edges[:, 0]]
                  + batch.features[slot_rows + batch.edges[:, 1]])

    if target_seeds is not None:
        seeds = np.asarray(target_seeds, dtype=np.uint64).reshape(-1)
        if len(seeds) != num_views:
            raise ValueError(
                f"target_seeds has {len(seeds)} entries for "
                f"{num_views} views")
    else:
        seeds = None
    if augment and feature_mask_prob > 0.0 and num_edges:
        # Γ1: one D-dim mask per view.
        if seeds is not None:
            dims = np.arange(dim, dtype=np.uint64)
            masks = seeded_uniform(seeds[:, None], _VIEW_MASK_STREAM,
                                   dims[None, :]) >= feature_mask_prob
            dual = dual * masks[edge_view]
        else:
            # Legacy sequential draws, one mask per view *with edges*.
            masks = rng.random((int(has_edges.sum()), dim)) >= feature_mask_prob
            mask_row = np.cumsum(has_edges) - 1
            dual = dual * masks[mask_row[edge_view]]
    if augment and incidence_drop_prob > 0.0 and num_edges:
        # Γ2: i.i.d. Bernoulli drop per incidence entry (2 per edge).
        if seeds is not None:
            ends = np.arange(2, dtype=np.uint64)
            draws = seeded_uniform(
                seeds[edge_view][:, None], _VIEW_DROP_STREAM,
                (local_edge.astype(np.uint64) * np.uint64(2))[:, None]
                + ends[None, :])
            keep = draws >= incidence_drop_prob
        else:
            keep = rng.random((num_edges, 2)) >= incidence_drop_prob
    else:
        keep = np.ones((num_edges, 2), dtype=bool)

    # Eq. 7 row layout per view: [anonymized target edges (zeros) |
    # context edges | raw copies of the target edges].
    is_target = local_edge < target_counts[edge_view]
    features = np.zeros((total_rows, dim))
    ctx = ~is_target
    features[row_off[edge_view[ctx]] + local_edge[ctx]] = dual[ctx]
    features[row_off[edge_view[is_target]] + edge_counts[edge_view[is_target]]
             + local_edge[is_target]] = dual[is_target]

    # Eq. 8 incidence entries: dual rows hit their two endpoint slots
    # (post-Γ2); isolated copies hit their private identity columns.
    dual_rows = row_off[edge_view] + local_edge
    end_a = col_off[edge_view] + batch.edges[:, 0]
    end_b = col_off[edge_view] + batch.edges[:, 1]
    target_view = np.repeat(np.arange(num_views), target_counts)
    target_pos = (np.arange(int(target_counts.sum()))
                  - np.concatenate([[0], np.cumsum(target_counts)[:-1]]
                                   )[target_view])
    iso_rows = row_off[target_view] + edge_counts[target_view] + target_pos
    inc_rows = np.concatenate([dual_rows[keep[:, 0]], dual_rows[keep[:, 1]],
                               iso_rows])
    inc_cols = np.concatenate([end_a[keep[:, 0]], end_b[keep[:, 1]],
                               col_off[target_view] + slots + target_pos])

    # HGNN normalization (Eq. 10) over the global incidence; the block
    # structure survives the product because blocks share no columns.
    row_degree = np.bincount(inc_rows, minlength=total_rows).astype(np.float64)
    col_degree = np.bincount(inc_cols, minlength=total_cols).astype(np.float64)
    dv = np.zeros(total_rows)
    dv[row_degree > 0] = row_degree[row_degree > 0] ** -0.5
    de = np.zeros(total_cols)
    de[col_degree > 0] = col_degree[col_degree > 0] ** -1.0
    scaled = sp.csr_matrix((dv[inc_rows], (inc_rows, inc_cols)),
                           shape=(total_rows, total_cols))
    weighted = sp.csr_matrix((dv[inc_rows] * de[inc_cols],
                              (inc_rows, inc_cols)),
                             shape=(total_rows, total_cols))
    operator = (weighted @ scaled.T).tocsr()

    patch_pool = sp.csr_matrix(
        (1.0 / target_counts[target_view],
         (target_view, row_off[target_view] + target_pos)),
        shape=(num_views, total_rows))
    context_pool = sp.csr_matrix(
        (1.0 / edge_counts[edge_view], (edge_view, dual_rows)),
        shape=(num_views, total_rows))
    return BatchedHypergraphViews(
        features=features,
        operator=operator,
        zt_rows=iso_rows,
        edge_owner=target_view,
        edge_orig_ids=batch.edge_orig_ids[is_target],
        edge_patch_rows=row_off[target_view] + target_pos,
        patch_pool=patch_pool,
        context_pool=context_pool,
        has_edges=has_edges,
    )


def build_batched_views(
    batch: SampledSubgraphBatch,
    rng: Optional[np.random.Generator] = None,
    feature_mask_prob: float = 0.2,
    incidence_drop_prob: float = 0.2,
    augment: bool = True,
    target_seeds: Optional[np.ndarray] = None,
):
    """Both batched views of a sampled target batch, fully vectorized.

    Returns ``(BatchedGraphViews, BatchedHypergraphViews)``; no
    per-target Python loop on either path.  ``target_seeds`` switches
    the Γ1/Γ2 augmentation to the counter-based per-target streams (see
    :func:`batch_hypergraph_views_from_subgraphs`).
    """
    return (batch_graph_views_from_subgraphs(batch),
            batch_hypergraph_views_from_subgraphs(
                batch, rng=rng,
                feature_mask_prob=feature_mask_prob,
                incidence_drop_prob=incidence_drop_prob,
                augment=augment,
                target_seeds=target_seeds))


def batch_graph_views(views: Sequence[GraphView]) -> BatchedGraphViews:
    """Stack graph views into one block-diagonal system.

    When every view has the builders' uniform layout (equal row count,
    patch row 0, target row last, all-but-last context rows) the dense
    per-view operators are also exposed as ``operator_stack`` so the
    fused inference backends can skip the block-diagonal indirection.
    """
    offsets = np.cumsum([0] + [v.features.shape[0] for v in views])
    features = np.vstack([v.features for v in views])
    operator = sp.block_diag([v.operator for v in views], format="csr")
    rows_per = views[0].features.shape[0] if views else 0
    uniform = views and all(
        v.features.shape[0] == rows_per
        and v.patch_row == 0
        and v.target_row == rows_per - 1
        and v.num_context_rows == rows_per - 1
        for v in views)
    operator_stack = (np.stack([v.operator for v in views])
                      if uniform else None)
    patch_rows = np.array([v.patch_row + off for v, off in zip(views, offsets)],
                          dtype=np.int64)
    target_rows = np.array([v.target_row + off for v, off in zip(views, offsets)],
                           dtype=np.int64)
    rows, cols, vals = [], [], []
    for b, (view, off) in enumerate(zip(views, offsets)):
        n = view.num_context_rows
        rows.extend([b] * n)
        cols.extend(range(off, off + n))
        vals.extend([1.0 / n] * n)
    context_pool = sp.csr_matrix((vals, (rows, cols)),
                                 shape=(len(views), features.shape[0]))
    return BatchedGraphViews(features, operator, patch_rows, target_rows,
                             context_pool, operator_stack=operator_stack)


def batch_hypergraph_views(
    views: Sequence[Optional[HypergraphView]],
    feature_dim: int,
) -> BatchedHypergraphViews:
    """Stack hypergraph views; ``None`` entries become zero-row placeholders."""
    batch = len(views)
    if batch == 0:
        empty = np.zeros(0, dtype=np.int64)
        return BatchedHypergraphViews(
            features=np.zeros((0, feature_dim)),
            operator=sp.csr_matrix((0, 0)),
            zt_rows=empty,
            edge_owner=empty.copy(),
            edge_orig_ids=empty.copy(),
            edge_patch_rows=empty.copy(),
            patch_pool=sp.csr_matrix((0, 0)),
            context_pool=sp.csr_matrix((0, 0)),
            has_edges=np.zeros(0, dtype=bool),
        )
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
