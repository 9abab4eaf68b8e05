"""View construction: anonymized graph views and augmented dual-hypergraph views.

Implements Section IV-A to IV-C preprocessing for a whole sampled
target batch at once:

* graph view  ``Ĝ_t = {X̂_t, Â_t}`` — target-node anonymization (Eq. 1–2),
* hypergraph view ``Ĝ*_t = {X̂*_t, M̂*_t}`` — dual transformation,
  Γ1/Γ2 augmentation, and target-edge anonymization (Eq. 7–8),

the graph views as one dense ``(B, S, S)`` operator stack (every view
has the same ``S = K + 2`` rows) and the ragged hypergraph views as flat
incidence arrays with their HGNN degree scales and per-view offsets, so
a forward costs batched products instead of ``2B`` per-view ones.  The
fused kernel pads the flat arrays into a ``(B, M, C)`` stack; the numpy
reference reads a block-diagonal sparse operator that the container
builds from the same arrays on first access, so only the reference
pays for sparse matrices.  Every augmentation draw — the Γ1/Γ2 view
augmentation and the ``node_only`` forward mask — is counter-based,
keyed by per-target (or per-round) ``uint64`` seeds through the same
``splitmix64`` streams the sampler uses, so a view never depends on
batch layout or sharding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..graph.index import seeded_uniform
from ..graph.normalize import batched_gcn_operator
from ..graph.sampling import SampledSubgraphBatch


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
    (``None`` when masking is disabled).

    The ``node_only`` forward mask of both backends: a pure function of
    ``(seed, dimension)`` on the same ``splitmix64`` streams the batch
    sampler uses, so it never depends on how many forwards preceded it.
    ``seeds`` is one seed (the whole batch) or one per view (the scoring
    loop feeds each view its round's seed, which makes ``node_only``
    augmented inference invariant to batch layout and to sharding).  It
    is required even when masking is disabled: the ``node_only`` forward
    has no other source for the mask."""
    if seeds is None:
        raise ValueError("the node_only forward mask needs mask_seed")
    if prob <= 0.0:
        return None
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
    draws = seeded_uniform(seeds[:, None], _FORWARD_MASK_STREAM,
                           np.arange(dim, dtype=np.uint64)[None, :])
    return draws >= prob


# ----------------------------------------------------------------------
# Batched containers
# ----------------------------------------------------------------------
@dataclass
class BatchedGraphViews:
    """A minibatch of graph views as one dense ``(B, S, S)`` stack.

    Every view has the same layout: row 0 is the anonymized target (the
    patch row), rows ``1..S-2`` are context, and row ``S-1`` is the raw
    target copy; the readout's context rows are ``0..S-2``.  Both
    backends read the views by position from this layout.
    """

    features: np.ndarray        # (B·S, D)
    operator: np.ndarray        # (B, S, S) normalized propagation

    @property
    def batch_size(self) -> int:
        return len(self.operator)


@dataclass
class BatchedHypergraphViews:
    """A minibatch of ragged hypergraph views as flat incidence arrays.

    View ``b`` owns rows ``row_offsets[b]:row_offsets[b + 1]`` of
    ``features`` and incidence columns ``col_offsets[b]:col_offsets[b + 1]``.
    Its row layout is ``[anonymized target edges | context edges | raw
    copies of the target edges]``, so the rows pooled into ``z_p`` are
    its first ``target_counts[b]`` and those pooled into ``z_s`` its
    first ``context_counts[b]``.  A view without edges is one zero row
    with no incidence entry.

    The fused kernel reads the flat arrays; ``operator``, ``patch_pool``
    and ``context_pool`` are the numpy reference's CSR matrices, built
    from the same arrays on first access.
    """

    features: np.ndarray         # (Σ rows, D)
    inc_rows: np.ndarray         # (nnz,) incidence entries: global row,
    inc_cols: np.ndarray         # (nnz,) global column
    inc_view: np.ndarray         # (nnz,) and batch index
    row_scale: np.ndarray        # (Σ rows,) D_v^{-1/2}
    col_scale: np.ndarray        # (Σ cols,) D_e^{-1}
    row_offsets: np.ndarray      # (B + 1,)
    col_offsets: np.ndarray      # (B + 1,)
    context_counts: np.ndarray   # (B,) Ms: rows pooled into z_s
    target_counts: np.ndarray    # (B,) Mtar: rows pooled into z_p
    context_rows: np.ndarray     # (Σ Ms,) the z_s rows of every view
    context_owner: np.ndarray    # (Σ Ms,) batch index of each of them
    zt_rows: np.ndarray          # (Σ Mtar,) isolated target-edge rows
    edge_owner: np.ndarray       # (Σ Mtar,) batch index of each target edge
    edge_orig_ids: np.ndarray    # (Σ Mtar,)
    edge_patch_rows: np.ndarray  # (Σ Mtar,) anonymized (context-aggregated) rows

    @property
    def shape(self):
        """``(Σ rows, Σ cols)`` of the block-diagonal incidence."""
        return int(self.row_offsets[-1]), int(self.col_offsets[-1])

    @cached_property
    def operator(self) -> sp.csr_matrix:
        """Block-diagonal HGNN operator ``(Ŝ·D_e^{-1}) Ŝᵀ`` (Eq. 10),
        ``Ŝ = D_v^{-1/2} M``: one sparse product over the global scaled
        incidence; the blocks survive it because they share no column."""
        rows, cols = self.inc_rows, self.inc_cols
        row_values = self.row_scale[rows]
        scaled = sp.csr_matrix((row_values, (rows, cols)), shape=self.shape)
        weighted = sp.csr_matrix((row_values * self.col_scale[cols],
                                  (rows, cols)), shape=self.shape)
        return (weighted @ scaled.T).tocsr()

    @cached_property
    def patch_pool(self) -> sp.csr_matrix:
        """``(B, Σ rows)`` mean over each view's anonymized target-edge rows."""
        return sp.csr_matrix(
            (1.0 / self.target_counts[self.edge_owner],
             (self.edge_owner, self.edge_patch_rows)),
            shape=(len(self.target_counts), self.shape[0]))

    @cached_property
    def context_pool(self) -> sp.csr_matrix:
        """``(B, Σ rows)`` mean over each view's context rows (``z_s``)."""
        return sp.csr_matrix(
            (1.0 / self.context_counts[self.context_owner],
             (self.context_owner, self.context_rows)),
            shape=(len(self.context_counts), self.shape[0]))


def batch_graph_views_from_subgraphs(
        batch: SampledSubgraphBatch) -> BatchedGraphViews:
    """Anonymize + batch the graph views of a sampled batch, vectorized.

    Exploits the batch's uniform slot count: features, extended
    adjacencies (Eq. 1–2), and GCN operators are built as one ``(B, …)``
    stack.  Bitwise the per-target dense construction, view by view
    (the test suite pins it against a dense per-view oracle).
    """
    num_views = len(batch)
    ns = batch.slots
    dim = batch.features.shape[1]
    if num_views == 0:
        # No slot count to read: take the smallest layout (the target
        # and its raw copy), so readouts need no empty-batch case.
        return BatchedGraphViews(features=np.zeros((0, dim)),
                                 operator=np.zeros((0, 2, 2)))
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
    return BatchedGraphViews(features=features.reshape(-1, dim),
                             operator=batched_gcn_operator(adjacency))


def batch_hypergraph_views_from_subgraphs(
    batch: SampledSubgraphBatch,
    target_seeds: np.ndarray,
    feature_mask_prob: float = 0.2,
    incidence_drop_prob: float = 0.2,
    augment: bool = True,
) -> BatchedHypergraphViews:
    """Dual-transform + augment + batch the hypergraph views, vectorized.

    The ragged per-target views (``Ms`` varies) are handled as flat
    segment arrays: dual features, Γ1/Γ2 augmentation draws, the
    extended incidences (Eq. 7–8) and their HGNN degree scales (Eq. 10)
    are computed for the whole batch at once — no per-view loop and no
    sparse matrix (the reference's CSR operator is built from these
    arrays on first access).  With augmentation off, per-block operator
    values match the dense per-view HGNN construction exactly.
    Degenerate targets (no edges) become 1-row zero placeholders.

    Augmentation draws are **counter-based**, keyed by ``target_seeds``
    (``(B,)`` ``uint64``, normally the per-target sampling seeds): each
    view's Γ1 mask is a pure function of ``(seed, dimension)`` and each
    incidence drop of ``(seed, local edge, endpoint)``, so augmented
    views are identical whether a target is built alone, inside any
    batch, or on any shard — the property sharded training and
    augmented sharded inference rely on.
    """
    num_views = len(batch)
    slots = batch.slots
    dim = batch.features.shape[1]
    seeds = np.asarray(target_seeds, dtype=np.uint64).reshape(-1)
    if len(seeds) != num_views:
        raise ValueError(
            f"target_seeds has {len(seeds)} entries for {num_views} views")
    edge_counts = batch.edge_offsets[1:] - batch.edge_offsets[:-1]  # Ms
    target_counts = batch.num_target_edges.astype(np.int64)
    edged = edge_counts > 0

    view_rows = np.where(edged, edge_counts + target_counts, 1)
    view_cols = np.where(edged, slots + target_counts, 1)
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

    if augment and feature_mask_prob > 0.0 and num_edges:
        # Γ1: one D-dim mask per view.
        dims = np.arange(dim, dtype=np.uint64)
        masks = seeded_uniform(seeds[:, None], _VIEW_MASK_STREAM,
                               dims[None, :]) >= feature_mask_prob
        dual = dual * masks[edge_view]
    if augment and incidence_drop_prob > 0.0 and num_edges:
        # Γ2: i.i.d. Bernoulli drop per incidence entry (2 per edge,
        # one row per endpoint); only entries drop, the dual-node count
        # stays constant.
        ends = np.arange(2, dtype=np.uint64)
        draws = seeded_uniform(
            seeds[edge_view][None, :], _VIEW_DROP_STREAM,
            (local_edge.astype(np.uint64) * np.uint64(2))[None, :]
            + ends[:, None])
        keep = draws >= incidence_drop_prob
    else:
        keep = np.ones((2, num_edges), dtype=bool)

    # Eq. 7 row layout per view: [anonymized target edges (zeros) |
    # context edges | raw copies of the target edges].  Each view's
    # target edges lead its edge list, so they are its first Mtar rows.
    is_target = local_edge < target_counts[edge_view]
    target_view = edge_view[is_target]
    target_pos = local_edge[is_target]
    dual_rows = row_off[edge_view] + local_edge
    iso_rows = row_off[target_view] + edge_counts[target_view] + target_pos
    features = np.zeros((total_rows, dim))
    ctx = ~is_target
    features[dual_rows[ctx]] = dual[ctx]
    features[iso_rows] = dual[is_target]

    # Eq. 8 incidence entries: dual rows hit their two endpoint slots
    # (post-Γ2; every first endpoint before every second); isolated
    # copies hit their private identity columns.
    end, edge = np.nonzero(keep)
    entry_view = edge_view[edge]
    inc_rows = np.concatenate([dual_rows[edge], iso_rows])
    inc_cols = np.concatenate([col_off[entry_view] + batch.edges[edge, end],
                               col_off[target_view] + slots + target_pos])
    inc_view = np.concatenate([entry_view, target_view])

    # HGNN degree scales (Eq. 10) over the global incidence.
    row_degree = np.bincount(inc_rows, minlength=total_rows).astype(np.float64)
    col_degree = np.bincount(inc_cols, minlength=total_cols).astype(np.float64)
    dv = np.zeros(total_rows)
    dv[row_degree > 0] = row_degree[row_degree > 0] ** -0.5
    de = np.zeros(total_cols)
    de[col_degree > 0] = col_degree[col_degree > 0] ** -1.0
    return BatchedHypergraphViews(
        features=features,
        inc_rows=inc_rows,
        inc_cols=inc_cols,
        inc_view=inc_view,
        row_scale=dv,
        col_scale=de,
        row_offsets=row_off,
        col_offsets=col_off,
        context_counts=edge_counts,
        target_counts=target_counts,
        context_rows=dual_rows,
        context_owner=edge_view,
        zt_rows=iso_rows,
        edge_owner=target_view,
        edge_orig_ids=batch.edge_orig_ids[is_target],
        edge_patch_rows=row_off[target_view] + target_pos,
    )


def build_batched_views(
    batch: SampledSubgraphBatch,
    target_seeds: np.ndarray,
    feature_mask_prob: float = 0.2,
    incidence_drop_prob: float = 0.2,
    augment: bool = True,
):
    """Both batched views of a sampled target batch, fully vectorized.

    Returns ``(BatchedGraphViews, BatchedHypergraphViews)``; no
    per-target Python loop on either path.  ``target_seeds`` key the
    Γ1/Γ2 augmentation's per-target streams (see
    :func:`batch_hypergraph_views_from_subgraphs`).
    """
    return (batch_graph_views_from_subgraphs(batch),
            batch_hypergraph_views_from_subgraphs(
                batch, target_seeds,
                feature_mask_prob=feature_mask_prob,
                incidence_drop_prob=incidence_drop_prob,
                augment=augment))
