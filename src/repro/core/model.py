"""The BOURNE model: unified node + edge anomaly scoring.

Assembles view construction, the two encoding channels, the EMA target
update, and the context-swapping discriminator into one object with a
``forward_batch`` returning differentiable scores for training and
plain scores for inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph.graph import Graph
from ..graph.sampling import sample_enclosing_subgraphs
from ..obs import trace as obs_trace
from ..optim.ema import ExponentialMovingAverage
from ..tensor.autograd import Tensor, no_grad
from ..utils.seed import rng_from_seed
from .config import BourneConfig
from .discriminator import discriminate
from .encoders import OnlineEncoder, TargetEncoder
from .views import (
    BatchedGraphViews,
    BatchedHypergraphViews,
    build_batched_views,
    seeded_forward_mask_draws,
)


@dataclass
class BatchScores:
    """Differentiable output of one forward pass over a target batch."""

    node_scores: Optional[Tensor]     # (B,) or None (edge_only mode)
    edge_scores: Optional[Tensor]     # (Σ Mtar,) or None (node_only mode)
    edge_owner: np.ndarray            # (Σ Mtar,)
    edge_orig_ids: np.ndarray         # (Σ Mtar,)


def _graph_readout(h: Tensor, gviews: BatchedGraphViews
                   ) -> Tuple[Tensor, Tensor, Tensor]:
    """``(target, patch, context)`` readouts of ``(B·S, D')`` graph-view
    embeddings: row ``S-1``, row 0 and the mean of rows ``0..S-2``."""
    batch, size = gviews.operator.shape[:2]
    h = h.reshape(batch, size, h.shape[1])
    return h[:, -1], h[:, 0], h[:, :-1].mean(axis=1)


class Bourne:
    """BOURNE: bootstrapped self-supervised unified graph anomaly detector.

    Parameters
    ----------
    num_features:
        Attribute dimensionality ``D`` of the input graphs.
    config:
        Hyper-parameters; see :class:`BourneConfig`.
    """

    def __init__(self, num_features: int, config: Optional[BourneConfig] = None):
        self.config = config or BourneConfig()
        self.num_features = num_features
        cfg = self.config
        init_rng = rng_from_seed(cfg.seed)

        # One encoder pair in every mode: the mode only picks which
        # view's operator each branch reads (forward_batch).
        self.online = OnlineEncoder(num_features, cfg.hidden_dim,
                                    cfg.predictor_hidden, cfg.num_layers,
                                    init_rng)
        self.target = TargetEncoder(num_features, cfg.hidden_dim,
                                    cfg.num_layers, init_rng)

        self.ema = ExponentialMovingAverage(
            self.online.encoder_parameters(),
            self.target.encoder_parameters(),
            decay=cfg.decay_rate,
        )
        self.ema.initialize()

    # ------------------------------------------------------------------
    # View preparation
    # ------------------------------------------------------------------
    def prepare_batch(
        self,
        graph: Graph,
        targets: Sequence[int],
        target_seeds: np.ndarray,
        augment: bool = True,
    ) -> Tuple[BatchedGraphViews, BatchedHypergraphViews]:
        """Sample enclosing subgraphs and build both views for ``targets``.

        The whole batch runs through the vectorized pipeline — no
        per-target Python loop on the sampling path.  ``target_seeds``
        (``(B,)`` ``uint64``) drive both the subgraph sampling *and* the
        counter-based Γ1/Γ2 view augmentation, so with ``augment=True``
        the views are a pure function of ``(graph, target, seed)`` —
        identical on any batch layout or shard.
        """
        cfg = self.config
        targets = np.asarray(targets, dtype=np.int64).reshape(-1)
        batch = sample_enclosing_subgraphs(
            graph, targets, k=cfg.hop_size, size=cfg.subgraph_size,
            target_seeds=target_seeds,
        )
        # Separate stage span so view construction/augmentation is
        # attributable apart from the sampling span above.
        with obs_trace.span("views.build_batched") as sp:
            sp.set(batch=len(targets), augment=bool(augment))
            return build_batched_views(
                batch, target_seeds,
                feature_mask_prob=cfg.feature_mask_prob,
                incidence_drop_prob=cfg.incidence_drop_prob,
                augment=augment,
            )

    # ------------------------------------------------------------------
    # Forward passes per mode
    # ------------------------------------------------------------------
    def forward_batch(
        self,
        gviews: BatchedGraphViews,
        hviews: BatchedHypergraphViews,
        mask_seed: Optional[int] = None,
    ) -> BatchScores:
        """Compute node / edge anomaly scores for one prepared batch.

        Gradients flow through the online network only (Algorithm 1);
        the target network is evaluated under ``no_grad``.  The mode
        picks the operators: ``unified`` reads the graph view on the
        online branch and the hypergraph view on the target branch,
        ``node_only`` the graph view on both, ``edge_only`` the
        hypergraph view on both.

        ``mask_seed`` keys the ``node_only`` target-branch feature mask
        (required in that mode, ignored in the others): one seed for
        every view (a training batch) or one per view (the scoring loop
        feeds each view its round's seed).  The mask is counter-based,
        so the scores never depend on batch layout.
        """
        mode = self.config.mode
        if mode == "unified":
            return self._forward_unified(gviews, hviews)
        if mode == "node_only":
            return self._forward_node_only(gviews, mask_seed)
        return self._forward_edge_only(hviews)

    def _target_forward(self, operator, features) -> np.ndarray:
        """Target-branch embeddings under stop-gradient (plain array)."""
        with no_grad():
            return self.target(operator, features).data

    def _forward_unified(self, gviews: BatchedGraphViews,
                         hviews: BatchedHypergraphViews) -> BatchScores:
        cfg = self.config
        h_t, h_p, h_s = _graph_readout(                       # (B, D') each
            self.online(gviews.operator, Tensor(gviews.features)), gviews)

        z_data = self._target_forward(hviews.operator, Tensor(hviews.features))
        z_t = Tensor(z_data[hviews.zt_rows])
        z_p_np = hviews.patch_pool @ z_data
        z_s_np = hviews.context_pool @ z_data
        # Degenerate targets without target edges fall back to the
        # subgraph-level context for the patch term.
        empty_patch = hviews.target_counts == 0
        z_p_np = np.where(empty_patch[:, None], z_s_np, z_p_np)

        node_scores = discriminate(h_t, Tensor(z_p_np), Tensor(z_s_np),
                                   cfg.alpha, cfg.beta)

        if len(hviews.zt_rows):
            edge_scores = discriminate(
                z_t,
                h_p[hviews.edge_owner],
                h_s[hviews.edge_owner],
                cfg.alpha, cfg.beta,
            )
        else:
            edge_scores = None

        return BatchScores(
            node_scores=node_scores,
            edge_scores=edge_scores,
            edge_owner=hviews.edge_owner,
            edge_orig_ids=hviews.edge_orig_ids,
        )

    def _forward_node_only(self, gviews: BatchedGraphViews,
                           mask_seed: Optional[int]) -> BatchScores:
        """w/o HGNN ablation: both branches read the graph view."""
        cfg = self.config
        h_t, _, _ = _graph_readout(
            self.online(gviews.operator, Tensor(gviews.features)), gviews)

        features = gviews.features
        dim = features.shape[1]
        keep = seeded_forward_mask_draws(dim, cfg.feature_mask_prob, mask_seed)
        if keep is not None:  # one keep-vector per view, or one for all
            batch, size = gviews.operator.shape[:2]
            features = (features.reshape(batch, size, dim)
                        * keep[:, None, :]).reshape(features.shape)
        with no_grad():
            _, h_p_ctx, h_s_ctx = _graph_readout(
                self.target(gviews.operator, Tensor(features)), gviews)

        node_scores = discriminate(h_t, h_p_ctx, h_s_ctx, cfg.alpha, cfg.beta)
        return BatchScores(
            node_scores=node_scores,
            edge_scores=None,
            edge_owner=np.zeros(0, dtype=np.int64),
            edge_orig_ids=np.zeros(0, dtype=np.int64),
        )

    def _forward_edge_only(self, hviews: BatchedHypergraphViews) -> BatchScores:
        """w/o GNN ablation: both branches read the hypergraph view."""
        cfg = self.config
        if len(hviews.zt_rows) == 0:
            return BatchScores(None, None, hviews.edge_owner,
                               hviews.edge_orig_ids)
        z_online = self.online(hviews.operator, Tensor(hviews.features))
        z_t = z_online[hviews.zt_rows]

        z_data = self._target_forward(hviews.operator, Tensor(hviews.features))
        patch_ctx = Tensor(z_data[hviews.edge_patch_rows])
        subgraph_ctx_all = hviews.context_pool @ z_data
        subgraph_ctx = Tensor(subgraph_ctx_all[hviews.edge_owner])

        edge_scores = discriminate(z_t, patch_ctx, subgraph_ctx,
                                   cfg.alpha, cfg.beta)
        return BatchScores(
            node_scores=None,
            edge_scores=edge_scores,
            edge_owner=hviews.edge_owner,
            edge_orig_ids=hviews.edge_orig_ids,
        )

    # ------------------------------------------------------------------
    # Loss (Eq. 15, 19, 20)
    # ------------------------------------------------------------------
    def chunk_loss(self, scores: BatchScores,
                   node_scale: Optional[float],
                   edge_scale: Optional[float]) -> Optional[Tensor]:
        """Loss contribution of one gradient-accumulation chunk.

        The objective is ``L = ½(L_node + L_edge)``; ``L_edge`` averages
        per-target means so high-degree targets do not dominate
        (Eq. 19), and ablation modes keep only the defined term.  The
        trainer splits each minibatch into fixed chunks and sums their
        losses/gradients in chunk order, so the batch-level
        normalizations come from
        :func:`repro.core.trainer.batch_loss_scales`: ``node_scale``
        multiplies the chunk's node-score sum (``weight / B``) and
        ``edge_scale`` the sum of per-target edge means (``weight / U``
        with ``U`` the number of batch targets owning target edges —
        edge ownership never crosses chunks, so the per-owner counts
        are chunk-local).  One chunk holding the whole batch gives the
        batch objective.

        ``None`` disables a term; returns ``None`` when the chunk
        contributes neither (all targets degenerate in edge-only mode).
        """
        terms: List[Tensor] = []
        if node_scale is not None and scores.node_scores is not None:
            terms.append(scores.node_scores.sum() * node_scale)
        if (edge_scale is not None and scores.edge_scores is not None
                and len(scores.edge_owner)):
            owners = scores.edge_owner
            unique_owners, counts = np.unique(owners, return_counts=True)
            count_per_edge = counts[np.searchsorted(unique_owners, owners)]
            weights = edge_scale / count_per_edge
            terms.append((scores.edge_scores * Tensor(weights)).sum())
        if not terms:
            return None
        if len(terms) == 1:
            return terms[0]
        return terms[0] + terms[1]

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------
    def trainable_parameters(self) -> list:
        """Parameters the optimizer updates: the online network."""
        return self.online.parameters()

    def update_target(self) -> None:
        """EMA step φ ← τφ + (1−τ)θ (Eq. 22)."""
        self.ema.update()
