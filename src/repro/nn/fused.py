"""Fused float32 inference kernels behind the tensor-backend seam.

The reference forward (``Bourne.forward_batch``) runs on the float64
autograd stack: every conv layer allocates fresh ``Tensor``
temporaries, and the discriminator normalizes through five more node
allocations.  None of that is needed at inference time.  This module
compiles a model's weights into a float32 snapshot once and then runs
the whole conv→activation→readout pipeline over the dense
``(B, S, S)`` graph-view stack both backends read
(``S = subgraph_size + 2`` rows per target view).  Each conv step is
two batched ``np.matmul`` calls plus an in-place PReLU (:func:`_prelu`).
The ``unified`` target branch reads the ragged hypergraph views from
their flat incidence arrays, padded into a ``(B, M, C)`` stack (M rows
and C columns of the batch's largest view), and never builds the sparse
operator the reference reads.  Every intermediate is allocated per
call; the process's heap policy (:mod:`repro.utils.heap`) keeps freed
blocks for the next forward to reuse.

Accuracy contract: scores stay within ``1e-5`` relative tolerance of
the float64 reference (``tests/test_backend.py`` sweeps it across batch
sizes, shard counts, and modes).  Two cases fall back to the reference
forward, so the fast backend is always *safe* to select: ``edge_only``
mode, and an empty batch.  Every conv of every BOURNE encoder is
``PReLU(operator @ (x @ W))`` with no bias, at any depth.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

import numpy as np

from ..core.model import BatchScores, Bourne
from ..core.views import (
    BatchedGraphViews,
    BatchedHypergraphViews,
    seeded_forward_mask_draws,
)
from ..tensor.autograd import Tensor
from ..tensor.backend import TensorBackend
from .linear import Linear

#: Matches ``repro.tensor.functional.EPS`` — the discriminator's
#: normalization epsilon; the fused cosine must use the same guard.
_EPS = 1e-12


def _prelu(x, alpha, scratch):
    """In-place PReLU through ``scratch`` in two passes: ``max(x, αx)``
    for ``α <= 1``, ``min(x, αx)`` otherwise, which is bitwise
    ``max(x, 0) + α·min(x, 0)``."""
    np.multiply(x, alpha, out=scratch)
    (np.maximum if alpha <= 1 else np.minimum)(x, scratch, out=x)


def _conv_stack_spec(convs) -> List[Tuple[np.ndarray, float]]:
    """Float32 ``(weight, prelu_alpha)`` snapshot of a conv stack."""
    return [
        (
            np.ascontiguousarray(conv.weight.data, dtype=np.float32),
            float(conv.act.alpha.data),
        )
        for conv in convs
    ]


def _mlp_spec(mlp) -> List[tuple]:
    """Float32 op list (``("linear", w, b)`` / ``("prelu", alpha)``)."""
    spec = []
    for layer in mlp._layers:
        if isinstance(layer, Linear):
            bias = None
            if layer.bias is not None:
                bias = np.ascontiguousarray(layer.bias.data, dtype=np.float32)
            spec.append(
                (
                    "linear",
                    np.ascontiguousarray(layer.weight.data, dtype=np.float32),
                    bias,
                )
            )
        else:  # PReLU
            spec.append(("prelu", float(layer.alpha.data), None))
    return spec


class CompiledModel:
    """Float32 weight snapshot of one :class:`Bourne` for fused inference.

    ``supported`` is ``False`` in ``edge_only`` mode, the one mode
    outside the fused contract; the snapshot then never runs.
    ``sources`` keeps the exact parameter arrays the snapshot was taken
    from — Adam and the EMA both *rebind* ``param.data`` rather than
    writing in place, so an identity sweep over the live parameters
    detects staleness exactly.
    """

    def __init__(self, model: Bourne):
        cfg = model.config
        self.mode = cfg.mode
        self.alpha = float(cfg.alpha)
        self.beta = float(cfg.beta)
        self.feature_mask_prob = float(cfg.feature_mask_prob)
        self.supported = self.mode != "edge_only"
        self.online_stack = _conv_stack_spec(model.online.convs)
        self.online_mlp = _mlp_spec(model.online.predictor)
        self.target_stack = _conv_stack_spec(model.target.convs)
        self.sources = [
            param.data
            for param in model.online.parameters() + model.target.parameters()
        ]

    def stale(self, model: Bourne) -> bool:
        params = model.online.parameters() + model.target.parameters()
        if len(params) != len(self.sources):
            return True
        return any(
            param.data is not source for param, source in zip(params, self.sources)
        )


def _cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity with the reference's norm epsilon."""
    norm_a = np.sqrt(np.einsum("ij,ij->i", a, a)) + _EPS
    norm_b = np.sqrt(np.einsum("ij,ij->i", b, b)) + _EPS
    return np.einsum("ij,ij->i", a, b) / (norm_a * norm_b)


class FusedInferenceKernel:
    """Per-model fused forward over a compiled float32 weight snapshot."""

    def __init__(self):
        self.compiled: Optional[CompiledModel] = None
        self.recompiles = 0
        self.fallbacks = 0
        self.forwards = 0

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def refresh(self, model: Bourne) -> CompiledModel:
        if self.compiled is None or self.compiled.stale(model):
            self.compiled = CompiledModel(model)
            self.recompiles += 1
        return self.compiled

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(
        self,
        model: Bourne,
        gviews: BatchedGraphViews,
        hviews: BatchedHypergraphViews,
        mask_seed=None,
    ) -> Optional[BatchScores]:
        """Fused scores for one batch, or ``None`` to request fallback."""
        compiled = self.refresh(model)
        if not compiled.supported or gviews.batch_size == 0:
            self.fallbacks += 1
            return None
        self.forwards += 1
        if compiled.mode == "unified":
            return self._forward_unified(compiled, gviews, hviews)
        return self._forward_node_only(compiled, gviews, mask_seed)

    def _graph_stack(self, spec, ops32: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Run conv layers over the dense operator stack."""
        current = feats
        for weight, alpha in spec:
            support = current @ weight
            current = ops32 @ support
            _prelu(current, np.float32(alpha), support)
        return current

    def _predictor(self, spec, flat: np.ndarray) -> np.ndarray:
        current = flat
        for kind, value, bias in spec:
            if kind == "linear":
                current = current @ value
                if bias is not None:
                    np.add(current, bias, out=current)
            else:  # prelu
                _prelu(current, np.float32(value), np.empty_like(current))
        return current

    def _online_graph_branch(self, compiled, gviews, feats3):
        """Conv stack + predictor over the view stack; returns the
        float32 operator stack and the ``(h_t, h_p, h_s)`` readouts."""
        batch, size, _ = feats3.shape
        ops32 = gviews.operator.astype(np.float32)
        hidden = self._graph_stack(compiled.online_stack, ops32, feats3)
        flat = hidden.reshape(batch * size, hidden.shape[2])
        flat = self._predictor(compiled.online_mlp, flat)
        h3 = flat.reshape(batch, size, flat.shape[1])
        return ops32, h3[:, size - 1], h3[:, 0], h3[:, : size - 1].mean(axis=1)

    def _features3(self, gviews: BatchedGraphViews) -> np.ndarray:
        batch, size = gviews.operator.shape[:2]
        dim = gviews.features.shape[1]
        return gviews.features.reshape(batch, size, dim).astype(np.float32)

    def _hypergraph_branch(self, compiled, hviews):
        """Target-branch HGNN stack over the ragged hypergraph views,
        padded to ``(B, M, C)``; returns ``(z_t, z_p, z_s)``.

        Each view's incidence is scattered into one zero-padded block
        twice: ``scaled = D_v^{-1/2} H`` and ``weighted = scaled D_e^{-1}``,
        so a layer propagates by two batched matmuls,
        ``weighted @ (scaledᵀ @ (x @ W))`` — the reference operator
        ``(Ŝ·D_e^{-1}) Ŝᵀ`` without forming it.  Padded rows and columns
        hold zeros and stay zero through every layer.
        """
        offsets = hviews.row_offsets
        batch = len(offsets) - 1
        view_rows = offsets[1:] - offsets[:-1]
        rows = int(view_rows.max())
        cols = int((hviews.col_offsets[1:] - hviews.col_offsets[:-1]).max())
        # Padded position of each flat row: view b's rows start at b·M.
        padded = np.arange(offsets[-1]) + np.repeat(
            np.arange(0, batch * rows, rows) - offsets[:-1], view_rows)
        entries = padded[hviews.inc_rows] * cols + (
            hviews.inc_cols - hviews.col_offsets[hviews.inc_view])
        row_values = hviews.row_scale[hviews.inc_rows]
        scaled = np.zeros((batch, rows, cols), dtype=np.float32)
        scaled.reshape(-1)[entries] = row_values
        weighted = np.zeros((batch, rows, cols), dtype=np.float32)
        weighted.reshape(-1)[entries] = (
            row_values * hviews.col_scale[hviews.inc_cols])
        scaled_t = scaled.transpose(0, 2, 1)

        # x @ W on the flat rows; only the H-wide product is padded.
        flat = np.asarray(hviews.features, dtype=np.float32)
        z = None
        for weight, alpha in compiled.target_stack:
            if z is None:
                support = np.zeros((batch * rows, weight.shape[1]),
                                   dtype=np.float32)
                support[padded] = flat @ weight
                support = support.reshape(batch, rows, -1)
            else:
                support = np.matmul(z, weight)
            z = np.matmul(weighted, np.matmul(scaled_t, support))
            _prelu(z, np.float32(alpha), support)

        z_t = z.reshape(batch * rows, -1)[padded[hviews.zt_rows]]
        # Mean readouts by position: z_p over rows 0..Mtar-1, z_s over
        # rows 0..Ms-1; a view without target edges pools its patch term
        # over the context rows, as the reference falls back to z_s.
        counts = np.empty((batch, 2, 1), dtype=np.int64)
        counts[:, 1, 0] = hviews.context_counts
        counts[:, 0, 0] = np.where(hviews.target_counts > 0,
                                   hviews.target_counts, hviews.context_counts)
        weights = (np.arange(rows) < counts) / np.maximum(counts, 1)
        pooled = np.matmul(weights.astype(np.float32), z)
        return z_t, pooled[:, 0], pooled[:, 1]

    def _forward_unified(self, compiled, gviews, hviews) -> BatchScores:
        feats3 = self._features3(gviews)
        _, h_t, h_p, h_s = self._online_graph_branch(compiled, gviews, feats3)
        z_t, z_p, z_s = self._hypergraph_branch(compiled, hviews)

        total = compiled.alpha + compiled.beta
        node_scores = (
            total
            - compiled.alpha * _cosine_rows(h_t, z_p)
            - compiled.beta * _cosine_rows(h_t, z_s)
        )
        if len(hviews.zt_rows):
            owner = hviews.edge_owner
            edge_scores = Tensor(
                total
                - compiled.alpha * _cosine_rows(z_t, h_p[owner])
                - compiled.beta * _cosine_rows(z_t, h_s[owner])
            )
        else:
            edge_scores = None
        return BatchScores(
            node_scores=Tensor(node_scores),
            edge_scores=edge_scores,
            edge_owner=hviews.edge_owner,
            edge_orig_ids=hviews.edge_orig_ids,
        )

    def _forward_node_only(self, compiled, gviews, mask_seed) -> BatchScores:
        feats3 = self._features3(gviews)
        _, size, dim = feats3.shape
        ops32, h_t, _, _ = self._online_graph_branch(compiled, gviews, feats3)

        # Γ1 forward mask — exactly the draws the reference consumes:
        # one keep-vector per view seed, or one for the whole batch.
        keep = seeded_forward_mask_draws(dim, compiled.feature_mask_prob, mask_seed)
        if keep is None:
            masked = feats3
        else:
            masked = feats3 * keep[:, None, :]

        z3 = self._graph_stack(compiled.target_stack, ops32, masked)
        patch_ctx = z3[:, 0]
        subgraph_ctx = z3[:, : size - 1].mean(axis=1)

        node_scores = (
            (compiled.alpha + compiled.beta)
            - compiled.alpha * _cosine_rows(h_t, patch_ctx)
            - compiled.beta * _cosine_rows(h_t, subgraph_ctx)
        )
        return BatchScores(
            node_scores=Tensor(node_scores),
            edge_scores=None,
            edge_owner=np.zeros(0, dtype=np.int64),
            edge_orig_ids=np.zeros(0, dtype=np.int64),
        )


class FusedBackend(TensorBackend):
    """Inference backend running the fused float32 kernels.

    Kernels (compiled weights) are cached per model in a weak
    dictionary, so hot-swapping models never leaks a snapshot and an
    optimizer/EMA step transparently triggers recompilation.
    """

    name = "fused"

    def __init__(self):
        self._kernels = weakref.WeakKeyDictionary()

    def kernel_for(self, model: Bourne) -> FusedInferenceKernel:
        kernel = self._kernels.get(model)
        if kernel is None:
            kernel = FusedInferenceKernel()
            self._kernels[model] = kernel
        return kernel

    def forward_batch(self, model, gviews, hviews, mask_seed=None):
        kernel = self.kernel_for(model)
        scores = kernel.forward(model, gviews, hviews, mask_seed=mask_seed)
        if scores is None:
            return model.forward_batch(gviews, hviews, mask_seed=mask_seed)
        return scores
