"""Graph convolution layer shared by BOURNE's GCN and HGNN branches.

The propagation operator is precomputed by the caller and passed per
forward call, so the same layer weights serve any (sub)graph.  This
matches BOURNE's batched use where every target node brings its own
enclosing subgraph: a batch of graph views is one dense ``(B, S, S)``
stack, a batch of ragged hypergraph views (or a whole graph) one sparse
operator.

Eq. 4 (GCN) and Eq. 10 (HGNN) are the same layer,
``H' = σ(P H Θ)``; they differ only in the operator ``P``: the
symmetric normalized adjacency ``D̃^{-1/2} Ã D̃^{-1/2}`` of a graph view,
or ``D_v^{-1/2} M W_e D_e^{-1} Mᵀ D_v^{-1/2}`` (identity ``W_e``) of a
dual-hypergraph view.  One ``(in, out)`` filter plus one PReLU slope per
layer on both branches is what makes BOURNE's exponential-moving-average
update ``φ ← τφ + (1−τ)θ`` well defined across the two encoders.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor.autograd import Tensor
from ..tensor.sparse import spmm
from . import init
from .activations import PReLU
from .module import Module, Parameter


class GCNConv(Module):
    """One propagation layer: ``H' = σ(P H Θ)`` (Eq. 4 and Eq. 10).

    The normalization is baked into the ``operator`` argument.
    Activation (PReLU per the paper) is applied unless ``activation`` is
    ``None``.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator,
                 activation: Optional[str] = "prelu"):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        if activation == "prelu":
            self.act = PReLU()
        elif activation is None:
            self.act = None
        else:
            raise ValueError(f"unsupported activation {activation!r}")

    def forward(self, operator, x: Tensor) -> Tensor:
        """Apply the layer.

        Parameters
        ----------
        operator:
            Normalized propagation: a dense ``(B, S, S)`` stack of view
            operators over ``n = B·S`` rows, or one ``(n, n)`` matrix
            (scipy sparse or dense).
        x:
            Node features, shape ``(n, in_features)``.
        """
        support = x @ self.weight
        if operator.ndim == 3:  # one batched matmul over the view stack
            views = support.reshape(*operator.shape[:2], self.out_features)
            out = (Tensor(operator) @ views).reshape(-1, self.out_features)
        else:
            out = spmm(operator, support)
        if self.act is not None:
            out = self.act(out)
        return out
