"""The two encoding networks of BOURNE (Section IV-B / IV-C).

* :class:`OnlineEncoder` — an L-layer conv stack followed by the
  2-layer MLP predictor ``p_θ`` (the **online** network θ).
* :class:`TargetEncoder` — an L-layer conv stack with no predictor (the
  **target** network φ, updated only by EMA).

Both stacks use the one :class:`~repro.nn.conv.GCNConv` layer class:
Eq. 4 (GCN) and Eq. 10 (HGNN) differ only in the propagation operator,
which :meth:`repro.core.model.Bourne.forward_batch` picks per branch
and per mode.  The two encoders therefore expose *encoder* parameters
with identical shapes in identical order (one ``(d_in, d_out)`` filter
plus one PReLU slope per layer), which is what makes the EMA update
``φ ← τφ + (1−τ)θ`` well defined.  The predictor belongs to the online
side only, as in BYOL/BGRL.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..nn.conv import GCNConv
from ..nn.linear import MLP
from ..nn.module import Module
from ..tensor.autograd import Tensor


class TargetEncoder(Module):
    """Conv stack ``conv0 … conv{L-1}``: the target network."""

    def __init__(
        self,
        in_features: int,
        hidden_dim: int,
        num_layers: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        dims = [in_features] + [hidden_dim] * num_layers
        self.convs: List[GCNConv] = []
        for index, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            conv = GCNConv(d_in, d_out, rng)
            setattr(self, f"conv{index}", conv)
            self.convs.append(conv)

    def forward(self, operator, features) -> Tensor:
        h = features if isinstance(features, Tensor) else Tensor(features)
        for conv in self.convs:
            h = conv(operator, h)
        return h

    def encoder_parameters(self) -> list:
        """Parameters the EMA mirrors (the predictor is excluded)."""
        params = []
        for conv in self.convs:
            params.append(conv.weight)
            params.append(conv.act.alpha)
        return params


class OnlineEncoder(TargetEncoder):
    """Conv stack plus MLP predictor: the online network."""

    def __init__(
        self,
        in_features: int,
        hidden_dim: int,
        predictor_hidden: int,
        num_layers: int,
        rng: np.random.Generator,
    ):
        super().__init__(in_features, hidden_dim, num_layers, rng)
        self.predictor = MLP(hidden_dim, [predictor_hidden], hidden_dim, rng)

    def forward(self, operator, features) -> Tensor:
        return self.predictor(super().forward(operator, features))
