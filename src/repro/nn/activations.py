"""The PReLU activation module (the paper's choice for every encoder)."""

from __future__ import annotations

import numpy as np

from ..tensor import functional as F
from ..tensor.autograd import Tensor
from .module import Module, Parameter


class PReLU(Module):
    """Parametric ReLU with a single learnable slope (paper's choice)."""

    def __init__(self, init_alpha: float = 0.25):
        super().__init__()
        self.alpha = Parameter(np.array(init_alpha))

    def forward(self, x: Tensor) -> Tensor:
        return F.prelu(x, self.alpha)
