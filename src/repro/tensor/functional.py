"""Functional operations composed on top of the autograd primitives.

These are the building blocks used by :mod:`repro.nn` layers, the
BOURNE discriminator and the baselines: the (parametric) leaky ReLUs,
row normalization, cosine similarity, and logistic loss.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, as_tensor

EPS = 1e-12


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with a fixed negative slope."""
    x = as_tensor(x)
    mask = (x.data > 0).astype(x.data.dtype)
    scale = Tensor(mask + negative_slope * (1.0 - mask))
    return x * scale


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """Parametric ReLU: ``x if x > 0 else alpha * x``.

    ``alpha`` is a learnable tensor (scalar or per-channel) and receives
    gradients, matching the PReLU activation the paper adopts for both
    encoders.
    """
    x, alpha = as_tensor(x), as_tensor(alpha)
    positive = x.relu()
    negative = alpha * ((-x).relu())
    return positive - negative


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Normalize rows (or the given axis) to unit L2 norm."""
    x = as_tensor(x)
    norm = (x * x).sum(axis=axis, keepdims=True).sqrt() + EPS
    return x / norm


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Cosine similarity between ``a`` and ``b`` along ``axis``.

    This is the similarity at the heart of BOURNE's discriminator
    (Eq. 14): ``cos(h, z) = h·z / (|h||z|)``.
    """
    a, b = as_tensor(a), as_tensor(b)
    return (l2_normalize(a, axis=axis) * l2_normalize(b, axis=axis)).sum(axis=axis)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable BCE on raw logits against constant targets.

    Uses ``max(x,0) - x*t + log(1 + exp(-|x|))``.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=logits.data.dtype)
    positive = logits.relu()
    product = logits * Tensor(targets)
    softplus = ((-(logits.abs())).exp() + 1.0).log()
    return (positive - product + softplus).mean()
