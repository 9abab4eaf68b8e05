"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so every
experiment in the repository is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(shape, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialization (GCN/HGNN default)."""
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(shape)


def _fans(shape) -> tuple:
    shape = tuple(int(s) for s in np.atleast_1d(shape)) if np.isscalar(shape) else tuple(shape)
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    # Convention: weight matrices are stored (in_features, out_features).
    if len(shape) == 2:
        fan_in, fan_out = shape
    return fan_in, fan_out
