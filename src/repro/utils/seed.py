"""Deterministic RNG plumbing.

Every stochastic component in the repository draws from an explicit
``numpy.random.Generator``.  A single integer seed therefore pins the
whole pipeline: dataset synthesis, anomaly injection, weight init,
subgraph sampling, augmentations, and evaluation rounds.
"""

from __future__ import annotations

import numpy as np


def rng_from_seed(seed: int) -> np.random.Generator:
    """Create a generator from an integer seed."""
    return np.random.default_rng(seed)

