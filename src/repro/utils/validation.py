"""Input-validation helpers with informative error messages."""

from __future__ import annotations

import numpy as np


def check_probability(value: float, name: str) -> float:
    """Validate a probability in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_int(value, name: str) -> int:
    """``value`` as an integer, or ``ValueError`` naming ``name``.

    A JSON bool, float or string is rejected: ``int()`` would silently
    turn ``2.7`` into 2 and ``true`` into 1.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_number(value, name: str):
    """``value`` as a number, or ``ValueError`` naming ``name``.

    An int or float but not a bool (JSON ``true`` is not 1).  Callers
    check their own bounds, written ``not value >= bound`` so NaN fails.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def check_positive(value, name: str):
    """Validate a strictly positive number."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_edge_array(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Validate an ``(M, 2)`` integer edge array against a node count."""
    edges = np.asarray(edges)
    if edges.size == 0:
        return edges.reshape(0, 2).astype(np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must have shape (M, 2), got {edges.shape}")
    edges = edges.astype(np.int64)
    if edges.min() < 0 or edges.max() >= num_nodes:
        raise ValueError("edge endpoints out of range")
    if np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError("self-loops are not allowed in the edge list")
    return edges
