"""Shared utilities: seeding, logging, validation."""

from .logging import get_logger
from .seed import rng_from_seed
from .validation import check_edge_array, check_positive, check_probability

__all__ = [
    "rng_from_seed",
    "get_logger",
    "check_probability",
    "check_positive",
    "check_edge_array",
]
