"""Optimizers and target-network updaters."""

from .adam import Adam
from .ema import ExponentialMovingAverage

__all__ = ["Adam", "ExponentialMovingAverage"]
