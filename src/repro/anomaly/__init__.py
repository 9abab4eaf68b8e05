"""Anomaly injection and the node/edge anomaly-correlation metric."""

from .correlation import anomaly_correlation, inject_with_correlation
from .injection import (
    inject_attributive,
    inject_benchmark_anomalies,
    inject_structural,
)

__all__ = [
    "inject_structural",
    "inject_attributive",
    "inject_benchmark_anomalies",
    "anomaly_correlation",
    "inject_with_correlation",
]
