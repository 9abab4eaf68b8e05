"""BOURNE reproduction: bootstrapped self-supervised unified graph anomaly detection.

This package is a full, from-scratch reproduction of

    Liu et al., "BOURNE: Bootstrapped Self-supervised Learning Framework
    for Unified Graph Anomaly Detection", ICDE 2024.

Top-level conveniences re-export the main public entry points; see the
subpackages for the complete API:

* :mod:`repro.core` — the BOURNE model, trainer, and scorer.
* :mod:`repro.baselines` — every baseline evaluated in the paper.
* :mod:`repro.datasets` — synthetic stand-ins for the six benchmarks.
* :mod:`repro.anomaly` — anomaly injection and the C_ano metric.
* :mod:`repro.eval` — per-table / per-figure experiment harnesses.
"""

__version__ = "1.0.0"

from .utils.heap import keep_freed_memory

# Before the subpackages load: every allocation of the process, and of
# the workers it forks, runs under the one heap policy.
keep_freed_memory()

from . import anomaly, baselines, core, datasets, eval, graph, metrics, nn, optim, tensor, utils  # noqa: E402

__all__ = [
    "anomaly",
    "baselines",
    "core",
    "datasets",
    "eval",
    "graph",
    "metrics",
    "nn",
    "optim",
    "tensor",
    "utils",
    "__version__",
]
