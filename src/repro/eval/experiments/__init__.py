"""Per-table / per-figure experiment runners.

Each module exposes ``run(profile=None, ...) -> ExperimentResult`` and is
executable as a script, e.g.::

    python -m repro.eval.experiments.table3
    REPRO_PROFILE=quick python -m repro.eval.experiments.fig5
"""

from . import (
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig10,
    headline,
    table2,
    table3,
    table4,
    table5,
)
from .common import ExperimentResult, clear_detection_cache, run_detection

ALL_EXPERIMENTS = {
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig10": fig10,
    "headline": headline,
}

__all__ = [
    "ExperimentResult",
    "run_detection",
    "clear_detection_cache",
    "ALL_EXPERIMENTS",
] + list(ALL_EXPERIMENTS)
