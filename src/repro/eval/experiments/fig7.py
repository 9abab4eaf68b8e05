"""Experiment E-F7 — Figure 7: AUC surface over the balance factors α, β.

Grid-evaluates node-AUC for α, β ∈ {0.2, 0.4, 0.6, 0.8, 1.0} on Cora,
ACM and BlogCatalog.  Shape claims: citation networks peak at high α /
low β (patch-level dominates); social networks at low α / high β.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...metrics import roc_auc_score
from ..runner import EvalProfile, bourne_config, get_profile, prepare_graph, run_bourne
from .common import ExperimentResult

DATASETS = ["cora", "acm", "blogcatalog"]
GRID = [0.2, 0.4, 0.6, 0.8, 1.0]


def run(profile: Optional[EvalProfile] = None,
        datasets: Optional[Sequence[str]] = None,
        grid: Optional[Sequence[float]] = None) -> ExperimentResult:
    """Sweep the (α, β) grid; one training per grid point per dataset."""
    profile = profile or get_profile()
    # Each grid point retrains the model — use a reduced budget per point.
    sweep_profile = profile.scaled_down(0.6)
    datasets = list(datasets) if datasets is not None else DATASETS
    grid = list(grid) if grid is not None else GRID

    rows, claims = [], []
    series = {}
    for dataset in datasets:
        graph = prepare_graph(dataset, sweep_profile)
        surface = []
        for alpha in grid:
            for beta in grid:
                config = bourne_config(dataset, sweep_profile,
                                       alpha=alpha, beta=beta)
                result = run_bourne(graph, config)
                auc = roc_auc_score(graph.node_labels, result["node_scores"])
                rows.append([dataset, alpha, beta, auc])
                surface.append(auc)
        series[f"{dataset}/auc_surface_row_major"] = (
            [f"a={a},b={b}" for a in grid for b in grid], surface,
        )
        low, high = min(surface), max(surface)
        claims += [
            (f"{dataset}: all {len(surface)} grid AUCs lie in [0, 1]",
             len(surface) == len(grid) ** 2
             and all(0.0 <= auc <= 1.0 for auc in surface)),
            (f"{dataset}: the surface is not flat (AUC spread "
             f"{high - low:.3f} > 0.005)", high - low > 0.005),
            (f"{dataset}: best grid point AUC {high:.3f} > 0.65", high > 0.65),
        ]
    return ExperimentResult(
        experiment="fig7_alpha_beta",
        headers=["dataset", "alpha", "beta", "node_AUC"],
        rows=rows,
        series=series,
        notes="Shape claim: citation nets favour high α; social nets high β.",
        claims=claims,
    )


if __name__ == "__main__":
    print(run().render())
