"""Experiment E-F4 — Figure 4: ROC curves for edge anomaly detection.

DGraph runs BOURNE and GAE only, the two methods the paper reports
there.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...metrics import downsample_curve, roc_auc_score, roc_curve
from ..runner import EvalProfile, get_profile
from .common import ExperimentResult, bourne_lead_claims, run_detection

DATASETS = ["cora", "pubmed", "acm", "blogcatalog", "flickr", "dgraph"]
METHODS = ["AANE", "UGED", "GAE"]
#: The baselines the paper runs on DGraph, in place of ``methods``.
DGRAPH_METHODS = ["GAE"]


def run(profile: Optional[EvalProfile] = None,
        datasets: Optional[Sequence[str]] = None,
        methods: Optional[Sequence[str]] = None,
        curve_points: int = 25) -> ExperimentResult:
    """ROC series for every EAD method on every dataset."""
    profile = profile or get_profile()
    datasets = list(datasets) if datasets is not None else DATASETS
    methods = list(methods) if methods is not None else METHODS

    rows = []
    series = {}
    for dataset in datasets:
        baselines = DGRAPH_METHODS if dataset == "dgraph" else methods
        outcome = run_detection(dataset, profile, node_methods=[],
                                edge_methods=baselines)
        graph = outcome["graph"]
        for name in baselines + ["BOURNE"]:
            scores = outcome["methods"][name]["edge_scores"]
            fpr, tpr, _ = roc_curve(graph.edge_labels, scores)
            grid, tpr_grid = downsample_curve(fpr, tpr, points=curve_points)
            series[f"{dataset}/{name}"] = (grid.tolist(), tpr_grid.tolist())
            rows.append([dataset, name, roc_auc_score(graph.edge_labels, scores)])

    malformed = [name for name, (_, tpr) in series.items() if tpr[-1] != 1.0]
    return ExperimentResult(
        experiment="fig4_roc_ead",
        headers=["dataset", "method", "AUC"],
        rows=rows,
        series=series,
        notes="Each series is the (FPR, TPR) polyline of one panel curve.",
        claims=[(f"every ROC curve ends at TPR 1.0 (malformed: {malformed})",
                 not malformed)] + bourne_lead_claims(rows, 2),
    )


if __name__ == "__main__":
    print(run().render())
