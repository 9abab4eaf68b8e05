"""Experiment E-F3 — Figure 3: ROC curves for node anomaly detection.

Emits one (FPR, TPR) series per method per dataset, downsampled to a
fixed grid, exactly the data behind the paper's plots.  DGraph runs
BOURNE and DOMINANT only (the paper notes the other baselines run out
of memory there).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...metrics import downsample_curve, roc_auc_score, roc_curve
from ..runner import EvalProfile, get_profile
from .common import ExperimentResult, bourne_lead_claims, run_detection

DATASETS = ["cora", "pubmed", "acm", "blogcatalog", "flickr", "dgraph"]
METHODS = ["Radar", "ANOMALOUS", "DOMINANT", "AnomalyDAE", "DGI", "CoLA", "SL-GAD"]
#: The baselines the paper runs on DGraph, in place of ``methods``.
DGRAPH_METHODS = ["DOMINANT"]


def run(profile: Optional[EvalProfile] = None,
        datasets: Optional[Sequence[str]] = None,
        methods: Optional[Sequence[str]] = None,
        curve_points: int = 25) -> ExperimentResult:
    """ROC series for every NAD method on every dataset."""
    profile = profile or get_profile()
    datasets = list(datasets) if datasets is not None else DATASETS
    methods = list(methods) if methods is not None else METHODS

    rows = []
    series = {}
    for dataset in datasets:
        baselines = DGRAPH_METHODS if dataset == "dgraph" else methods
        outcome = run_detection(dataset, profile, node_methods=baselines,
                                edge_methods=[])
        graph = outcome["graph"]
        for name in baselines + ["BOURNE"]:
            scores = outcome["methods"][name]["node_scores"]
            fpr, tpr, _ = roc_curve(graph.node_labels, scores)
            grid, tpr_grid = downsample_curve(fpr, tpr, points=curve_points)
            series[f"{dataset}/{name}"] = (grid.tolist(), tpr_grid.tolist())
            rows.append([dataset, name, roc_auc_score(graph.node_labels, scores)])

    malformed = [name for name, (fpr, tpr) in series.items()
                 if not (len(fpr) == len(tpr) and tpr[0] <= 0.2 and tpr[-1] == 1.0
                         and all(b >= a - 1e-9 for a, b in zip(tpr, tpr[1:])))]
    return ExperimentResult(
        experiment="fig3_roc_nad",
        headers=["dataset", "method", "AUC"],
        rows=rows,
        series=series,
        notes="Each series is the (FPR, TPR) polyline of one panel curve.",
        claims=[(f"every ROC curve rises from TPR <= 0.2 to 1.0 without "
                 f"falling (malformed: {malformed})", not malformed)]
        + bourne_lead_claims(rows, 2),
    )


if __name__ == "__main__":
    print(run().render())
