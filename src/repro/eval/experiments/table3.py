"""Experiment E-T3 — Table III: node anomaly detection (PRE / REC / AUC).

Reproduces the shape claims: BOURNE attains the best AUC on every
dataset, with the contrastive baselines (CoLA, SL-GAD) next and the
shallow methods (Radar, ANOMALOUS) weakest.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...baselines import NODE_BASELINES
from ...metrics import detection_summary
from ..paper_reference import TABLE3_NAD
from ..runner import EvalProfile, get_profile
from .common import ExperimentResult, bourne_lead_claims, run_detection

DATASETS = ["cora", "pubmed", "acm", "blogcatalog", "flickr"]
_PAPER_KEYS = {"cora": "Cora", "pubmed": "Pubmed", "acm": "ACM",
               "blogcatalog": "BlogCatalog", "flickr": "Flickr"}


def run(profile: Optional[EvalProfile] = None,
        datasets: Optional[Sequence[str]] = None,
        methods: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Evaluate BOURNE and the NAD baselines; emit measured vs paper AUC."""
    profile = profile or get_profile()
    datasets = list(datasets) if datasets is not None else DATASETS
    methods = list(methods) if methods is not None else list(NODE_BASELINES)

    rows = []
    for dataset in datasets:
        outcome = run_detection(dataset, profile, node_methods=methods,
                                edge_methods=[])
        graph = outcome["graph"]
        paper = TABLE3_NAD.get(_PAPER_KEYS.get(dataset, ""), {})
        for name in methods + ["BOURNE"]:
            result = outcome["methods"][name]
            summary = detection_summary(graph.node_labels, result["node_scores"])
            ref = paper.get(name)
            rows.append([
                dataset, name,
                summary["precision"], summary["recall"], summary["auc"],
                ref[2] if ref else float("nan"),
            ])
    return ExperimentResult(
        experiment="table3_nad",
        headers=["dataset", "method", "PRE", "REC", "AUC", "paper_AUC"],
        rows=rows,
        notes=(f"profile={profile.name}; PRE/REC at the best-F1 threshold "
               "(the paper states none). Shape claim: BOURNE has "
               "the highest AUC per dataset."),
        claims=bourne_lead_claims(rows, 4, floor=0.7),
    )


if __name__ == "__main__":
    print(run().render())
