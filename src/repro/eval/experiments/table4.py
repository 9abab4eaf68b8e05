"""Experiment E-T4 — Table IV: edge anomaly detection (PRE / REC / AUC).

Shape claims: BOURNE attains the best edge AUC everywhere; GAE (inner-
product decoder) is the weakest baseline because it happily reconstructs
the injected clique edges.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...baselines import EDGE_BASELINES
from ...metrics import detection_summary
from ..paper_reference import TABLE4_EAD
from ..runner import EvalProfile, get_profile
from .common import ExperimentResult, bourne_lead_claims, run_detection

DATASETS = ["cora", "pubmed", "acm", "blogcatalog", "flickr"]
_PAPER_KEYS = {"cora": "Cora", "pubmed": "Pubmed", "acm": "ACM",
               "blogcatalog": "BlogCatalog", "flickr": "Flickr"}


def run(profile: Optional[EvalProfile] = None,
        datasets: Optional[Sequence[str]] = None,
        methods: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Evaluate BOURNE and the EAD baselines; emit measured vs paper AUC."""
    profile = profile or get_profile()
    datasets = list(datasets) if datasets is not None else DATASETS
    methods = list(methods) if methods is not None else list(EDGE_BASELINES)

    rows = []
    for dataset in datasets:
        outcome = run_detection(dataset, profile, node_methods=[],
                                edge_methods=methods)
        graph = outcome["graph"]
        paper = TABLE4_EAD.get(_PAPER_KEYS.get(dataset, ""), {})
        for name in methods + ["BOURNE"]:
            result = outcome["methods"][name]
            summary = detection_summary(graph.edge_labels, result["edge_scores"])
            ref = paper.get(name)
            rows.append([
                dataset, name,
                summary["precision"], summary["recall"], summary["auc"],
                ref[2] if ref else float("nan"),
            ])
    return ExperimentResult(
        experiment="table4_ead",
        headers=["dataset", "method", "PRE", "REC", "AUC", "paper_AUC"],
        rows=rows,
        notes=(f"profile={profile.name}; shape claim: BOURNE best AUC per "
               "dataset, GAE weakest."),
        claims=bourne_lead_claims(rows, 4, floor=0.65),
    )


if __name__ == "__main__":
    print(run().render())
