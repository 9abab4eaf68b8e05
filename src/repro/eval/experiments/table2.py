"""Experiment E-T2 — Table II: dataset statistics after anomaly injection."""

from __future__ import annotations

from typing import Optional, Sequence

from ...datasets import PAPER_ANOMALY_COUNTS, PAPER_SPECS, dataset_statistics, load_benchmark
from ..runner import EvalProfile, get_profile
from .common import ExperimentResult

DATASETS = ["cora", "pubmed", "acm", "blogcatalog", "flickr", "dgraph"]


def run(profile: Optional[EvalProfile] = None,
        datasets: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Generate every dataset at the profile scale and tabulate Table II."""
    profile = profile or get_profile()
    datasets = list(datasets) if datasets is not None else DATASETS
    rows = []
    for name in datasets:
        graph = load_benchmark(name, seed=profile.seed, scale=profile.scale)
        stats = dataset_statistics(graph)
        spec = PAPER_SPECS[name]
        paper = PAPER_ANOMALY_COUNTS[name]
        rows.append([
            name,
            stats["nodes"], spec.num_nodes,
            stats["edges"], spec.num_edges,
            stats["attributes"], spec.num_attributes,
            stats["node_anomalies"], paper["nodes"],
            stats["edge_anomalies"], paper["edges"],
        ])
    return ExperimentResult(
        experiment="table2_datasets",
        headers=["dataset", "nodes", "paper_nodes", "edges", "paper_edges",
                 "attrs", "paper_attrs", "NA", "paper_NA", "EA", "paper_EA"],
        rows=rows,
        notes=(f"profile={profile.name} scale={profile.scale}; paper columns "
               "are Table II values at full size. DGraph is a synthetic "
               "financial stand-in with planted fraud labels."),
        claims=[(f"{row[0]}: {row[1]} nodes, {row[3]} edges, {row[7]} node "
                 f"and {row[9]} edge anomalies, all > 0",
                 min(row[1], row[3], row[7], row[9]) > 0) for row in rows],
    )


if __name__ == "__main__":
    print(run().render(precision=0))
