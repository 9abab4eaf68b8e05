"""Uniform evaluation pipeline shared by every experiment.

Responsibilities:

* prepare a benchmark graph (generation + injection + the L2 feature
  normalization applied identically to every method);
* construct per-dataset BOURNE configs (paper Section V-C);
* run BOURNE / node baselines / edge baselines under one budget profile.

Budget profiles decouple *what* an experiment computes from *how much*
CPU it spends: ``quick`` for tests, ``default`` for the paper claims
(``scripts/run_experiment.py``), ``full`` approaching the paper's settings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from ..baselines import EDGE_BASELINES, NODE_BASELINES
from ..core import BourneConfig, score_graph, train_bourne
from ..datasets import load_benchmark
from ..graph.graph import Graph


@dataclass(frozen=True)
class EvalProfile:
    """One CPU-budget level for the whole evaluation pipeline."""

    name: str
    scale: float
    bourne_epochs: int
    eval_rounds: int
    deep_epochs: int
    contrastive_epochs: int
    contrastive_rounds: int
    shallow_iterations: int
    hidden: int
    batch_size: int
    seed: int = 0

    def scaled_down(self, factor: float) -> "EvalProfile":
        """A cheaper copy for sweep experiments (many runs).

        Only the training budget shrinks.  The dataset scale is kept:
        shrinking the graph below ~400 nodes pushes the injected anomaly
        rate past 20% (the clique size is fixed at 15 by the protocol),
        and "anomaly" detection degenerates once anomalies stop being
        rare.
        """
        return replace(
            self,
            bourne_epochs=max(4, int(self.bourne_epochs * factor)),
        )


QUICK = EvalProfile("quick", scale=0.08, bourne_epochs=6, eval_rounds=3,
                    deep_epochs=10, contrastive_epochs=3, contrastive_rounds=2,
                    shallow_iterations=4, hidden=32, batch_size=256)
DEFAULT = EvalProfile("default", scale=0.15, bourne_epochs=40, eval_rounds=8,
                      deep_epochs=30, contrastive_epochs=8, contrastive_rounds=4,
                      shallow_iterations=8, hidden=64, batch_size=256)
FULL = EvalProfile("full", scale=0.5, bourne_epochs=60, eval_rounds=16,
                   deep_epochs=80, contrastive_epochs=20, contrastive_rounds=8,
                   shallow_iterations=10, hidden=128, batch_size=256)

PROFILES = {"quick": QUICK, "default": DEFAULT, "full": FULL}


def get_profile(name: Optional[str] = None) -> EvalProfile:
    """Resolve a profile by name (or $REPRO_PROFILE, default ``default``)."""
    import os
    if name is None:
        name = os.environ.get("REPRO_PROFILE", "default")
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")


def normalize_graph(graph: Graph) -> Graph:
    """L2-normalize feature rows (identical preprocessing for all methods)."""
    features = graph.features
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return Graph(features / norms, graph.edges, graph.node_labels,
                 graph.edge_labels, name=graph.name)


def prepare_graph(dataset: str, profile: EvalProfile,
                  seed: Optional[int] = None) -> Graph:
    """Benchmark graph with anomalies injected and features normalized."""
    graph = load_benchmark(dataset, seed=profile.seed if seed is None else seed,
                           scale=profile.scale)
    return normalize_graph(graph)


#: Per-dataset α/β and subgraph sizes (Section V-C / Figure 7 optima).
_DATASET_SETTINGS = {
    "cora": dict(subgraph_size=12, alpha=0.6, beta=0.4),
    "pubmed": dict(subgraph_size=12, alpha=0.6, beta=0.4),
    "acm": dict(subgraph_size=12, alpha=0.6, beta=0.4),
    "blogcatalog": dict(subgraph_size=40, alpha=0.2, beta=0.8),
    "flickr": dict(subgraph_size=40, alpha=0.2, beta=0.8),
    # DGraph: epochs are subsampled (targets_per_epoch) — at millions of
    # paper-scale nodes one pass per epoch is neither needed nor feasible.
    "dgraph": dict(subgraph_size=12, alpha=0.6, beta=0.4, targets_per_epoch=1500),
}


def bourne_config(dataset: str, profile: EvalProfile, **overrides) -> BourneConfig:
    """BOURNE config for ``dataset`` under ``profile``."""
    settings = dict(_DATASET_SETTINGS.get(dataset, _DATASET_SETTINGS["cora"]))
    # Large K is disproportionately expensive on dense scaled social
    # nets (the dual hypergraph grows with the induced edge count), so
    # the cheaper profiles cap it; `full` keeps the paper's K.
    if profile.name == "quick":
        settings["subgraph_size"] = min(settings["subgraph_size"], 8)
    elif profile.name == "default":
        settings["subgraph_size"] = min(settings["subgraph_size"], 16)
    config = BourneConfig(
        hidden_dim=profile.hidden,
        predictor_hidden=2 * profile.hidden,
        epochs=profile.bourne_epochs,
        batch_size=profile.batch_size,
        eval_rounds=profile.eval_rounds,
        seed=profile.seed,
        **settings,
    )
    return config.updated(**overrides) if overrides else config


def run_bourne(graph: Graph, config: BourneConfig,
               rounds: Optional[int] = None) -> Dict:
    """Train + score BOURNE; returns the model, its loss history and
    the node and edge scores."""
    model, history = train_bourne(graph, config)
    scores = score_graph(model, graph, rounds=rounds)
    return {
        "model": model,
        "history": history,
        "node_scores": scores.node_scores,
        "edge_scores": scores.edge_scores,
    }


def _baseline_kwargs(name: str, profile: EvalProfile) -> Dict:
    if name in ("Radar", "ANOMALOUS"):
        return dict(iterations=profile.shallow_iterations)
    if name in ("CoLA", "SL-GAD"):
        return dict(hidden=profile.hidden, epochs=profile.contrastive_epochs,
                    eval_rounds=profile.contrastive_rounds,
                    batch_size=profile.batch_size)
    if name == "DGI":
        return dict(hidden=profile.hidden, epochs=profile.deep_epochs,
                    eval_rounds=profile.contrastive_rounds)
    if name == "UGED":
        # UGED overfits injected structure quickly; short schedule.
        return dict(hidden=profile.hidden, epochs=max(5, profile.deep_epochs // 3))
    if name == "GAE":
        return dict(hidden=profile.hidden, epochs=profile.deep_epochs * 2)
    return dict(hidden=profile.hidden, epochs=profile.deep_epochs)


def run_node_baseline(name: str, graph: Graph, profile: EvalProfile) -> Dict:
    """Fit one Table III baseline and score nodes."""
    detector_cls = NODE_BASELINES[name]
    kwargs = _baseline_kwargs(name, profile)
    detector = detector_cls(seed=profile.seed, **kwargs).fit(graph)
    return {"node_scores": detector.score_nodes(graph)}


def run_edge_baseline(name: str, graph: Graph, profile: EvalProfile) -> Dict:
    """Fit one Table IV baseline and score edges."""
    detector_cls = EDGE_BASELINES[name]
    kwargs = _baseline_kwargs(name, profile)
    detector = detector_cls(seed=profile.seed, **kwargs).fit(graph)
    return {"edge_scores": detector.score_edges(graph)}
