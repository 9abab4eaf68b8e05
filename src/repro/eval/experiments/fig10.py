"""Experiment E-F10 — Figure 10: applicability vs anomaly correlation.

Sweeps the injected node/edge anomaly coupling C_ano from high to zero
(attributive-only injection, per Appendix C) and compares BOURNE against
the strongest single-task baselines: SL-GAD for NAD, UGED for EAD.

Shape claims: BOURNE's advantage shrinks as C_ano → 0 but it still
matches SL-GAD on nodes and clearly beats UGED on edges (explicit dual-
hypergraph edge embeddings vs implicit node-pair scoring).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...anomaly import anomaly_correlation, inject_with_correlation
from ...baselines import SLGAD, UGED
from ...datasets import load_dataset
from ...metrics import roc_auc_score
from ..runner import EvalProfile, bourne_config, get_profile, normalize_graph, run_bourne
from .common import ExperimentResult

CORRELATIONS = [1.0, 0.8, 0.6, 0.4, 0.2, 0.0]


def run(profile: Optional[EvalProfile] = None,
        dataset: str = "cora",
        correlations: Optional[Sequence[float]] = None) -> ExperimentResult:
    """C_ano sweep on ``dataset`` (default Cora, as in the paper)."""
    profile = profile or get_profile()
    sweep_profile = profile.scaled_down(0.7)
    correlations = list(correlations) if correlations is not None else CORRELATIONS

    clean = load_dataset(dataset, seed=sweep_profile.seed, scale=sweep_profile.scale)
    rng = np.random.default_rng(sweep_profile.seed + 31)
    num_nodes = max(20, clean.num_nodes // 12)
    # Enough anomalous edges that a fully-coupled injection can dominate
    # the anomalous nodes' neighbourhoods (drives C_ano toward 1).
    avg_degree = max(1, int(2 * clean.num_edges / clean.num_nodes))
    num_edges = num_nodes * max(2, 2 * avg_degree)

    rows = []
    series_node = ([], [])
    series_edge = ([], [])
    for target_c in correlations:
        graph = inject_with_correlation(clean, rng, target_c,
                                        num_node_anomalies=num_nodes,
                                        num_edge_anomalies=num_edges)
        achieved = anomaly_correlation(graph)
        graph = normalize_graph(graph)

        config = bourne_config(dataset, sweep_profile)
        bourne = run_bourne(graph, config)
        bourne_node = roc_auc_score(graph.node_labels, bourne["node_scores"])
        bourne_edge = roc_auc_score(graph.edge_labels, bourne["edge_scores"])

        slgad = SLGAD(hidden=sweep_profile.hidden,
                      epochs=sweep_profile.contrastive_epochs,
                      eval_rounds=sweep_profile.contrastive_rounds,
                      batch_size=sweep_profile.batch_size,
                      seed=sweep_profile.seed).fit(graph)
        slgad_auc = roc_auc_score(graph.node_labels, slgad.score_nodes(graph))

        uged = UGED(hidden=sweep_profile.hidden,
                    epochs=max(5, sweep_profile.deep_epochs // 3),
                    seed=sweep_profile.seed).fit(graph)
        uged_auc = roc_auc_score(graph.edge_labels, uged.score_edges(graph))

        rows.append([target_c, achieved, bourne_node, slgad_auc,
                     bourne_edge, uged_auc])
        series_node[0].append(achieved)
        series_node[1].append(bourne_node - slgad_auc)
        series_edge[0].append(achieved)
        series_edge[1].append(bourne_edge - uged_auc)

    achieved = [row[1] for row in rows]
    claims = [(f"achieved C_ano falls with the target "
               f"({', '.join(f'{c:.3f}' for c in achieved)})",
               all(b <= a + 1e-9 for a, b in zip(achieved, achieved[1:])))]
    for target_c, _, bourne_node, slgad_node, bourne_edge, _ in rows:
        claims += [(f"C={target_c}: BOURNE node AUC {bourne_node:.3f} > SL-GAD "
                    f"{slgad_node:.3f} - 0.1", bourne_node > slgad_node - 0.1),
                   (f"C={target_c}: BOURNE edge AUC {bourne_edge:.3f} > 0.55",
                    bourne_edge > 0.55)]
    return ExperimentResult(
        experiment="fig10_correlation",
        headers=["target_C", "achieved_C_ano", "BOURNE_node", "SL-GAD_node",
                 "BOURNE_edge", "UGED_edge"],
        rows=rows,
        series={
            "node_gap_vs_C_ano": series_node,
            "edge_gap_vs_C_ano": series_edge,
        },
        notes="Attributive-only injection; achieved C_ano is measured "
              "post-injection (Eq. 26).",
        claims=claims,
    )


if __name__ == "__main__":
    print(run().render())
