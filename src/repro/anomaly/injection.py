"""Anomaly injection, following Section V-A of the paper exactly.

Two injectors:

* **Structural** (from DOMINANT [10]): pick ``n_p`` nodes, wire them into
  a fully connected clique, label the nodes and the newly created edges
  anomalous; repeat ``q`` times.
* **Attributive** (from CoLA [11]): for each of ``n_p × q`` chosen nodes
  ``v_i``, draw ``2k`` candidates split into ``V_n`` and ``V_e``; add
  anomalous edges from ``v_i`` to the ``s`` nodes of ``V_e`` with the
  largest attribute distance, then replace ``x_i`` with the most distant
  feature vector from ``V_n`` and label ``v_i`` anomalous.

Defaults: ``n_p = 15``, ``k = 50``, ``s = 2`` (paper values).
"""

from __future__ import annotations

import numpy as np

from ..graph.graph import Graph
from ..utils.validation import check_positive


def inject_structural(
    graph: Graph,
    rng: np.random.Generator,
    clique_size: int = 15,
    num_cliques: int = 5,
) -> Graph:
    """Inject ``num_cliques`` fully connected cliques of ``clique_size``.

    Selected nodes become structural node anomalies; every *newly added*
    edge between them becomes a structural edge anomaly.
    """
    check_positive(clique_size, "clique_size")
    if num_cliques == 0:
        return graph.copy()
    check_positive(num_cliques, "num_cliques")
    total = clique_size * num_cliques
    if total > graph.num_nodes:
        raise ValueError(
            f"cannot select {total} clique nodes from {graph.num_nodes}"
        )
    chosen = rng.choice(graph.num_nodes, size=total, replace=False)
    node_labels = graph.node_labels.copy()
    extra_edges = []
    for c in range(num_cliques):
        members = chosen[c * clique_size:(c + 1) * clique_size]
        node_labels[members] = 1
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                u, v = int(members[i]), int(members[j])
                if not graph.has_edge(u, v):
                    extra_edges.append((min(u, v), max(u, v)))
    return graph.with_updates(
        extra_edges=np.asarray(extra_edges, dtype=np.int64).reshape(-1, 2),
        node_labels=node_labels,
        edge_labels_for_new=1,
    )


def inject_attributive(
    graph: Graph,
    rng: np.random.Generator,
    num_nodes: int,
    k: int = 50,
    s: int = 2,
    perturb_features: bool = True,
    attach_to_targets: bool = True,
) -> Graph:
    """Inject attributive anomalies on ``num_nodes`` randomly chosen nodes.

    Parameters
    ----------
    perturb_features:
        If False, only anomalous edges are added (used by the C_ano
        sweep to decouple node and edge anomalies).
    attach_to_targets:
        If False, the anomalous edges are placed between random *normal*
        node pairs instead of touching the perturbed nodes (again for
        the C_ano sweep).
    """
    check_positive(k, "k")
    check_positive(s, "s")
    if num_nodes <= 0:
        return graph.copy()
    candidates_needed = 2 * k
    if candidates_needed >= graph.num_nodes:
        raise ValueError("graph too small for the requested candidate pool (2k)")
    chosen = rng.choice(graph.num_nodes, size=min(num_nodes, graph.num_nodes),
                        replace=False)
    features = graph.features.copy()
    node_labels = graph.node_labels.copy()
    extra_edges = []
    for node in chosen:
        node = int(node)
        pool = rng.choice(graph.num_nodes, size=candidates_needed, replace=False)
        pool = pool[pool != node]
        v_n, v_e = pool[:k], pool[k:2 * k]
        if len(v_e) >= s:
            distances = np.linalg.norm(graph.features[v_e] - graph.features[node],
                                       axis=1)
            far = v_e[np.argsort(distances)[-s:]]
            for partner in far:
                partner = int(partner)
                if attach_to_targets:
                    u, v = node, partner
                else:
                    v = int(rng.integers(0, graph.num_nodes))
                    u = partner
                if u != v and not graph.has_edge(u, v):
                    extra_edges.append((min(u, v), max(u, v)))
        if perturb_features and len(v_n):
            distances = np.linalg.norm(graph.features[v_n] - graph.features[node],
                                       axis=1)
            source = int(v_n[np.argmax(distances)])
            features[node] = graph.features[source]
            node_labels[node] = 1
    return graph.with_updates(
        features=features,
        extra_edges=np.asarray(extra_edges, dtype=np.int64).reshape(-1, 2),
        node_labels=node_labels,
        edge_labels_for_new=1,
    )


def inject_benchmark_anomalies(graph: Graph, spec, rng: np.random.Generator,
                               clique_size: int = 15, k: int = 50,
                               s: int = 2) -> Graph:
    """Apply the paper's full protocol for one benchmark dataset.

    Structural cliques (q per dataset) + attributive anomalies on
    ``n_p × q`` nodes.  DGraph (``has_ground_truth_nodes``) keeps its real
    node labels and receives only attributive *edge* anomalies.
    """
    if getattr(spec, "has_ground_truth_nodes", False):
        # Edge anomalies only: attach far-attribute edges to fraud nodes.
        num_targets = max(1, int(graph.node_labels.sum()))
        k_eff = min(k, (graph.num_nodes - 1) // 2)
        return inject_attributive(
            graph, rng, num_nodes=num_targets, k=k_eff, s=s,
            perturb_features=False,
        )
    injected = inject_structural(graph, rng, clique_size=clique_size,
                                 num_cliques=spec.clique_count)
    num_attr = clique_size * spec.clique_count
    k_eff = min(k, (graph.num_nodes - 1) // 2)
    return inject_attributive(injected, rng, num_nodes=num_attr, k=k_eff, s=s)
