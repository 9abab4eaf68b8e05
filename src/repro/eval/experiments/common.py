"""Shared infrastructure for the per-table / per-figure experiments."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..reporting import format_series, format_table, results_dir, write_csv
from ..runner import (
    EvalProfile,
    bourne_config,
    prepare_graph,
    run_bourne,
    run_edge_baseline,
    run_node_baseline,
)


@dataclass
class ExperimentResult:
    """Uniform result container: a table plus optional figure series.

    ``claims`` holds the paper's shape claims that the run's own rows
    can check, as ``(description, holds)`` verdicts; a claim whose
    inputs were not run is left out.
    """

    experiment: str
    headers: Sequence[str]
    rows: List[Sequence]
    series: Dict[str, Tuple[Sequence, Sequence]] = field(default_factory=dict)
    notes: str = ""
    claims: List[Tuple[str, bool]] = field(default_factory=list)

    def __post_init__(self):
        self.claims = [(text, bool(holds)) for text, holds in self.claims]

    def render(self, precision: int = 4) -> str:
        parts = [format_table(self.headers, self.rows,
                              title=f"== {self.experiment} ==",
                              precision=precision)]
        for name, (xs, ys) in self.series.items():
            parts.append(format_series(name, xs, ys, precision=precision))
        if self.notes:
            parts.append(f"note: {self.notes}")
        if self.claims:
            parts.append("\n".join(f"[{'holds' if holds else 'FAILS'}] {text}"
                                   for text, holds in self.claims))
        return "\n\n".join(parts)

    def save(self) -> str:
        """Persist the table (and series) as CSVs under ``results/``."""
        base = os.path.join(results_dir(), self.experiment.replace(" ", "_"))
        path = write_csv(base + ".csv", self.headers, self.rows)
        for name, (xs, ys) in self.series.items():
            safe = name.replace(" ", "_").replace("/", "-")
            write_csv(f"{base}__{safe}.csv", ["x", "y"], list(zip(xs, ys)))
        return path


#: In-process cache: (dataset, profile.name, seed) -> detection outputs.
_DETECTION_CACHE: Dict[tuple, dict] = {}


def run_detection(dataset: str, profile: EvalProfile,
                  node_methods: Optional[Sequence[str]] = None,
                  edge_methods: Optional[Sequence[str]] = None) -> dict:
    """Run BOURNE plus the requested baselines on one dataset (cached).

    Returns ``{"graph": Graph, "methods": {name: result_dict}}`` where
    each result dict holds the method's scores.  BOURNE is always
    included and contributes both node and edge scores.
    """
    from ...baselines import EDGE_BASELINES, NODE_BASELINES

    node_methods = list(NODE_BASELINES) if node_methods is None else list(node_methods)
    edge_methods = list(EDGE_BASELINES) if edge_methods is None else list(edge_methods)

    key = (dataset, profile.name, profile.seed, profile.scale)
    entry = _DETECTION_CACHE.get(key)
    if entry is None:
        entry = {"graph": prepare_graph(dataset, profile), "methods": {}}
        _DETECTION_CACHE[key] = entry
    graph = entry["graph"]
    methods: Dict[str, dict] = entry["methods"]
    if "BOURNE" not in methods:
        methods["BOURNE"] = run_bourne(graph, bourne_config(dataset, profile))
    for name in node_methods:
        if name not in methods:
            methods[name] = run_node_baseline(name, graph, profile)
    for name in edge_methods:
        if name not in methods:
            methods[name] = run_edge_baseline(name, graph, profile)
    return entry


def clear_detection_cache() -> None:
    """Drop all cached detection runs (tests / memory hygiene)."""
    _DETECTION_CACHE.clear()


def bourne_lead_claims(rows: Sequence[Sequence], auc_column: int,
                       floor: Optional[float] = None) -> List[Tuple[str, bool]]:
    """Per dataset of ``[dataset, method, ...]`` rows: BOURNE's AUC is
    above ``floor`` and within 0.03 of the best baseline that was run."""
    by_dataset: Dict[str, dict] = {}
    for row in rows:
        by_dataset.setdefault(row[0], {})[row[1]] = row[auc_column]
    claims = []
    for dataset, aucs in by_dataset.items():
        bourne = aucs.pop("BOURNE")
        if floor is not None:
            claims.append((f"{dataset}: BOURNE AUC {bourne:.3f} > {floor}",
                           bourne > floor))
        if aucs:
            best = max(aucs, key=aucs.get)
            claims.append((f"{dataset}: BOURNE AUC {bourne:.3f} > {best} "
                           f"{aucs[best]:.3f} - 0.03", bourne > aucs[best] - 0.03))
    return claims
