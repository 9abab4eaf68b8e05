"""Candidate-model validation: probe scoring and accept/reject verdicts.

A freshly retrained candidate must prove itself before it reaches the
registry.  Validation runs on the *training snapshot* (the exact graph
the candidate was fitted to) over a deterministic held-out probe set:

1. **Score sanity** — probe scores must be finite and non-degenerate
   (a collapsed model scores everything identically).
2. **Eval metrics vs the live model** — when the probe carries both
   label classes, the candidate's ROC-AUC may not fall more than
   ``auc_margin`` below the reference model's on the same probe.

Scoring goes through :func:`repro.serving.service.score_service_span`,
the pure scorer the sharded refresh workers use — no service state is
touched, so validation can run off the serving thread against
models the gateway never served.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..metrics.ranking import roc_auc_score
from ..serving.service import score_service_span


@dataclass
class ValidationReport:
    """Verdict plus the evidence it was reached on."""

    accepted: bool
    reason: str
    checks: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> dict:
        return {"accepted": self.accepted, "reason": self.reason,
                "checks": dict(self.checks)}


def probe_nodes(graph, size: int, seed: int) -> np.ndarray:
    """Deterministic probe set: ``size`` distinct nodes of ``graph``.

    Pure in ``(num_nodes, size, seed)`` — the controller and any
    offline audit of its decision draw the same probe.
    """
    n = int(graph.num_nodes)
    if n < 1:
        raise ValueError("cannot probe an empty graph")
    size = min(int(size), n)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=size, replace=False)).astype(np.int64)


def probe_scores(model, graph, probe: np.ndarray, *, seed: int, rounds: int,
                 max_batch: int, backend=None) -> np.ndarray:
    """Mean anomaly scores of ``probe`` under ``model`` — the same
    counter-based streams the serving path uses for ``seed``, so a
    validated candidate scores in production exactly as it did here."""
    evidence = score_service_span(model, graph, np.asarray(probe, np.int64),
                                  seed, rounds, max_batch, backend=backend)
    return evidence.node_sum / rounds


def validate_candidate(candidate, reference, graph, probe: np.ndarray, *,
                       seed: int, rounds: int, max_batch: int,
                       auc_margin: float = 0.05,
                       min_score_std: float = 1e-12,
                       backend=None) -> ValidationReport:
    """Score-sanity + metric comparison verdict for ``candidate``.

    ``reference`` is the currently served model (``None`` skips the
    comparative check — first publish into an empty registry).  The
    AUC comparison only runs when the probe labels contain both
    classes; single-class probes fall back to sanity checks alone
    (``roc_auc_score`` is undefined there).
    """
    scores = probe_scores(candidate, graph, probe, seed=seed, rounds=rounds,
                          max_batch=max_batch, backend=backend)
    checks: Dict[str, object] = {
        "probe_size": int(len(probe)),
        "finite": bool(np.isfinite(scores).all()),
        "score_std": float(np.std(scores)),
        "score_mean": float(np.mean(scores)),
    }
    if not checks["finite"]:
        return ValidationReport(False, "candidate produced non-finite probe "
                                "scores", checks)
    if checks["score_std"] <= min_score_std:
        return ValidationReport(
            False, f"candidate probe scores are degenerate (std "
            f"{checks['score_std']:.3g} <= {min_score_std:.3g})", checks)

    labels = _probe_labels(graph, probe)
    if reference is not None and labels is not None:
        ref_scores = probe_scores(reference, graph, probe, seed=seed,
                                  rounds=rounds, max_batch=max_batch,
                                  backend=backend)
        candidate_auc = float(roc_auc_score(labels, scores))
        reference_auc = float(roc_auc_score(labels, ref_scores))
        checks["candidate_auc"] = candidate_auc
        checks["reference_auc"] = reference_auc
        checks["auc_margin"] = float(auc_margin)
        if candidate_auc + auc_margin < reference_auc:
            return ValidationReport(
                False, f"probe AUC regressed: candidate {candidate_auc:.4f} "
                f"vs reference {reference_auc:.4f} (margin {auc_margin})",
                checks)
    return ValidationReport(True, "sanity and metric checks passed", checks)


def _probe_labels(graph, probe: np.ndarray) -> Optional[np.ndarray]:
    """Probe labels when they carry both classes, else ``None``."""
    node_labels = getattr(graph, "node_labels", None)
    if node_labels is None:
        return None
    labels = np.asarray(node_labels)[probe]
    if len(np.unique(labels)) < 2:
        return None
    return labels
