"""The one lifecycle verdict: is a model fit to serve?

The controller asks it twice: of a retrained candidate before it is
published, and of a served version it did not produce after the
gateway swapped to it.  Both get one answer, :func:`judge_scores`, over
the model's mean scores on a deterministic probe of a graph snapshot
(:func:`probe_nodes`, :func:`probe_scores`).  In order:

1. **Finite** — every probe score is finite.
2. **Not collapsed** — the scores' standard deviation exceeds
   ``min_score_std`` (a collapsed model scores every node alike).
3. **AUC** — when the probe labels carry both classes, the model's
   ROC-AUC may trail the reference model's by at most ``max_auc_drop``.
4. **Shift** — when a ``score_shift`` limit is set, the mean absolute
   difference from the reference model's scores may not exceed it: a
   label-free tripwire for deployments without ground truth.

Scoring goes through :func:`repro.serving.service.score_service_span`,
the pure scorer the sharded refresh workers use — no service state is
touched, so probes run off the serving thread against models the
gateway never served.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..metrics.ranking import roc_auc_score
from ..serving.service import score_service_span


@dataclass
class Verdict:
    """Whether a model is fit to serve, and the evidence it rests on."""

    accepted: bool
    reason: str
    checks: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> dict:
        return dataclasses.asdict(self)


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


def probe_scores(
    model, graph, probe: np.ndarray, *, seed: int, rounds: int, max_batch: int
) -> np.ndarray:
    """Mean anomaly scores of ``probe`` under ``model`` — the same
    counter-based streams the serving path uses for ``seed``, so a
    judged model scores in production exactly as it did here."""
    probe = np.asarray(probe, np.int64)
    evidence = score_service_span(model, graph, probe, seed, rounds, max_batch)
    return evidence.node_sum / rounds


def judge_scores(
    scores: np.ndarray,
    reference_scores: Optional[np.ndarray],
    labels: Optional[np.ndarray],
    *,
    max_auc_drop: float,
    score_shift: Optional[float] = None,
    min_score_std: float,
) -> Verdict:
    """The verdict on a model's probe ``scores``.

    ``labels`` are the probe's labels when they carry both classes, else
    ``None`` (ROC-AUC is undefined on one class).  ``reference_scores``
    are the reference model's scores on the same probe; only the AUC
    and shift checks read them, so they may be ``None`` when ``labels``
    and ``score_shift`` both are.
    """
    scores = np.asarray(scores, dtype=np.float64)
    finite = bool(np.isfinite(scores).all())
    std = float(np.std(scores))
    checks: Dict[str, object] = {
        "probe_size": int(scores.size),
        "finite": finite,
        "score_std": std,
        "score_mean": float(np.mean(scores)),
    }
    if not finite:
        return Verdict(False, "non-finite probe scores", checks)
    if std <= min_score_std:
        reason = f"probe scores collapsed (std {std:.3g} <= {min_score_std:.3g})"
        return Verdict(False, reason, checks)
    if labels is not None:
        auc = float(roc_auc_score(labels, scores))
        reference_auc = float(roc_auc_score(labels, reference_scores))
        checks.update(
            auc=auc, reference_auc=reference_auc, max_auc_drop=float(max_auc_drop)
        )
        if auc + max_auc_drop < reference_auc:
            return Verdict(
                False,
                f"probe AUC regressed: {auc:.4f} vs reference "
                f"{reference_auc:.4f} (max drop {max_auc_drop})",
                checks,
            )
    if score_shift is not None:
        reference = np.asarray(reference_scores, dtype=np.float64)
        shift = float(np.mean(np.abs(scores - reference)))
        checks.update(score_shift=shift, score_shift_limit=float(score_shift))
        if shift > score_shift:
            return Verdict(
                False,
                f"mean probe-score shift {shift:.4g} exceeds {score_shift:.4g}",
                checks,
            )
    return Verdict(True, "probe checks passed", checks)
