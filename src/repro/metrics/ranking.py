"""Ranking metrics for anomaly detection.

All functions take ``labels`` (binary ground truth, 1 = anomalous) and
``scores`` (higher = more anomalous) as 1-D arrays.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import stats


def _validate(labels, scores) -> Tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels).astype(np.int64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if labels.shape != scores.shape:
        raise ValueError(f"labels {labels.shape} and scores {scores.shape} differ")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary")
    return labels, scores


def roc_auc_score(labels, scores) -> float:
    """Area under the ROC curve via the rank (Mann–Whitney) statistic.

    Handles ties by midranks.  Raises if only one class is present.
    """
    labels, scores = _validate(labels, scores)
    positives = int(labels.sum())
    negatives = len(labels) - positives
    if positives == 0 or negatives == 0:
        raise ValueError("roc_auc_score requires both classes present")
    ranks = stats.rankdata(scores)
    rank_sum = float(ranks[labels == 1].sum())
    auc = (rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)
    return float(auc)


def precision_at_k(labels, scores, k: int) -> float:
    """Precision among the k highest-scoring items."""
    labels, scores = _validate(labels, scores)
    if k <= 0 or k > len(labels):
        raise ValueError(f"k must be in [1, {len(labels)}], got {k}")
    top = np.argsort(scores)[::-1][:k]
    return float(labels[top].mean())


def recall_at_k(labels, scores, k: int) -> float:
    """Fraction of all anomalies captured in the top k."""
    labels, scores = _validate(labels, scores)
    positives = labels.sum()
    if positives == 0:
        raise ValueError("recall_at_k requires at least one positive")
    top = np.argsort(scores)[::-1][:k]
    return float(labels[top].sum() / positives)


def average_precision(labels, scores) -> float:
    """Area under the precision-recall curve (step interpolation)."""
    labels, scores = _validate(labels, scores)
    order = np.argsort(scores)[::-1]
    sorted_labels = labels[order]
    cumulative = np.cumsum(sorted_labels)
    precision = cumulative / np.arange(1, len(labels) + 1)
    positives = labels.sum()
    if positives == 0:
        raise ValueError("average_precision requires at least one positive")
    return float((precision * sorted_labels).sum() / positives)


def precision_recall_at_best_f1(labels, scores) -> Tuple[float, float, float]:
    """(precision, recall, threshold) at the F1-maximizing operating point.

    The paper reports PRE/REC without stating a threshold; the
    F1-maximizing one is the standard deterministic choice.
    """
    labels, scores = _validate(labels, scores)
    order = np.argsort(scores)[::-1]
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    positives = labels.sum()
    if positives == 0:
        raise ValueError("needs at least one positive")
    tp = np.cumsum(sorted_labels)
    k = np.arange(1, len(labels) + 1)
    precision = tp / k
    recall = tp / positives
    f1 = 2 * precision * recall / np.maximum(precision + recall, 1e-12)
    best = int(np.argmax(f1))
    return float(precision[best]), float(recall[best]), float(sorted_scores[best])


def detection_summary(labels, scores) -> dict:
    """PRE / REC / AUC triple as reported in Tables III and IV."""
    precision, recall, _ = precision_recall_at_best_f1(labels, scores)
    return {
        "precision": precision,
        "recall": recall,
        "auc": roc_auc_score(labels, scores),
    }
