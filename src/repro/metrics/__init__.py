"""Evaluation metrics."""

from .curves import auc_from_curve, downsample_curve, roc_curve
from .ranking import (
    average_precision,
    detection_summary,
    precision_at_k,
    precision_recall_at_best_f1,
    recall_at_k,
    roc_auc_score,
)

__all__ = [
    "roc_auc_score",
    "precision_at_k",
    "recall_at_k",
    "average_precision",
    "precision_recall_at_best_f1",
    "detection_summary",
    "roc_curve",
    "downsample_curve",
    "auc_from_curve",
]
