"""Unit + property tests for evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    auc_from_curve,
    average_precision,
    detection_summary,
    downsample_curve,
    precision_at_k,
    precision_recall_at_best_f1,
    recall_at_k,
    roc_auc_score,
    roc_curve,
)

LABELS = np.array([0, 0, 1, 1, 0, 1])
SCORES = np.array([0.1, 0.2, 0.9, 0.8, 0.3, 0.7])


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc_score(LABELS, SCORES) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc_score(LABELS, -SCORES) == 0.0

    def test_random_scores_near_half(self, rng):
        labels = rng.integers(0, 2, size=4000)
        scores = rng.random(4000)
        assert abs(roc_auc_score(labels, scores) - 0.5) < 0.05

    def test_ties_give_half_credit(self):
        labels = np.array([0, 1])
        scores = np.array([0.5, 0.5])
        assert roc_auc_score(labels, scores) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.zeros(4), np.arange(4.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.zeros(3), np.zeros(4))

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.array([0, 2]), np.zeros(2))

    def test_matches_curve_integration(self, rng):
        labels = rng.integers(0, 2, size=300)
        labels[0], labels[1] = 0, 1
        scores = rng.random(300)
        fpr, tpr, _ = roc_curve(labels, scores)
        assert roc_auc_score(labels, scores) == pytest.approx(
            auc_from_curve(fpr, tpr), abs=1e-9
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        scores = rng.normal(size=50)
        a = roc_auc_score(labels, scores)
        b = roc_auc_score(labels, np.exp(scores) * 3.0 + 7.0)
        assert a == pytest.approx(b, abs=1e-12)


class TestPrecisionRecall:
    def test_precision_at_k(self):
        assert precision_at_k(LABELS, SCORES, 3) == 1.0
        assert precision_at_k(LABELS, SCORES, 6) == 0.5

    def test_recall_at_k(self):
        assert recall_at_k(LABELS, SCORES, 3) == 1.0
        assert recall_at_k(LABELS, SCORES, 1) == pytest.approx(1 / 3)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            precision_at_k(LABELS, SCORES, 0)
        with pytest.raises(ValueError):
            precision_at_k(LABELS, SCORES, 7)

    def test_best_f1_perfect_case(self):
        precision, recall, _ = precision_recall_at_best_f1(LABELS, SCORES)
        assert precision == 1.0
        assert recall == 1.0

    def test_best_f1_threshold_is_attained_score(self):
        _, _, threshold = precision_recall_at_best_f1(LABELS, SCORES)
        assert threshold in SCORES

    def test_average_precision_perfect(self):
        assert average_precision(LABELS, SCORES) == 1.0

    def test_average_precision_bounds(self, rng):
        labels = rng.integers(0, 2, size=100)
        labels[:2] = [0, 1]
        scores = rng.random(100)
        assert 0.0 < average_precision(labels, scores) <= 1.0

    def test_detection_summary_keys(self):
        summary = detection_summary(LABELS, SCORES)
        assert set(summary) == {"precision", "recall", "auc"}


class TestRocCurve:
    def test_starts_at_origin_ends_at_one(self):
        fpr, tpr, _ = roc_curve(LABELS, SCORES)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    def test_monotone(self, rng):
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        scores = rng.random(200)
        fpr, tpr, _ = roc_curve(labels, scores)
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)

    def test_downsample_grid(self):
        fpr, tpr, _ = roc_curve(LABELS, SCORES)
        grid, resampled = downsample_curve(fpr, tpr, points=11)
        assert len(grid) == len(resampled) == 11
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve(np.ones(3), np.arange(3.0))

