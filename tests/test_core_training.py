"""Training and inference integration tests for BOURNE."""

import numpy as np
import pytest

from repro.core import (
    Bourne,
    BourneConfig,
    BourneTrainer,
    score_graph,
    train_bourne,
)
from repro.metrics import roc_auc_score

from conftest import make_planted_graph


@pytest.fixture(scope="module")
def planted():
    return make_planted_graph(seed=1, num_nodes=100, num_anomalies=10)


FAST = dict(hidden_dim=16, predictor_hidden=32, subgraph_size=5,
            batch_size=64, eval_rounds=3, seed=0)


class TestTrainer:
    def test_loss_decreases(self, planted):
        config = BourneConfig(epochs=8, **FAST)
        model = Bourne(planted.num_features, config)
        history = BourneTrainer(model, config).fit(planted)
        assert len(history.losses) == 8
        assert history.losses[-1] < history.losses[0]
        assert history.final_loss == history.losses[-1]

    def test_targets_per_epoch_subsampling(self, planted):
        config = BourneConfig(epochs=1, targets_per_epoch=10, **FAST)
        model = Bourne(planted.num_features, config)
        history = BourneTrainer(model, config).fit(planted)
        assert len(history.losses) == 1

    def test_train_bourne_convenience(self, planted):
        model, history = train_bourne(planted,
                                      BourneConfig(epochs=2, **FAST))
        assert isinstance(model, Bourne)
        assert len(history.losses) == 2


class TestScoring:
    def test_score_shapes_and_coverage(self, planted):
        config = BourneConfig(epochs=2, **FAST)
        model, _ = train_bourne(planted, config)
        scores = score_graph(model, planted, rounds=3)
        assert scores.node_scores.shape == (planted.num_nodes,)
        assert scores.edge_scores.shape == (planted.num_edges,)
        assert np.all(np.isfinite(scores.node_scores))
        assert np.all(np.isfinite(scores.edge_scores))
        assert scores.edge_coverage > 0.9

    def test_every_node_scored_each_round(self, planted):
        config = BourneConfig(epochs=1, **FAST)
        model, _ = train_bourne(planted, config)
        scores = score_graph(model, planted, rounds=2)
        np.testing.assert_array_equal(scores.node_rounds,
                                      np.full(planted.num_nodes, 2.0))

    def test_deterministic_given_seed(self, planted):
        config = BourneConfig(epochs=2, **FAST)
        model_a, _ = train_bourne(planted, config)
        scores_a = score_graph(model_a, planted, rounds=2, seed=11)
        model_b, _ = train_bourne(planted, config)
        scores_b = score_graph(model_b, planted, rounds=2, seed=11)
        np.testing.assert_allclose(scores_a.node_scores, scores_b.node_scores)
        np.testing.assert_allclose(scores_a.edge_scores, scores_b.edge_scores)

    def test_different_seeds_differ(self, planted):
        config = BourneConfig(epochs=2, **FAST)
        model, _ = train_bourne(planted, config)
        a = score_graph(model, planted, rounds=2, seed=1)
        b = score_graph(model, planted, rounds=2, seed=2)
        assert not np.allclose(a.node_scores, b.node_scores)


class TestDetectionQuality:
    """Integration: trained BOURNE must beat chance on planted anomalies."""

    def test_node_detection_beats_random(self, planted):
        config = BourneConfig(epochs=10, alpha=0.8, beta=0.4, **FAST)
        model, _ = train_bourne(planted, config)
        scores = score_graph(model, planted, rounds=4)
        auc = roc_auc_score(planted.node_labels, scores.node_scores)
        assert auc > 0.65, f"node AUC {auc:.3f} not better than chance"

    def test_edge_detection_beats_random(self, planted):
        config = BourneConfig(epochs=10, alpha=0.8, beta=0.4, **FAST)
        model, _ = train_bourne(planted, config)
        scores = score_graph(model, planted, rounds=4)
        auc = roc_auc_score(planted.edge_labels, scores.edge_scores)
        assert auc > 0.6, f"edge AUC {auc:.3f} not better than chance"

    def test_training_improves_over_untrained(self, planted):
        config = BourneConfig(epochs=10, alpha=0.8, beta=0.4, **FAST)
        untrained = Bourne(planted.num_features, config)
        base = score_graph(untrained, planted, rounds=4)
        base_auc = roc_auc_score(planted.node_labels, base.node_scores)

        model, _ = train_bourne(planted, config)
        scores = score_graph(model, planted, rounds=4)
        auc = roc_auc_score(planted.node_labels, scores.node_scores)
        assert auc > base_auc
