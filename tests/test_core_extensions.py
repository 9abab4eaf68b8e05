"""Tests for the library extensions: persistence, headline aggregation."""

import json

import numpy as np
import pytest

from repro.core import (
    Bourne,
    BourneConfig,
    load_model,
    save_model,
    score_graph,
    train_bourne,
)

from conftest import make_planted_graph

FAST = dict(hidden_dim=16, predictor_hidden=32, subgraph_size=5,
            batch_size=64, eval_rounds=2, seed=0)


@pytest.fixture(scope="module")
def planted():
    return make_planted_graph(seed=4, num_nodes=80, num_anomalies=8)


def with_config_keys(path, out, **keys):
    """Copy of checkpoint ``path`` at ``out`` whose config also holds
    ``keys`` — what checkpoints of older builds carry."""
    with np.load(path) as npz:
        archive = dict(npz)
    config = json.loads(bytes(archive["__config__"]).decode("utf-8"))
    config.update(keys)
    archive["__config__"] = np.frombuffer(json.dumps(config).encode("utf-8"),
                                          dtype=np.uint8)
    np.savez(out, **archive)
    return out


class TestPersistence:
    def test_save_load_roundtrip_scores(self, planted, tmp_path):
        config = BourneConfig(epochs=2, **FAST)
        model, _ = train_bourne(planted, config)
        path = save_model(model, str(tmp_path / "model.npz"))

        restored = load_model(path)
        assert restored.config == model.config
        original = score_graph(model, planted, rounds=2, seed=3)
        recovered = score_graph(restored, planted, rounds=2, seed=3)
        np.testing.assert_allclose(original.node_scores, recovered.node_scores)
        np.testing.assert_allclose(original.edge_scores, recovered.edge_scores)

    def test_save_creates_directories(self, planted, tmp_path):
        config = BourneConfig(epochs=1, **FAST)
        model = Bourne(planted.num_features, config)
        path = save_model(model, str(tmp_path / "nested" / "dir" / "m.npz"))
        assert load_model(path).num_features == planted.num_features

    def test_loaded_model_parameters_match(self, planted, tmp_path):
        config = BourneConfig(epochs=1, **FAST)
        model, _ = train_bourne(planted, config)
        restored = load_model(save_model(model, str(tmp_path / "m.npz")))
        for (na, pa), (nb, pb) in zip(model.online.named_parameters(),
                                      restored.online.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    @pytest.mark.parametrize("mode", ["unified", "node_only", "edge_only"])
    def test_checkpoint_with_retired_keys_loads(self, planted, tmp_path,
                                                mode):
        """Checkpoints written while the config still had ``readout``,
        ``backbone`` and ``grad_through_target`` load and score
        bitwise-equal when those hold the one value this build runs."""
        model = Bourne(planted.num_features, BourneConfig(mode=mode, **FAST))
        rng = np.random.default_rng(5)
        for param in model.online.parameters() + model.target.parameters():
            param.data = param.data + 0.1 * rng.normal(size=param.data.shape)
        path = save_model(model, str(tmp_path / "m.npz"))
        old = with_config_keys(path, str(tmp_path / "old.npz"), readout="mean",
                               backbone="gcn", grad_through_target=False)
        restored = load_model(old)
        assert restored.config == model.config
        original = score_graph(model, planted, rounds=2, seed=3)
        recovered = score_graph(restored, planted, rounds=2, seed=3)
        np.testing.assert_array_equal(original.node_scores,
                                      recovered.node_scores)
        np.testing.assert_array_equal(original.edge_scores,
                                      recovered.edge_scores)

    def test_checkpoint_with_retired_option_rejected(self, planted, tmp_path):
        model = Bourne(planted.num_features,
                       BourneConfig(mode="node_only", **FAST))
        path = save_model(model, str(tmp_path / "m.npz"))
        old = with_config_keys(path, str(tmp_path / "old.npz"),
                               backbone="sage")
        with pytest.raises(ValueError, match="removed option backbone"):
            load_model(old)


class TestHeadlineExperiment:
    def test_headline_aggregation(self):
        from repro.eval.experiments import headline
        from repro.eval.experiments.common import ExperimentResult
        fake = ExperimentResult(
            experiment="table3_nad",
            headers=["dataset", "method", "PRE", "REC", "AUC", "paper_AUC"],
            rows=[
                ["cora", "CoLA", 0.5, 0.5, 0.8, 0.88],
                ["cora", "BOURNE", 0.6, 0.7, 0.9, 0.91],
            ],
        )
        gains = headline._gains(fake)
        assert gains["auc"] == pytest.approx(100 * (0.9 - 0.8) / 0.8)
        assert gains["recall"] == pytest.approx(100 * (0.7 - 0.5) / 0.5)
