"""Unit tests for the BOURNE model: forward, loss, stop-grad, EMA, modes."""

import hashlib

import numpy as np
import pytest

from repro.core import Bourne, BourneConfig
from repro.core.trainer import batch_loss_scales
from repro.core.variants import (
    ABLATIONS,
    without_gnn,
    without_hgnn,
    without_patch_level,
    without_perturbation,
    without_subgraph_level,
)
from repro.graph import derive_target_seeds
from repro.tensor.backend import resolve_backend

#: ``node_only`` forward-mask seed (the other modes ignore it).
MASK_SEED = 1


def prepare(model, graph, targets, seed=0):
    """Views of ``targets`` on per-target seeds derived from ``seed``."""
    targets = np.asarray(targets, dtype=np.int64)
    return model.prepare_batch(graph, targets,
                               derive_target_seeds(seed, targets))


def batch_loss(model, scores, batch_size):
    """The whole-batch objective: one chunk holding every target."""
    owners = (0 if scores.edge_scores is None
              else len(np.unique(scores.edge_owner)))
    return model.chunk_loss(
        scores, *batch_loss_scales(model.config.mode, batch_size, owners))


@pytest.fixture
def config():
    return BourneConfig(hidden_dim=16, predictor_hidden=32, subgraph_size=4,
                        epochs=2, batch_size=8, eval_rounds=2, seed=0)


@pytest.fixture
def model(tiny_graph, config):
    return Bourne(tiny_graph.num_features, config)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = BourneConfig()
        assert cfg.hop_size == 2
        assert cfg.hidden_dim == 128
        assert cfg.predictor_hidden == 512
        assert cfg.decay_rate == 0.99
        assert cfg.learning_rate == 1e-3
        assert cfg.eval_rounds == 160

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            BourneConfig(alpha=1.5)
        with pytest.raises(ValueError):
            BourneConfig(decay_rate=1.0)
        with pytest.raises(ValueError):
            BourneConfig(mode="both")
        with pytest.raises(ValueError):
            BourneConfig(subgraph_size=0)
        with pytest.raises(ValueError):
            BourneConfig(num_layers=0)

    def test_updated_returns_copy(self):
        cfg = BourneConfig()
        cfg2 = cfg.updated(alpha=0.3)
        assert cfg.alpha != cfg2.alpha


class TestForward:
    def test_batch_scores_shapes(self, tiny_graph, model):
        targets = [0, 2, 5]
        gviews, hviews = prepare(model, tiny_graph, targets)
        scores = model.forward_batch(gviews, hviews, mask_seed=MASK_SEED)
        assert scores.node_scores.shape == (3,)
        assert scores.edge_scores is not None
        assert len(scores.edge_scores) == len(scores.edge_orig_ids)
        assert scores.edge_owner.max() <= 2

    def test_scores_in_range(self, tiny_graph, model):
        cfg = model.config
        gviews, hviews = prepare(model, tiny_graph, [0, 1, 2])
        scores = model.forward_batch(gviews, hviews, mask_seed=MASK_SEED)
        upper = cfg.alpha + cfg.beta + cfg.alpha + cfg.beta  # cos ∈ [−1, 1]
        assert np.all(scores.node_scores.data >= -1e-9)
        assert np.all(scores.node_scores.data <= upper + 1e-9)

    def test_stop_gradient_on_target_network(self, tiny_graph, model):
        gviews, hviews = prepare(model, tiny_graph, [0, 2])
        scores = model.forward_batch(gviews, hviews, mask_seed=MASK_SEED)
        loss = batch_loss(model, scores, 2)
        loss.backward()
        online_grads = [p.grad for p in model.online.parameters()]
        target_grads = [p.grad for p in model.target.parameters()]
        assert any(g is not None for g in online_grads)
        assert all(g is None for g in target_grads)

    def test_predictor_belongs_to_online_only(self, model):
        online_names = [n for n, _ in model.online.named_parameters()]
        target_names = [n for n, _ in model.target.named_parameters()]
        assert any("predictor" in n for n in online_names)
        assert not any("predictor" in n for n in target_names)

    def test_loss_is_scalar_and_finite(self, tiny_graph, model):
        gviews, hviews = prepare(model, tiny_graph, [0, 1, 2, 3])
        scores = model.forward_batch(gviews, hviews, mask_seed=MASK_SEED)
        loss = batch_loss(model, scores, 4)
        assert loss.size == 1
        assert np.isfinite(loss.item())


class TestEMA:
    def test_target_initialized_from_online(self, model):
        online = model.online.encoder_parameters()
        target = model.target.encoder_parameters()
        for o, t in zip(online, target):
            np.testing.assert_array_equal(o.data, t.data)

    def test_update_moves_target_toward_online(self, tiny_graph, model):
        # Perturb online weights, then EMA-update the target.
        online = model.online.encoder_parameters()
        target = model.target.encoder_parameters()
        before = [t.data.copy() for t in target]
        for o in online:
            o.data = o.data + 1.0
        model.update_target()
        for t, b, o in zip(target, before, online):
            assert np.all(np.abs(t.data - b) > 0)
            assert np.all(np.abs(t.data - o.data) < np.abs(b - o.data))

    def test_encoder_parameter_count_matches(self, model):
        assert len(model.online.encoder_parameters()) == \
            len(model.target.encoder_parameters())

    def test_trainable_parameters_online_only_by_default(self, model):
        trainable = set(id(p) for p in model.trainable_parameters())
        target = set(id(p) for p in model.target.parameters())
        assert trainable.isdisjoint(target)


#: ``named_parameters()`` of a fresh two-layer model and the sha256 of
#: its initial online/target parameters (names and float64 bytes, in
#: order), recorded while each mode still built its own encoder classes:
#: one encoder pair keeps every init draw, so checkpoints and score pins
#: carry over unchanged.
ONLINE_NAMES = ["conv0.weight", "conv0.act.alpha", "conv1.weight",
                "conv1.act.alpha", "predictor.fc0.weight",
                "predictor.fc0.bias", "predictor.act0.alpha",
                "predictor.fc1.weight", "predictor.fc1.bias"]
TARGET_NAMES = ["conv0.weight", "conv0.act.alpha", "conv1.weight",
                "conv1.act.alpha"]
ONLINE_SHA256 = ("0fa864ea9296475cffa9d0f9bdfb3534"
                 "dbfb235057735fe007f011349aff1e43")
TARGET_SHA256 = ("299ff4c9813f1e68da4388e1a95a1208"
                 "e4fd4d4d127fad3ec95d058bec32ee10")


def parameter_digest(named) -> str:
    digest = hashlib.sha256()
    for name, param in named:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(param.data,
                                           dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("mode", ["unified", "node_only", "edge_only"])
def test_encoder_layout_pin(mode):
    model = Bourne(6, BourneConfig(hidden_dim=8, predictor_hidden=16,
                                   num_layers=2, seed=11, mode=mode))
    online = list(model.online.named_parameters())
    target = list(model.target.named_parameters())
    assert [name for name, _ in online] == ONLINE_NAMES
    assert [name for name, _ in target] == TARGET_NAMES
    assert parameter_digest(online) == ONLINE_SHA256
    assert parameter_digest(target) == TARGET_SHA256


class TestModes:
    def test_node_only_has_no_edge_scores(self, tiny_graph, config):
        model = Bourne(tiny_graph.num_features, config.updated(mode="node_only"))
        gviews, hviews = prepare(model, tiny_graph, [0, 2])
        scores = model.forward_batch(gviews, hviews, mask_seed=MASK_SEED)
        assert scores.node_scores is not None
        assert scores.edge_scores is None

    def test_node_only_forward_requires_mask_seed(self, tiny_graph, config):
        model = Bourne(tiny_graph.num_features, config.updated(mode="node_only"))
        gviews, hviews = prepare(model, tiny_graph, [0, 2])
        with pytest.raises(ValueError, match="mask_seed"):
            model.forward_batch(gviews, hviews)
        with pytest.raises(ValueError, match="mask_seed"):
            resolve_backend("fused").forward_batch(model, gviews, hviews)

    def test_edge_only_has_no_node_scores(self, tiny_graph, config):
        model = Bourne(tiny_graph.num_features, config.updated(mode="edge_only"))
        gviews, hviews = prepare(model, tiny_graph, [0, 2])
        scores = model.forward_batch(gviews, hviews, mask_seed=MASK_SEED)
        assert scores.node_scores is None
        assert scores.edge_scores is not None

    def test_all_modes_losses_finite(self, tiny_graph, config):
        for mode in ("unified", "node_only", "edge_only"):
            model = Bourne(tiny_graph.num_features, config.updated(mode=mode))
            gviews, hviews = prepare(model, tiny_graph, [0, 1, 2])
            scores = model.forward_batch(gviews, hviews, mask_seed=MASK_SEED)
            loss = batch_loss(model, scores, 3)
            assert np.isfinite(loss.item())


class TestVariants:
    def test_ablation_registry_complete(self):
        assert set(ABLATIONS) == {"full", "w/o PL", "w/o SL", "w/o HGNN",
                                  "w/o GNN", "w/o perturbation"}

    def test_without_patch_level(self):
        cfg = without_patch_level(BourneConfig())
        assert cfg.alpha == 0.0 and cfg.beta == 1.0

    def test_without_subgraph_level(self):
        cfg = without_subgraph_level(BourneConfig())
        assert cfg.alpha == 1.0 and cfg.beta == 0.0

    def test_without_hgnn_is_node_only(self):
        assert without_hgnn(BourneConfig()).mode == "node_only"

    def test_without_gnn_is_edge_only(self):
        assert without_gnn(BourneConfig()).mode == "edge_only"

    def test_without_perturbation_disables_augmentation(self):
        cfg = without_perturbation(BourneConfig())
        assert cfg.feature_mask_prob == 0.0
        assert cfg.incidence_drop_prob == 0.0
        assert not cfg.augment_at_inference


class TestLossSemantics:
    def test_edge_loss_weights_targets_equally(self, tiny_graph, config):
        """Eq. 19: per-target mean, so a high-degree target does not
        dominate the edge objective."""
        model = Bourne(tiny_graph.num_features, config)
        gviews, hviews = prepare(model, tiny_graph, [2, 7])  # deg 3 vs 1
        scores = model.forward_batch(gviews, hviews, mask_seed=MASK_SEED)
        owners = scores.edge_owner
        values = scores.edge_scores.data
        per_target = [values[owners == b].mean() for b in np.unique(owners)]
        expected_edge_term = np.mean(per_target)
        node_term = scores.node_scores.data.mean()
        loss = batch_loss(model, scores, 2).item()
        assert loss == pytest.approx(0.5 * (node_term + expected_edge_term),
                                     rel=1e-9)
