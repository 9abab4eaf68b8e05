"""Counter-based Γ1/Γ2 view augmentation: invariance + golden pins.

Augmentation draws are keyed by ``(target seed, stream, draw index)``
through the same splitmix64 scheme as sampling, so
``prepare_batch(augment=True)`` — and therefore augmented unified-mode
inference — is invariant to batch size and shard count, and fixed
seeds reproduce committed traces.  The raw-draw digests are pure
``uint64`` arithmetic and must match bit-for-bit on every platform;
the score pins are rounded before hashing so last-ulp BLAS wiggle
cannot flip them.
"""

import hashlib

import numpy as np
import pytest

from repro.core import Bourne, BourneConfig, score_graph
from repro.core.views import (
    _VIEW_DROP_STREAM,
    _VIEW_MASK_STREAM,
    build_batched_views,
)
from repro.graph import Graph
from repro.graph.index import derive_target_seeds, seeded_uniform
from repro.graph.sampling import sample_enclosing_subgraphs


def small_graph(seed=0, num_nodes=48, num_edges=110):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        u, v = (int(x) for x in rng.integers(0, num_nodes, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(rng.normal(size=(num_nodes, 6)), np.array(sorted(edges)),
                 name="counter-aug-test")


def augmented_config(**overrides):
    base = dict(hidden_dim=8, predictor_hidden=16, subgraph_size=4,
                hop_size=2, eval_rounds=2, batch_size=16, seed=3,
                augment_at_inference=True)
    base.update(overrides)
    return BourneConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return small_graph()


@pytest.fixture(scope="module")
def model(graph):
    return Bourne(graph.num_features, augmented_config())


class TestDrawStreams:
    """The raw augmentation draws are pure functions of the seeds."""

    SEED_BASE = 0xDEADBEEF

    def _draws(self):
        seeds = derive_target_seeds(self.SEED_BASE, np.arange(16))
        dims = np.arange(8, dtype=np.uint64)
        mask = seeded_uniform(seeds[:, None], _VIEW_MASK_STREAM,
                              dims[None, :]) >= 0.2
        drop = seeded_uniform(
            seeds[:, None], _VIEW_DROP_STREAM,
            (np.arange(16, dtype=np.uint64) * np.uint64(2))[:, None]
            + np.arange(2, dtype=np.uint64)[None, :]) >= 0.2
        return mask, drop

    def test_committed_draw_digests(self):
        """splitmix64 is integer math — these digests hold on every
        platform; a change means the augmentation streams moved and
        every committed score trace in the repo is stale."""
        mask, drop = self._draws()
        assert hashlib.sha256(np.packbits(mask).tobytes()).hexdigest() == (
            "7ef7dbc05cb8c7ca2995c4ddb3e069423d28342e250a4aa5177363efc238d552")
        assert hashlib.sha256(np.packbits(drop).tobytes()).hexdigest() == (
            "d55d30e791344bfe91f90b0e43de044c13bd58b55340cbcdf639f6bce315a0bc")

    def test_streams_are_disjoint(self):
        seeds = derive_target_seeds(self.SEED_BASE, np.arange(16))
        idx = np.arange(8, dtype=np.uint64)
        mask_draws = seeded_uniform(seeds[0], _VIEW_MASK_STREAM, idx)
        drop_draws = seeded_uniform(seeds[0], _VIEW_DROP_STREAM, idx)
        assert not np.array_equal(mask_draws, drop_draws)


class TestViewInvariance:
    """Augmented views are identical however the batch is laid out."""

    def test_views_match_singleton_build(self, graph):
        cfg = augmented_config()
        targets = np.arange(10, dtype=np.int64)
        seeds = derive_target_seeds(42, targets)
        batch = sample_enclosing_subgraphs(
            graph, targets, k=cfg.hop_size, size=cfg.subgraph_size,
            target_seeds=seeds)
        _, hviews = build_batched_views(
            batch, feature_mask_prob=cfg.feature_mask_prob,
            incidence_drop_prob=cfg.incidence_drop_prob,
            augment=True, target_seeds=seeds)
        for i, target in enumerate(targets):
            solo = sample_enclosing_subgraphs(
                graph, [target], k=cfg.hop_size, size=cfg.subgraph_size,
                target_seeds=seeds[i:i + 1])
            _, solo_h = build_batched_views(
                solo, feature_mask_prob=cfg.feature_mask_prob,
                incidence_drop_prob=cfg.incidence_drop_prob,
                augment=True, target_seeds=seeds[i:i + 1])
            # The same target's augmented feature rows appear verbatim
            # inside the batched system.
            owned = hviews.edge_owner == i
            np.testing.assert_array_equal(
                hviews.features[hviews.zt_rows[owned]],
                solo_h.features[solo_h.zt_rows])

    def test_prepare_batch_augmented_is_batch_invariant(self, graph, model):
        targets = np.arange(12, dtype=np.int64)
        seeds = derive_target_seeds(7, targets)
        _, full = model.prepare_batch(graph, targets, augment=True,
                                      target_seeds=seeds)
        _, head = model.prepare_batch(graph, targets[:5], augment=True,
                                      target_seeds=seeds[:5])
        head_rows = full.edge_owner < 5
        np.testing.assert_array_equal(full.edge_orig_ids[head_rows],
                                      head.edge_orig_ids)
        np.testing.assert_array_equal(full.features[full.zt_rows[head_rows]],
                                      head.features[head.zt_rows])

    def test_seed_count_mismatch_raises(self, graph, model):
        with pytest.raises(ValueError, match="target_seeds"):
            targets = np.arange(4, dtype=np.int64)
            seeds = derive_target_seeds(7, targets)
            batch = sample_enclosing_subgraphs(
                graph, targets, k=2, size=4, target_seeds=seeds)
            build_batched_views(batch, augment=True, target_seeds=seeds[:2])


class TestAugmentedScoringInvariance:
    """Augmented unified-mode inference no longer depends on batch
    size or sharding — the ROADMAP follow-up this PR closes."""

    @pytest.fixture(scope="class")
    def reference(self, model, graph):
        return score_graph(model, graph, rounds=2, seed=11)

    def test_batch_size_invariant(self, model, graph, reference):
        for batch_size in (5, 17, 64):
            scores = score_graph(model, graph, rounds=2, seed=11,
                                 batch_size=batch_size)
            np.testing.assert_array_equal(scores.node_scores,
                                          reference.node_scores)
            np.testing.assert_array_equal(scores.edge_scores,
                                          reference.edge_scores)

    def test_shard_invariant(self, model, graph, reference):
        sharded = score_graph(model, graph, rounds=2, seed=11, workers=3)
        np.testing.assert_array_equal(sharded.node_scores,
                                      reference.node_scores)
        np.testing.assert_array_equal(sharded.edge_scores,
                                      reference.edge_scores)

    def test_committed_score_trace(self, model, graph, reference):
        """Fixed seeds reproduce the committed trace: literal head
        values (tolerance for BLAS last-ulp drift) plus a digest over
        4-decimal-rounded full tables."""
        np.testing.assert_allclose(
            reference.node_scores[:6],
            [0.655242913882, 1.0, 0.97541384746, 1.0,
             0.713814632333, 0.779402767692],
            rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            reference.edge_scores[:6],
            [0.804783661244, 0.961425386841, 0.612061405903,
             0.705343049042, 0.612240949132, 1.10860308864],
            rtol=0, atol=1e-9)
        node_digest = hashlib.sha256(
            np.round(reference.node_scores, 4).tobytes()).hexdigest()
        edge_digest = hashlib.sha256(
            np.round(reference.edge_scores, 4).tobytes()).hexdigest()
        assert node_digest == ("d14c42d835e775be7506b5de6c855827"
                               "d2ba373ff32a754d20cc0e3cc1ff2b0f")
        assert edge_digest == ("6eee94de1d5180501700ff7186f2a8d7"
                               "c6e038b5917a84529eac82049b0319d2")

    def test_different_seeds_still_differ(self, model, graph, reference):
        other = score_graph(model, graph, rounds=2, seed=12)
        assert not np.array_equal(other.node_scores, reference.node_scores)
