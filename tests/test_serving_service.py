"""Tests for the online ScoringService: serving equivalence, score-table
invalidation, micro-batching, incremental refresh, and model hot-swap."""

import numpy as np
import pytest

from repro.core import Bourne, BourneConfig
from repro.graph import Graph
from repro.serving import GraphStore, ScoringService
from repro.serving.service import score_edge_span, score_service_span


def tiny_config(**overrides):
    base = dict(hidden_dim=8, predictor_hidden=16, subgraph_size=4,
                hop_size=2, epochs=1, eval_rounds=2, batch_size=16, seed=3)
    base.update(overrides)
    return BourneConfig(**base)


def random_topology(seed=7, n=50, d=6, m=120):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return features, np.array(sorted(edges))


@pytest.fixture(scope="module")
def model():
    return Bourne(6, tiny_config())


class TestServingEquivalence:
    def test_incremental_store_scores_bitwise_equal(self, model):
        """The acceptance invariant: a store built by a mutation history
        scores bitwise-identically to a from-scratch Graph."""
        features, edges = random_topology()
        rng = np.random.default_rng(1)

        store = GraphStore(features[:25], influence_radius=2)
        store.add_nodes(features[25:])
        perm = rng.permutation(len(edges))
        for chunk in np.array_split(perm, 5):
            store.add_edges(edges[chunk])
        final = features.copy()
        final[[4, 11, 30]] *= 1.5
        store.update_features([4, 11, 30], final[[4, 11, 30]])

        fresh = Graph(final, edges)
        served = ScoringService(model, store, rounds=2)
        reference = ScoringService(model, fresh, rounds=2)

        incremental = served.score_nodes(range(store.num_nodes))
        scratch = reference.score_nodes(range(fresh.num_nodes))
        np.testing.assert_array_equal(incremental, scratch)

    def test_scores_independent_of_batching(self, model):
        """Per-target RNG streams make scores batch-composition-free."""
        features, edges = random_topology(seed=9, n=30, m=70)
        graph = Graph(features, edges)
        batched = ScoringService(model, graph, rounds=2).score_nodes(range(30))
        one_by_one = ScoringService(model, graph, rounds=2)
        singles = np.array([one_by_one.score_node(i) for i in range(30)])
        np.testing.assert_array_equal(batched, singles)

    def test_refresh_matches_cold_full_rescore(self, model):
        """After mutations, the incremental table equals a cold rescore."""
        features, edges = random_topology(seed=2)
        store = GraphStore(features, edges, influence_radius=2)
        service = ScoringService(model, store, rounds=2)
        service.refresh()

        store.add_edge(0, store.num_nodes - 1)
        drifted = features[3] * -1.0
        store.update_features([3], drifted.reshape(1, -1))
        warm = service.refresh()

        cold = ScoringService(model, store.snapshot(), rounds=2).refresh()
        np.testing.assert_array_equal(warm.scores, cold.scores)
        assert 0 < warm.num_rescored < store.num_nodes


class TestCacheInvalidation:
    def test_edge_insertion_invalidates_neighbourhood_only(self, model):
        """A mutation invalidates score-table entries near it; far
        entries stay table hits."""
        length = 15
        store = GraphStore(np.random.default_rng(0).normal(size=(length, 6)),
                           influence_radius=2)
        store.add_edges(np.array([[i, i + 1] for i in range(length - 1)]))
        service = ScoringService(model, store, rounds=2)
        service.score_nodes(range(length))

        store.add_edge(0, 2)  # dirties only the radius-2 ball around {0, 2}
        far_node = length - 1
        before = service.stats()
        service.score_nodes([far_node])
        after = service.stats()
        assert after["table_hits"] == before["table_hits"] + 1
        assert after["table_misses"] == before["table_misses"]

        service.score_nodes([1])
        assert service.stats()["table_misses"] == after["table_misses"] + 1
        assert service.stats()["table_hits"] == after["table_hits"]


class TestServedEqualsSpanFunctions:
    def test_scores_match_span_functions_across_mutations(self, model):
        """Served node and edge scores are bitwise the pure span
        functions' on a fresh snapshot after every kind of mutation,
        for recomputed answers and table hits alike."""
        features, edges = random_topology(seed=15, n=40, m=60)
        store = GraphStore(features, edges, influence_radius=2,
                           compact_threshold=None)
        service = ScoringService(model, store, rounds=2, max_batch=8,
                                 backend="numpy")
        nodes = [0, 3, 17, 39]
        pairs = [(int(u), int(v)) for u, v in edges[:4]]

        def check():
            snapshot = store.snapshot()
            want_nodes = score_service_span(
                model, snapshot, np.asarray(nodes, dtype=np.int64),
                service.seed, service.rounds, service.max_batch,
                backend="numpy").node_sum / service.rounds
            want_edges = [score_edge_span(
                model, snapshot, u, v, snapshot.edge_id(u, v), service.seed,
                service.rounds, service.max_batch, backend="numpy")[0]
                for u, v in pairs]
            for _ in range(2):  # the second pass reads the score tables
                np.testing.assert_array_equal(service.score_nodes(nodes),
                                              want_nodes)
                assert [service.score_edge(u, v) for u, v in pairs] \
                    == want_edges
            return want_nodes[:4].tolist(), want_edges[:4]

        fresh = check()
        far = next(v for v in range(39, 0, -1) if not store.has_edge(0, v))
        store.add_edge(0, far)
        pairs.append((0, far))
        linked = check()
        store.update_features([0], -features[0:1])
        drifted = check()
        (new,) = store.add_nodes(np.random.default_rng(2).normal(size=(1, 6)))
        store.add_edge(17, int(new))
        nodes.append(int(new))
        pairs.append((17, int(new)))
        grown = check()
        assert store.pending_edges == 2
        store.compact()
        assert check() == grown
        # Each mutation moved the scores it could reach, so stale table
        # answers could not have passed.
        assert linked[1] != fresh[1] and drifted[1] != linked[1]
        assert grown[0] != drifted[0]
        stats = service.stats()
        assert stats["table_hits"] > 0 and stats["edge_table_hits"] > 0


class TestMicroBatching:
    def test_pending_resolved_by_single_flush(self, model):
        features, edges = random_topology(seed=6, n=30, m=60)
        service = ScoringService(model, Graph(features, edges), rounds=2)
        handles = [service.enqueue(i) for i in (1, 5, 9, 5)]
        assert handles[1] is handles[3]  # duplicates share one handle
        with pytest.raises(RuntimeError):
            handles[0].result()
        before = service.stats()["forward_batches"]
        service.flush()
        # 3 distinct targets x 2 rounds fit one forward (max_batch 16)
        assert service.stats()["forward_batches"] == before + 1
        assert all(h.done for h in handles)

    def test_fresh_requests_served_from_table(self, model):
        features, edges = random_topology(seed=6, n=30, m=60)
        service = ScoringService(model, Graph(features, edges), rounds=2)
        first = service.score_node(7)
        before = service.stats()["forward_batches"]
        second = service.score_node(7)
        assert service.stats()["forward_batches"] == before  # no recompute
        assert first == second

    def test_max_batch_splits_forwards(self, model):
        features, edges = random_topology(seed=6, n=30, m=60)
        service = ScoringService(model, Graph(features, edges),
                                 rounds=1, max_batch=8)
        service.score_nodes(range(30))
        assert service.stats()["forward_batches"] == 4  # ceil(30 / 8)

    def test_out_of_range_request_rejected(self, model):
        features, edges = random_topology(seed=6, n=30, m=60)
        service = ScoringService(model, Graph(features, edges), rounds=1)
        with pytest.raises(IndexError):
            service.enqueue(99)


class TestEdgeScoring:
    def test_score_edge_returns_finite(self, model):
        features, edges = random_topology(seed=8, n=30, m=60)
        service = ScoringService(model, Graph(features, edges), rounds=2)
        u, v = edges[0]
        score = service.score_edge(int(u), int(v))
        assert np.isfinite(score)

    def test_missing_edge_rejected(self, model):
        features, edges = random_topology(seed=8, n=30, m=60)
        service = ScoringService(model, Graph(features, edges), rounds=2)
        store = service.store
        pair = next((u, v) for u in range(30) for v in range(u + 1, 30)
                    if not store.has_edge(u, v))
        with pytest.raises(KeyError):
            service.score_edge(*pair)


class TestModelGuards:
    def test_edge_only_mode_rejected(self):
        features, edges = random_topology(seed=5, n=20, m=40)
        model = Bourne(6, tiny_config(mode="edge_only"))
        with pytest.raises(ValueError, match="node-scoring"):
            ScoringService(model, Graph(features, edges))

    def test_feature_mismatch_rejected(self, model):
        with pytest.raises(ValueError, match="features"):
            ScoringService(model, GraphStore(np.zeros((4, 9))))

    def test_small_influence_radius_rejected(self, model):
        store = GraphStore(np.zeros((4, 6)), influence_radius=1)
        with pytest.raises(ValueError, match="influence_radius"):
            ScoringService(model, store)


class TestHotSwap:
    def test_swap_changes_scores_keeps_warm_cache(self, model):
        features, edges = random_topology(seed=10, n=25, m=50)
        service = ScoringService(model, Graph(features, edges), rounds=2)
        old_scores = service.score_nodes(range(25))

        other = Bourne(6, tiny_config(seed=99))
        service.swap_model(other)
        assert service.stats()["table_size"] == 0

        same_sampling = Bourne(6, tiny_config())
        for param in same_sampling.online.parameters():
            param.data = param.data + 0.1  # retrained weights, same sampling
        rewired = ScoringService(model, Graph(features, edges), rounds=2)
        rewired.score_nodes(range(25))
        rewired.swap_model(same_sampling)
        new_scores = rewired.score_nodes(range(25))
        assert not np.array_equal(old_scores, new_scores)

    def test_swap_to_different_seed_matches_fresh_service(self, model):
        """After a hot-swap the service must score exactly like a fresh
        service built on the swapped model (serving seed follows it)."""
        features, edges = random_topology(seed=13, n=20, m=40)
        graph = Graph(features, edges)
        swapped = ScoringService(model, graph, rounds=2)
        swapped.score_nodes(range(20))
        other = Bourne(6, tiny_config(seed=99))
        swapped.swap_model(other)
        fresh = ScoringService(other, Graph(features, edges), rounds=2)
        np.testing.assert_array_equal(swapped.score_nodes(range(20)),
                                      fresh.score_nodes(range(20)))

    def test_plain_graph_wrap_respects_hop_size(self):
        """Auto-wrapping a Graph must size the influence radius to the
        model's hop_size instead of rejecting hop_size > 2 models."""
        features, edges = random_topology(seed=14, n=20, m=40)
        deep = Bourne(6, tiny_config(hop_size=3))
        service = ScoringService(deep, Graph(features, edges), rounds=1)
        assert service.store.influence_radius == 3
        assert np.isfinite(service.score_node(0))

    def test_node_only_mode_served(self):
        """node_only models score deterministically despite the
        forward-time feature mask (per-round RNG streams)."""
        features, edges = random_topology(seed=12, n=25, m=50)
        model = Bourne(6, tiny_config(mode="node_only"))
        graph = Graph(features, edges)
        batched = ScoringService(model, graph, rounds=2).score_nodes(range(25))
        service = ScoringService(model, graph, rounds=2)
        singles = np.array([service.score_node(i) for i in range(25)])
        np.testing.assert_array_equal(batched, singles)
