"""Structural invariants + equivalence suite for the batched sampler.

Covers the vectorized pipeline end to end: the :class:`GraphIndex`
lookups, the :func:`sample_enclosing_subgraphs` batch contract (slot 0
is the target, edges reference valid slots, target edges lead with
distinct parent ids, 1-hop prioritization, seeded determinism, batch
composition independence), the vectorized view batching, lock-step
random walks, and bitwise equivalence of ``score_graph`` across batch
sizes.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from reference_views import (
    batch_graph_views,
    batch_hypergraph_views,
    build_graph_view,
    build_hypergraph_view,
    dense_hypergraph_pools,
    khop_neighbors,
)

from repro.core import Bourne, BourneConfig, score_graph
from repro.core.views import (
    batch_graph_views_from_subgraphs,
    batch_hypergraph_views_from_subgraphs,
    build_batched_views,
)
from repro.graph import (
    Graph,
    GraphIndex,
    derive_target_seeds,
    random_walk_subgraphs,
    sample_enclosing_subgraphs,
)
from repro.serving import GraphStore


def random_graph(seed=0, n=60, d=5, m=130):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return Graph(rng.normal(size=(n, d)), np.array(sorted(edges)))


@pytest.fixture
def graph():
    return random_graph()


class TestGraphIndex:
    def test_lookup_matches_edge_index_dict(self, graph):
        index = graph.index
        reference = graph._build_edge_index()
        lo = graph.edges[:, 0]
        hi = graph.edges[:, 1]
        np.testing.assert_array_equal(
            index.lookup_edge_ids(lo, hi),
            [reference[(int(u), int(v))] for u, v in graph.edges])

    def test_missing_pairs_return_minus_one(self, graph):
        index = graph.index
        missing = [(u, v) for u in range(10) for v in range(u + 1, 10)
                   if not graph.has_edge(u, v)]
        lo = np.array([p[0] for p in missing])
        hi = np.array([p[1] for p in missing])
        assert np.all(index.lookup_edge_ids(lo, hi) == -1)
        assert not index.contains_edges(lo, hi).any()

    def test_neighbors_match_graph(self, graph):
        for node in range(graph.num_nodes):
            np.testing.assert_array_equal(graph.index.neighbors(node),
                                          graph.neighbors(node))

    def test_degrees_match_graph(self, graph):
        np.testing.assert_array_equal(graph.index.degrees, graph.degrees)

    def test_empty_graph(self):
        index = GraphIndex.build(4, np.zeros((0, 2), dtype=np.int64))
        assert index.lookup_edge_ids(np.array([0]), np.array([1]))[0] == -1
        assert len(index.neighbors(2)) == 0

    def test_store_index_uses_insertion_order_ids(self, graph):
        store = GraphStore(graph.features, influence_radius=2)
        order = np.random.default_rng(3).permutation(graph.num_edges)
        store.add_edges(graph.edges[order])
        index = store.index
        for row in order[:20]:
            u, v = graph.edges[row]
            eid = index.lookup_edge_ids(np.array([u]), np.array([v]))[0]
            assert store.edge_key(int(eid)) == (int(u), int(v))

    def test_store_index_invalidated_by_mutation(self, graph):
        store = GraphStore.from_graph(graph, influence_radius=2)
        first = store.index
        assert store.index is first            # cached between mutations
        pair = next((u, v) for u in range(graph.num_nodes)
                    for v in range(u + 1, graph.num_nodes)
                    if not store.has_edge(u, v))
        store.add_edge(*pair)
        second = store.index
        assert second is not first
        assert second.contains_edges(np.array([pair[0]]),
                                     np.array([pair[1]]))[0]


class TestBatchStructure:
    K = 6

    @pytest.fixture
    def batch(self, graph):
        targets = np.arange(graph.num_nodes)
        seeds = derive_target_seeds(99, targets)
        return sample_enclosing_subgraphs(graph, targets, k=2, size=self.K,
                                          target_seeds=seeds)

    def test_slot_zero_is_target_and_sizes_uniform(self, graph, batch):
        assert batch.slots == self.K + 1
        for i, sub in enumerate(batch.views()):
            assert sub.target == i
            assert sub.node_ids[0] == i
            assert sub.num_nodes == self.K + 1

    def test_features_match_slots(self, graph, batch):
        for sub in batch.views():
            np.testing.assert_array_equal(sub.features,
                                          graph.features[sub.node_ids])

    def test_edges_reference_valid_slots_and_parent_edges(self, graph, batch):
        for sub in batch.views():
            assert np.all(sub.edges >= 0)
            assert np.all(sub.edges < sub.num_nodes)
            assert np.all(sub.edges[:, 0] < sub.edges[:, 1])
            for (a, b), orig in zip(sub.edges, sub.edge_orig_ids):
                u, v = int(sub.node_ids[a]), int(sub.node_ids[b])
                assert graph.has_edge(u, v)
                assert graph.edge_id(u, v) == orig

    def test_target_edges_first_with_distinct_parent_ids(self, batch):
        for sub in batch.views():
            mtar = sub.num_target_edges
            assert np.all(sub.edges[:mtar, 0] == 0)
            assert np.all(sub.edges[mtar:, 0] != 0)
            ids = sub.target_edge_orig_ids
            assert len(np.unique(ids)) == len(ids)

    def test_one_hop_prioritized(self, graph, batch):
        for i, sub in enumerate(batch.views()):
            one_hop = set(graph.neighbors(i).tolist())
            if len(one_hop) >= self.K:
                # High-degree targets: context is distinct 1-hop only.
                context = sub.node_ids[1:].tolist()
                assert set(context) <= one_hop
                assert len(set(context)) == self.K
            else:
                # Low-degree targets keep every 1-hop neighbour.
                assert one_hop <= set(sub.node_ids[1:].tolist())

    def test_filler_stays_within_k_hops(self, graph, batch):
        for i, sub in enumerate(batch.views()):
            ball = set(khop_neighbors(graph, i, 2).tolist()) | {i}
            assert set(sub.node_ids.tolist()) <= ball

    def test_seeded_determinism(self, graph, batch):
        targets = np.arange(graph.num_nodes)
        seeds = derive_target_seeds(99, targets)
        again = sample_enclosing_subgraphs(graph, targets, k=2, size=self.K,
                                           target_seeds=seeds)
        np.testing.assert_array_equal(batch.node_ids, again.node_ids)
        np.testing.assert_array_equal(batch.edges, again.edges)
        np.testing.assert_array_equal(batch.edge_orig_ids,
                                      again.edge_orig_ids)

    def test_batch_composition_independence(self, graph, batch):
        """A target's subgraph is identical whether it is sampled alone,
        in a shuffled batch, or with the full node set."""
        targets = np.arange(graph.num_nodes)
        seeds = derive_target_seeds(99, targets)
        picks = [0, 13, 41, graph.num_nodes - 1]
        shuffled = np.array(picks[::-1])
        small = sample_enclosing_subgraphs(
            graph, shuffled, k=2, size=self.K, target_seeds=seeds[shuffled])
        for j, target in enumerate(shuffled):
            alone = sample_enclosing_subgraphs(
                graph, [target], k=2, size=self.K,
                target_seeds=seeds[target:target + 1])
            for sub in (small.view(j), alone.view(0)):
                reference = batch.view(int(target))
                np.testing.assert_array_equal(sub.node_ids,
                                              reference.node_ids)
                np.testing.assert_array_equal(sub.edges, reference.edges)
                assert sub.num_target_edges == reference.num_target_edges

    def test_isolated_target_degenerates_gracefully(self, rng):
        g = Graph(rng.normal(size=(3, 2)), np.array([[1, 2]]))
        batch = sample_enclosing_subgraphs(
            g, [0], k=2, size=3, target_seeds=derive_target_seeds(0, [0]))
        sub = batch.view(0)
        assert sub.num_edges == 0
        assert sub.num_target_edges == 0
        assert np.all(sub.node_ids == 0)

    def test_store_and_graph_sample_identically(self, graph):
        """Same topology, same seeds -> same subgraphs, regardless of
        the mutation history that built the store (edge ids map through
        the store's own numbering)."""
        store = GraphStore(graph.features, influence_radius=2)
        order = np.random.default_rng(8).permutation(graph.num_edges)
        store.add_edges(graph.edges[order])
        targets = np.arange(graph.num_nodes)
        seeds = derive_target_seeds(7, targets)
        from_graph = sample_enclosing_subgraphs(graph, targets, k=2,
                                                size=4, target_seeds=seeds)
        from_store = sample_enclosing_subgraphs(store, targets, k=2,
                                                size=4, target_seeds=seeds)
        np.testing.assert_array_equal(from_graph.node_ids,
                                      from_store.node_ids)
        np.testing.assert_array_equal(from_graph.edges, from_store.edges)
        np.testing.assert_array_equal(from_graph.num_target_edges,
                                      from_store.num_target_edges)

    def test_seed_count_mismatch_rejected(self, graph):
        seeds = derive_target_seeds(0, np.arange(3))
        with pytest.raises(ValueError, match="3 entries for 2 targets"):
            sample_enclosing_subgraphs(graph, [0, 1], k=2, size=4,
                                       target_seeds=seeds)

    def test_empty_batch(self, graph):
        no_seeds = np.zeros(0, dtype=np.uint64)
        batch = sample_enclosing_subgraphs(graph, [], k=2, size=4,
                                           target_seeds=no_seeds)
        assert len(batch) == 0
        assert batch.slots == 0
        assert batch.features.shape == (0, graph.num_features)

    def test_empty_batch_builds_empty_views(self, graph):
        no_seeds = np.zeros(0, dtype=np.uint64)
        batch = sample_enclosing_subgraphs(graph, [], k=2, size=4,
                                           target_seeds=no_seeds)
        gviews, hviews = build_batched_views(batch, no_seeds, augment=False)
        assert gviews.batch_size == 0
        assert gviews.features.shape[0] == 0
        assert len(hviews.context_counts) == 0
        assert len(hviews.zt_rows) == 0


class TestViewEquivalence:
    """Batch-sliced subgraphs must score identically to the per-target
    view path."""

    def test_vectorized_graph_views_match_per_target_path(self, graph):
        targets = np.arange(graph.num_nodes)
        batch = sample_enclosing_subgraphs(
            graph, targets, k=2, size=5,
            target_seeds=derive_target_seeds(3, targets))
        vectorized = batch_graph_views_from_subgraphs(batch)
        reference = batch_graph_views(
            [build_graph_view(sub) for sub in batch.views()])
        np.testing.assert_array_equal(vectorized.features,
                                      reference.features)
        np.testing.assert_array_equal(vectorized.operator,
                                      reference.operator)

    def test_batched_views_score_like_per_target_views(self, graph):
        """Forward scores agree bitwise between the vectorized view
        batching and per-target build + list batching."""
        model = Bourne(graph.num_features, BourneConfig(
            hidden_dim=8, predictor_hidden=16, subgraph_size=5, seed=0))
        targets = np.arange(graph.num_nodes)
        seeds = derive_target_seeds(11, targets)
        batch = sample_enclosing_subgraphs(graph, targets, k=2, size=5,
                                           target_seeds=seeds)
        gv_fast, hv_fast = build_batched_views(batch, seeds, augment=False)
        gv_ref = batch_graph_views([build_graph_view(s)
                                    for s in batch.views()])
        hv_ref = batch_hypergraph_views(
            [build_hypergraph_view(s) for s in batch.views()],
            graph.num_features)
        fast = model.forward_batch(gv_fast, hv_fast)
        ref = model.forward_batch(gv_ref, hv_ref)
        np.testing.assert_array_equal(fast.node_scores.data,
                                      ref.node_scores.data)
        np.testing.assert_array_equal(fast.edge_scores.data,
                                      ref.edge_scores.data)
        np.testing.assert_array_equal(fast.edge_orig_ids, ref.edge_orig_ids)

    def test_lazy_operator_and_pools_match_dense_blocks(self, graph):
        """The reference's CSR operator, built from the flat arrays on
        first access, is the block diagonal of the per-view dense HGNN
        operators (an isolated target's block is one zero row), and its
        pools are the per-view means."""
        graph = Graph(np.vstack([graph.features, np.ones(graph.num_features)]),
                      graph.edges)                  # last node is isolated
        targets = np.arange(20, graph.num_nodes)
        seeds = derive_target_seeds(5, targets)
        batch = sample_enclosing_subgraphs(graph, targets, k=2, size=5,
                                           target_seeds=seeds)
        hviews = batch_hypergraph_views_from_subgraphs(batch, seeds,
                                                       augment=False)
        views = [build_hypergraph_view(sub) for sub in batch.views()]
        assert views[-1] is None
        blocks = sp.block_diag([np.zeros((1, 1)) if view is None
                                else view.operator for view in views],
                               format="csr")
        blocks.eliminate_zeros()
        operator = hviews.operator
        assert operator is hviews.operator          # built once
        assert operator.shape == blocks.shape
        assert operator.nnz == blocks.nnz
        np.testing.assert_array_equal(operator.toarray() != 0,
                                      blocks.toarray() != 0)
        np.testing.assert_allclose(operator.toarray(), blocks.toarray(),
                                   rtol=0, atol=1e-12)
        patch, context = dense_hypergraph_pools(views)
        np.testing.assert_array_equal(hviews.patch_pool.toarray(), patch)
        np.testing.assert_array_equal(hviews.context_pool.toarray(), context)


class TestScoreGraphEquivalence:
    def test_batched_scores_independent_of_batch_size(self, graph):
        """Per-(round, target) seed derivation makes full-graph scoring
        bitwise identical for any batch size (augmentation off)."""
        model = Bourne(graph.num_features, BourneConfig(
            hidden_dim=8, predictor_hidden=16, subgraph_size=4,
            augment_at_inference=False, seed=1))
        whole = score_graph(model, graph, rounds=2, batch_size=graph.num_nodes)
        singles = score_graph(model, graph, rounds=2, batch_size=1)
        np.testing.assert_array_equal(whole.node_scores,
                                      singles.node_scores)
        np.testing.assert_array_equal(whole.edge_scores,
                                      singles.edge_scores)


class TestBatchedRandomWalks:
    def test_start_first_and_shape(self, graph):
        starts = np.arange(20)
        walks = random_walk_subgraphs(graph, starts, size=5,
                                      rng=np.random.default_rng(4))
        assert walks.shape == (20, 5)
        np.testing.assert_array_equal(walks[:, 0], starts)

    def test_visits_are_within_component(self, tiny_graph):
        walks = random_walk_subgraphs(tiny_graph, [0, 3], size=5,
                                      rng=np.random.default_rng(2))
        reachable = set(range(8))
        assert set(walks.reshape(-1).tolist()) <= reachable

    def test_non_start_slots_are_distinct(self, graph):
        walks = random_walk_subgraphs(graph, np.arange(30), size=6,
                                      rng=np.random.default_rng(7))
        for row, start in zip(walks, range(30)):
            body = [n for n in row.tolist() if n != start]
            assert len(body) == len(set(body))

    def test_isolated_start_pads(self, rng):
        g = Graph(rng.normal(size=(3, 2)), np.array([[1, 2]]))
        walks = random_walk_subgraphs(g, [0], size=4, rng=rng)
        np.testing.assert_array_equal(walks, [[0, 0, 0, 0]])

    def test_deterministic_given_rng(self, tiny_graph):
        a = random_walk_subgraphs(tiny_graph, [0, 2, 5], 5,
                                  np.random.default_rng(3))
        b = random_walk_subgraphs(tiny_graph, [0, 2, 5], 5,
                                  np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_matches_per_target_reference_distribution(self, graph):
        """Every lock-step walk stays inside the ball its start can reach
        in ``max_steps`` steps (distributional, not bitwise)."""
        starts = list(range(10))
        batched = random_walk_subgraphs(graph, starts, size=6,
                                        rng=np.random.default_rng(0))
        for start, row in zip(starts, batched):
            ball = set(khop_neighbors(graph, start, 6 * 20).tolist()) | {start}
            assert set(row.tolist()) <= ball
