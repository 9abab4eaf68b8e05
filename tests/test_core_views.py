"""Unit tests for BOURNE's view construction (Eq. 1–2, 7–8, Γ1/Γ2).

Layout checks run on the dense per-target oracle
(:mod:`reference_views`); the Γ1/Γ2 checks run on the library's
counter-based augmentation.
"""

import numpy as np
import pytest
from reference_views import (
    batch_graph_views,
    batch_hypergraph_views,
    build_graph_view,
    build_hypergraph_view,
    sample_subgraph,
)

from repro.core.views import (
    batch_hypergraph_views_from_subgraphs,
    seeded_forward_mask_draws,
)
from repro.graph import Graph, derive_target_seeds, sample_enclosing_subgraphs


@pytest.fixture
def subgraph(tiny_graph):
    return sample_subgraph(tiny_graph, 2, k=2, size=5)


class TestGraphView:
    def test_anonymization_layout(self, subgraph):
        view = build_graph_view(subgraph)
        ns = subgraph.num_nodes
        assert view.features.shape == (ns + 1, subgraph.features.shape[1])
        # Slot 0 (target inside subgraph) is zeroed (Eq. 1).
        np.testing.assert_array_equal(view.features[0], 0.0)
        # The appended row carries the raw target features.
        np.testing.assert_array_equal(view.features[ns], subgraph.features[0])
        # Context rows unchanged.
        np.testing.assert_array_equal(view.features[1:ns], subgraph.features[1:])

    def test_index_conventions(self, subgraph):
        view = build_graph_view(subgraph)
        assert view.patch_row == 0
        assert view.target_row == subgraph.num_nodes
        assert view.num_context_rows == subgraph.num_nodes

    def test_isolated_copy_not_connected(self, subgraph):
        view = build_graph_view(subgraph)
        ns = subgraph.num_nodes
        op = np.asarray(view.operator)
        # Eq. 2: the appended row interacts only with itself.
        assert np.count_nonzero(op[ns, :ns]) == 0
        assert np.count_nonzero(op[:ns, ns]) == 0
        assert op[ns, ns] > 0

    def test_operator_shape(self, subgraph):
        view = build_graph_view(subgraph)
        n = subgraph.num_nodes + 1
        assert view.operator.shape == (n, n)


class TestAugmentations:
    def test_mask_features_zeroes_columns(self):
        keep = seeded_forward_mask_draws(40, 0.5, 7)
        assert keep.shape == (1, 40) and keep.dtype == bool
        assert 0 < (~keep).sum() < 40
        per_view = seeded_forward_mask_draws(40, 0.5, [7, 8])
        np.testing.assert_array_equal(per_view[0], keep[0])
        assert not np.array_equal(per_view[0], per_view[1])

    def test_mask_features_zero_prob_identity(self):
        assert seeded_forward_mask_draws(4, 0.0, 7) is None
        with pytest.raises(ValueError, match="mask_seed"):
            seeded_forward_mask_draws(4, 0.0, None)

    @staticmethod
    def _hypergraph_views(graph, drop, augment=True):
        targets = np.arange(graph.num_nodes)
        seeds = derive_target_seeds(5, targets)
        batch = sample_enclosing_subgraphs(graph, targets, k=2, size=5,
                                           target_seeds=seeds)
        return batch_hypergraph_views_from_subgraphs(
            batch, seeds, feature_mask_prob=0.0, incidence_drop_prob=drop,
            augment=augment)

    def test_perturb_incidence_drops_entries(self, tiny_graph):
        kept = self._hypergraph_views(tiny_graph, 0.0)
        perturbed = self._hypergraph_views(tiny_graph, 0.5)
        assert perturbed.operator.nnz < kept.operator.nnz
        # Γ2 drops incidence entries only: the dual-node count is constant.
        assert perturbed.operator.shape == kept.operator.shape
        assert perturbed.features.shape == kept.features.shape

    def test_perturb_incidence_zero_prob_identity(self, tiny_graph):
        kept = self._hypergraph_views(tiny_graph, 0.0)
        plain = self._hypergraph_views(tiny_graph, 0.5, augment=False)
        np.testing.assert_array_equal(kept.operator.toarray(),
                                      plain.operator.toarray())
        np.testing.assert_array_equal(kept.features, plain.features)


class TestHypergraphView:
    def test_layout(self, subgraph):
        view = build_hypergraph_view(subgraph)
        ms, mtar = subgraph.num_edges, subgraph.num_target_edges
        assert view.features.shape[0] == ms + mtar
        # Eq. 7: first Mtar rows (anonymized target edges) are zero.
        np.testing.assert_array_equal(view.features[:mtar], 0.0)
        assert view.num_target_edges == mtar
        assert view.num_context_rows == ms

    def test_appended_rows_carry_raw_edge_features(self, subgraph):
        view = build_hypergraph_view(subgraph)
        ms, mtar = subgraph.num_edges, subgraph.num_target_edges
        for t in range(mtar):
            a, b = subgraph.edges[t]
            expected = 0.5 * (subgraph.features[a] + subgraph.features[b])
            np.testing.assert_allclose(view.features[ms + t], expected)

    def test_operator_isolates_copies(self, subgraph):
        view = build_hypergraph_view(subgraph)
        ms, mtar = subgraph.num_edges, subgraph.num_target_edges
        op = np.asarray(view.operator)
        # Eq. 8: identity block → copies only touch themselves.
        for t in range(mtar):
            row = op[ms + t]
            assert np.count_nonzero(row[:ms]) == 0

    def test_edgeless_subgraph_returns_none(self, rng):
        g = Graph(rng.normal(size=(3, 2)), np.array([[1, 2]]))
        sub = sample_subgraph(g, 0, k=2, size=3)
        assert build_hypergraph_view(sub) is None

    def test_edge_orig_ids_preserved(self, subgraph):
        view = build_hypergraph_view(subgraph)
        np.testing.assert_array_equal(view.edge_orig_ids,
                                      subgraph.target_edge_orig_ids)


class TestBatching:
    def test_graph_batch_indices(self, tiny_graph):
        subs = [sample_subgraph(tiny_graph, t, 2, 4)
                for t in (0, 3, 6)]
        views = [build_graph_view(s) for s in subs]
        batch = batch_graph_views(views)
        assert batch.batch_size == 3
        size = views[0].features.shape[0]
        assert batch.features.shape[0] == 3 * size
        assert batch.operator.shape == (3, size, size)
        # The last row of every view is the raw target copy.
        rows = batch.features.reshape(3, size, -1)
        for sub, last in zip(subs, rows[:, -1]):
            np.testing.assert_array_equal(last, sub.features[0])

    def test_hypergraph_batch_owners(self, tiny_graph):
        subs = [sample_subgraph(tiny_graph, t, 2, 4)
                for t in (0, 2)]
        views = [build_hypergraph_view(s) for s in subs]
        batch = batch_hypergraph_views(views, tiny_graph.num_features)
        assert len(batch.zt_rows) == sum(v.num_target_edges for v in views)
        assert set(batch.edge_owner.tolist()) <= {0, 1}
        assert np.all(batch.context_counts > 0)

    def test_hypergraph_batch_handles_none(self, tiny_graph):
        sub = sample_subgraph(tiny_graph, 0, 2, 4)
        view = build_hypergraph_view(sub)
        batch = batch_hypergraph_views([None, view], tiny_graph.num_features)
        assert batch.context_counts[0] == 0
        assert batch.context_counts[1] > 0
        assert np.all(batch.edge_owner == 1)

    def test_edge_patch_rows_align_with_zt_rows(self, tiny_graph):
        sub = sample_subgraph(tiny_graph, 2, 2, 5)
        view = build_hypergraph_view(sub)
        batch = batch_hypergraph_views([view], tiny_graph.num_features)
        assert len(batch.edge_patch_rows) == len(batch.zt_rows)
        # Patch rows are the anonymized leading rows (offset 0 here).
        np.testing.assert_array_equal(batch.edge_patch_rows,
                                      np.arange(view.num_target_edges))
