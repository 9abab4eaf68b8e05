"""The tensor-backend seam: resolution, fused kernels, tolerance, fallback.

The ``numpy`` backend is the bitwise-pinned reference — the golden
digests here freeze the default scoring path.  The ``fused`` backend is
an inference-only float32 fast path that must stay within 1e-5
relative tolerance of the reference on every score and must fall back
(bitwise-equal) on anything outside the fused contract.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import Bourne, BourneConfig, score_graph
from repro.core.views import build_batched_views
from repro.graph import Graph, derive_target_seeds, sample_enclosing_subgraphs
from repro.nn.fused import FusedBackend
from repro.parallel import score_graph_sharded
from repro.serving import GraphStore, ScoringService
from repro.serving.service import score_service_span
from repro.tensor import is_grad_enabled
from repro.tensor.backend import BACKENDS, TensorBackend, resolve_backend

RTOL = 1e-5


def small_graph(seed=0, num_nodes=48, num_edges=110):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        u, v = (int(x) for x in rng.integers(0, num_nodes, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(rng.normal(size=(num_nodes, 6)), np.array(sorted(edges)),
                 name="backend-test")


def tiny_config(**overrides):
    base = dict(hidden_dim=8, predictor_hidden=16, subgraph_size=4,
                hop_size=2, eval_rounds=2, batch_size=16, seed=3,
                augment_at_inference=False)
    base.update(overrides)
    return BourneConfig(**base)


def digest(values):
    """BLAS-drift-tolerant fingerprint of a score vector."""
    return hashlib.sha256(
        np.round(np.asarray(values, dtype=np.float64), 4).tobytes()
    ).hexdigest()


def assert_close(reference, candidate, rtol=RTOL):
    reference = np.asarray(reference)
    candidate = np.asarray(candidate)
    np.testing.assert_allclose(candidate, reference, rtol=rtol, atol=1e-7)


@pytest.fixture(scope="module")
def graph():
    return small_graph()


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert BACKENDS == ("fused", "numpy")
        for name in BACKENDS:
            assert resolve_backend(name).name == name

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown tensor backend"):
            resolve_backend("no-such-backend")

    def test_default_is_the_numpy_reference(self):
        backend = resolve_backend(None)
        assert type(backend) is TensorBackend and backend.name == "numpy"
        assert resolve_backend("numpy") is backend

    def test_resolution_caches_one_instance_per_name(self):
        assert resolve_backend("fused") is resolve_backend("fused")

    def test_instances_pass_through(self):
        backend = FusedBackend()
        assert resolve_backend(backend) is backend


class TestReferencePin:
    """The default path must stay bitwise what it was before the seam."""

    GOLDEN_NODES = (
        "29ae5273074e63e21be6cd49cc144c45c60de5e46932b7b2047c178635d4bee9"
    )
    GOLDEN_EDGES = (
        "9dcf8acc95843f873b6c0c0fcbe2178afe38638e5e418c81fadc9b4c701739e1"
    )

    def test_golden_digests(self, graph):
        model = Bourne(graph.num_features, tiny_config())
        scores = score_graph(model, graph)
        assert digest(scores.node_scores) == self.GOLDEN_NODES
        assert digest(scores.edge_scores) == self.GOLDEN_EDGES

    def test_explicit_numpy_backend_is_bitwise_default(self, graph):
        model = Bourne(graph.num_features, tiny_config())
        default = score_graph(model, graph)
        explicit = score_graph(model, graph, backend="numpy")
        assert np.array_equal(default.node_scores, explicit.node_scores)
        assert np.array_equal(default.edge_scores, explicit.edge_scores)


class TestFusedEquivalence:
    @pytest.mark.parametrize("mode,augment", [
        ("unified", False), ("unified", True),
        ("node_only", False), ("node_only", True),
    ])
    def test_modes_and_augmentation(self, graph, mode, augment):
        config = tiny_config(mode=mode, augment_at_inference=augment)
        model = Bourne(graph.num_features, config)
        reference = score_graph(model, graph)
        fast = score_graph(model, graph, backend="fused")
        assert_close(reference.node_scores, fast.node_scores)
        if reference.edge_scores is not None and len(reference.edge_scores):
            assert_close(reference.edge_scores, fast.edge_scores)

    @pytest.mark.parametrize("batch_size", [5, 16, 64])
    def test_batch_size_sweep(self, graph, batch_size):
        model = Bourne(graph.num_features, tiny_config())
        reference = score_graph(model, graph, batch_size=batch_size)
        fast = score_graph(model, graph, batch_size=batch_size,
                           backend="fused")
        assert_close(reference.node_scores, fast.node_scores)
        assert_close(reference.edge_scores, fast.edge_scores)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sharded_engine_ships_backend_by_name(self, graph, workers):
        model = Bourne(graph.num_features, tiny_config())
        reference = score_graph(model, graph)
        fast = score_graph_sharded(model, graph, workers=workers,
                                   backend="fused")
        assert_close(reference.node_scores, fast.node_scores)
        assert_close(reference.edge_scores, fast.edge_scores)

    def test_workspace_reuse_does_not_corrupt_held_scores(self, graph):
        """Scores returned for one micro-batch must survive the kernel's
        later micro-batches: no forward writes into an array it
        returned earlier."""
        model = Bourne(graph.num_features, tiny_config())
        small = score_graph(model, graph, batch_size=7, backend="fused")
        large = score_graph(model, graph, batch_size=64, backend="fused")
        assert_close(large.node_scores, small.node_scores, rtol=1e-6)
        assert_close(large.edge_scores, small.edge_scores, rtol=1e-6)


class TestFusedHypergraphBranch:
    """The fused kernel runs the HGNN branch from the flat incidence
    arrays on padded float32 stacks."""

    def test_serve_batch_builds_no_sparse_matrix(self, graph, monkeypatch):
        """A serve-shaped batch (8 rounds of 5 nodes at subgraph size
        12) goes through sampling, views and the fused forward without
        constructing a scipy matrix; the reference's CSR stays unbuilt
        until the reference forward asks for it."""
        def refuse(matrix, *args, **kwargs):
            raise AssertionError(f"constructed a {type(matrix).__name__}")

        model = Bourne(graph.num_features, tiny_config(subgraph_size=12))
        nodes = np.arange(5)
        targets = np.tile(nodes, 8)
        seeds = np.concatenate([derive_target_seeds(r, nodes)
                                for r in range(8)])
        backend = FusedBackend()
        for matrix in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix,
                       sp.csr_array, sp.csc_array, sp.coo_array):
            monkeypatch.setattr(matrix, "__init__", refuse)
        gviews, hviews = model.prepare_batch(graph, targets, seeds)
        fast = backend.forward_batch(model, gviews, hviews)
        monkeypatch.undo()
        kernel = backend.kernel_for(model)
        assert kernel.forwards == 1 and kernel.fallbacks == 0
        lazy = {"operator", "patch_pool", "context_pool"}
        assert not lazy & set(vars(hviews))
        reference = model.forward_batch(gviews, hviews)
        assert lazy <= set(vars(hviews))
        assert_close(reference.node_scores.data, fast.node_scores.data)
        assert_close(reference.edge_scores.data, fast.edge_scores.data)

    def test_padding_does_not_leak(self):
        """A view without edges, a view without target edges and the
        batch's largest view score in one padded batch as each does in
        a batch of its own."""
        base = small_graph()
        graph = Graph(np.vstack([base.features, np.ones(base.num_features)]),
                      base.edges)                    # last node is isolated
        config = tiny_config(augment_at_inference=True)
        model = Bourne(graph.num_features, config)

        def views(targets, seeds):
            batch = sample_enclosing_subgraphs(
                graph, targets, k=config.hop_size, size=config.subgraph_size,
                target_seeds=seeds)
            # Node 0's view keeps its edges but loses its target edges:
            # their rows become context rows.
            counts = np.where(targets == 0, 0, batch.num_target_edges)
            batch = dataclasses.replace(batch, num_target_edges=counts)
            return build_batched_views(
                batch, seeds, feature_mask_prob=config.feature_mask_prob,
                incidence_drop_prob=config.incidence_drop_prob)

        everyone = np.arange(graph.num_nodes)
        edge_counts = np.diff(sample_enclosing_subgraphs(
            graph, everyone, k=config.hop_size, size=config.subgraph_size,
            target_seeds=derive_target_seeds(9, everyone)).edge_offsets)
        targets = np.array([graph.num_nodes - 1, 0, int(edge_counts.argmax())])
        seeds = derive_target_seeds(9, targets)
        gviews, hviews = views(targets, seeds)
        assert hviews.context_counts[0] == 0
        assert hviews.target_counts[1] == 0 < hviews.context_counts[1]
        rows = np.diff(hviews.row_offsets)
        assert rows[2] > max(rows[0], rows[1])        # the others are padded

        backend = FusedBackend()
        together = backend.forward_batch(model, gviews, hviews)
        for view in range(3):
            alone = backend.forward_batch(
                model, *views(targets[view:view + 1], seeds[view:view + 1]))
            assert_close(together.node_scores.data[view:view + 1],
                         alone.node_scores.data, rtol=1e-6)
            owned = together.edge_owner == view
            if alone.edge_scores is None:
                assert not owned.any()
            else:
                assert_close(together.edge_scores.data[owned],
                             alone.edge_scores.data, rtol=1e-6)
        reference = model.forward_batch(gviews, hviews)
        assert_close(reference.node_scores.data, together.node_scores.data)
        assert_close(reference.edge_scores.data, together.edge_scores.data)


class TestServiceBackend:
    def test_service_equivalence_and_stats(self, graph):
        config = tiny_config(augment_at_inference=True)
        model = Bourne(graph.num_features, config)
        store = GraphStore.from_graph(graph,
                                      influence_radius=config.hop_size)
        reference = ScoringService(model, store, rounds=2)
        fast = ScoringService(model, store, rounds=2, backend="fused")
        assert reference.stats()["backend"] == "numpy"
        assert fast.stats()["backend"] == "fused"
        nodes = list(range(12))
        assert_close(reference.score_nodes(nodes), fast.score_nodes(nodes))

    def test_service_accepts_backend_instance(self, graph):
        config = tiny_config()
        model = Bourne(graph.num_features, config)
        store = GraphStore.from_graph(graph,
                                      influence_radius=config.hop_size)
        backend = FusedBackend()
        service = ScoringService(model, store, rounds=2, backend=backend)
        assert service.backend is backend


class GradModeRecorder(TensorBackend):
    """Reference forward that records whether gradients were on."""

    name = "grad-mode-recorder"

    def __init__(self):
        self.grad_enabled = []

    def forward_batch(self, model, gviews, hviews, mask_seed=None):
        self.grad_enabled.append(is_grad_enabled())
        return super().forward_batch(model, gviews, hviews, mask_seed=mask_seed)


class TestInferenceRecordsNoGraph:
    """Every scoring surface runs its forwards under ``no_grad``."""

    def test_score_graph(self, graph):
        model = Bourne(graph.num_features, tiny_config())
        recorder = GradModeRecorder()
        score_graph(model, graph, backend=recorder)
        assert recorder.grad_enabled and not any(recorder.grad_enabled)
        assert is_grad_enabled()

    def test_score_service_span(self, graph):
        model = Bourne(graph.num_features, tiny_config())
        recorder = GradModeRecorder()
        score_service_span(model, graph, np.arange(10), seed=4, rounds=2,
                           max_batch=8, backend=recorder)
        assert recorder.grad_enabled and not any(recorder.grad_enabled)

    def test_service_score_nodes(self, graph):
        config = tiny_config()
        model = Bourne(graph.num_features, config)
        store = GraphStore.from_graph(graph,
                                      influence_radius=config.hop_size)
        recorder = GradModeRecorder()
        service = ScoringService(model, store, rounds=2, backend=recorder)
        service.score_nodes(list(range(12)))
        assert recorder.grad_enabled and not any(recorder.grad_enabled)


class TestFallbacks:
    def fused_kernel(self, backend, model):
        return backend.kernel_for(model)

    @pytest.mark.parametrize("config_kwargs", [
        dict(mode="edge_only"),
    ])
    def test_unsupported_models_fall_back_bitwise(self, graph, config_kwargs):
        model = Bourne(graph.num_features, tiny_config(**config_kwargs))
        reference = score_graph(model, graph)
        backend = FusedBackend()
        fast = score_graph(model, graph, backend=backend)
        assert np.array_equal(np.asarray(reference.node_scores, dtype=float),
                              np.asarray(fast.node_scores, dtype=float))
        kernel = self.fused_kernel(backend, model)
        assert kernel.fallbacks > 0
        assert kernel.forwards == 0

    @pytest.mark.parametrize("backend", ["numpy", "fused"])
    @pytest.mark.parametrize("mode", ["unified", "node_only", "edge_only"])
    def test_empty_target_list_forwards(self, graph, backend, mode):
        """The empty-batch fallback: no views, no scores, no error."""
        model = Bourne(graph.num_features, tiny_config(mode=mode))
        no_seeds = np.zeros(0, dtype=np.uint64)
        gviews, hviews = model.prepare_batch(graph, [], no_seeds)
        scores = resolve_backend(backend).forward_batch(
            model, gviews, hviews, mask_seed=no_seeds)
        if mode == "edge_only":
            assert scores.node_scores is None
        else:
            assert scores.node_scores.shape == (0,)
        assert scores.edge_scores is None
        assert len(scores.edge_owner) == len(scores.edge_orig_ids) == 0

    def test_supported_model_runs_fused_not_fallback(self, graph):
        model = Bourne(graph.num_features, tiny_config())
        backend = FusedBackend()
        score_graph(model, graph, backend=backend)
        kernel = self.fused_kernel(backend, model)
        assert kernel.forwards > 0
        assert kernel.fallbacks == 0

    def test_weight_rebind_triggers_recompile(self, graph):
        model = Bourne(graph.num_features, tiny_config())
        backend = FusedBackend()
        score_graph(model, graph, backend=backend)
        kernel = self.fused_kernel(backend, model)
        assert kernel.recompiles == 1

        # Adam/EMA rebind param.data rather than writing in place; the
        # kernel must notice and recompile onto the new weights.
        for param in model.online.parameters():
            param.data = param.data * 1.01
        reference = score_graph(model, graph)
        fast = score_graph(model, graph, backend=backend)
        assert kernel.recompiles == 2
        assert_close(reference.node_scores, fast.node_scores)
