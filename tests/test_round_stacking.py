"""Round-stacked scoring: one forward covers a chunk of targets across
every round, bitwise what a per-round loop gives.

Also pins the pieces that make the stacking exact: the fixed-geometry
float64 products (scores independent of how many rows share a BLAS
call), the vectorized edge-evidence replay, one stream scheme for the
service and ``score_graph``, and a worker pool that forks no resource
trackers of its own.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core import Bourne, BourneConfig, score_graph
from repro.core.scoring import (
    RoundEvidence,
    concat_round_parts,
    inference_round_streams,
    mean_edge_rounds,
    score_target_span,
)
from repro.graph import Graph
from repro.graph.index import derive_target_seeds
from repro.serving import ScoringService
from repro.serving.service import score_service_span
from repro.tensor.autograd import ROW_TILE, tiled_matmul
from repro.tensor.backend import TensorBackend

ROUNDS = 3


def random_graph(seed=0, num_nodes=40, num_edges=90, dim=5):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        u, v = (int(x) for x in rng.integers(0, num_nodes, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(rng.normal(size=(num_nodes, dim)), np.array(sorted(edges)))


def small_config(**overrides):
    base = dict(hidden_dim=8, predictor_hidden=16, subgraph_size=4,
                hop_size=2, eval_rounds=ROUNDS, batch_size=16, seed=5)
    base.update(overrides)
    return BourneConfig(**base)


class CountingBackend(TensorBackend):
    """The numpy reference, recording how many views each forward gets."""

    name = "test-counting"

    def __init__(self):
        self.views = []

    def forward_batch(self, model, gviews, hviews, mask_seed=None):
        self.views.append(gviews.batch_size)
        return super().forward_batch(model, gviews, hviews,
                                     mask_seed=mask_seed)


def per_round_reference(model, graph, targets, round_bases, mask_seeds,
                        batch_size):
    """The loop the stacked one replaces: every round, micro-batches of
    ``batch_size`` targets, one forward each with the round's mask."""
    augment = model.config.augment_at_inference
    evidence = RoundEvidence(node_sum=np.zeros(len(targets)),
                             node_count=np.zeros(len(targets)))
    for base, mask_seed in zip(round_bases, mask_seeds):
        parts_ids, parts_vals = [], []
        for offset in range(0, len(targets), batch_size):
            chunk = targets[offset:offset + batch_size]
            gviews, hviews = model.prepare_batch(
                graph, chunk, augment=augment,
                target_seeds=derive_target_seeds(base, chunk))
            scores = model.forward_batch(gviews, hviews,
                                         mask_seed=int(mask_seed))
            if scores.node_scores is not None:
                evidence.node_sum[offset:offset + len(chunk)] += \
                    scores.node_scores.data
                evidence.node_count[offset:offset + len(chunk)] += 1
            if scores.edge_scores is not None and len(scores.edge_orig_ids):
                parts_ids.append(np.asarray(scores.edge_orig_ids))
                parts_vals.append(scores.edge_scores.data)
        ids, vals = concat_round_parts(parts_ids, parts_vals)
        evidence.edge_ids.append(ids)
        evidence.edge_vals.append(vals)
    return evidence


def assert_evidence_equal(got, expected):
    np.testing.assert_array_equal(got.node_sum, expected.node_sum)
    np.testing.assert_array_equal(got.node_count, expected.node_count)
    assert len(got.edge_ids) == len(expected.edge_ids)
    for ids, vals, ref_ids, ref_vals in zip(got.edge_ids, got.edge_vals,
                                            expected.edge_ids,
                                            expected.edge_vals):
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(vals, ref_vals)


@pytest.fixture(scope="module")
def graph():
    return random_graph()


class TestStackedLoop:
    @pytest.mark.parametrize("mode", ["unified", "node_only"])
    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("max_batch", [1, ROUNDS - 1, ROUNDS, 256])
    def test_matches_per_round_loop(self, graph, mode, augment, max_batch):
        model = Bourne(graph.num_features, small_config(
            mode=mode, augment_at_inference=augment))
        bases, masks = inference_round_streams(model.config, ROUNDS, 21)
        targets = np.arange(graph.num_nodes, dtype=np.int64)[::-1].copy()
        stacked = score_target_span(model, targets, graph, bases, masks,
                                    max_batch)
        reference = per_round_reference(model, graph, targets, bases, masks,
                                        max_batch)
        assert_evidence_equal(stacked, reference)

    @pytest.mark.parametrize("max_batch,forwards", [
        (1, 40 * ROUNDS), (ROUNDS - 1, 40 * 2), (ROUNDS, 40),
        (10, 14), (256, 1)])
    def test_no_forward_exceeds_max_batch(self, graph, max_batch, forwards):
        model = Bourne(graph.num_features, small_config())
        bases, masks = inference_round_streams(model.config, ROUNDS, 0)
        backend = CountingBackend()
        evidence = score_target_span(
            model, np.arange(graph.num_nodes), graph, bases, masks, max_batch,
            backend=backend)
        assert max(backend.views) <= max_batch
        assert sum(backend.views) == graph.num_nodes * ROUNDS
        assert len(backend.views) == evidence.forward_batches == forwards


class TestServiceMatchesScoreGraph:
    @pytest.mark.parametrize("mode", ["unified", "node_only"])
    def test_node_and_edge_scores_bitwise(self, graph, mode):
        model = Bourne(graph.num_features, small_config(mode=mode))
        offline = score_graph(model, graph, seed=4)
        service = ScoringService(model, graph, seed=4, max_batch=7)
        served = service.score_nodes(range(graph.num_nodes))
        np.testing.assert_array_equal(served, offline.node_scores)
        if mode == "node_only":
            return
        matched = 0
        for eid, (u, v) in enumerate(graph.edges[:30]):
            imputed_before = service.stats()["edge_imputations"]
            score = service.score_edge(int(u), int(v))
            if service.stats()["edge_imputations"] == imputed_before:
                assert score == offline.edge_scores[eid]
                matched += 1
        assert matched > 0

    def test_default_seed_is_score_graph_default(self, graph):
        model = Bourne(graph.num_features, small_config())
        served = ScoringService(model, graph).score_nodes(range(8))
        np.testing.assert_array_equal(served,
                                      score_graph(model, graph).node_scores[:8])

    def test_span_function_matches_cached_service(self, graph):
        model = Bourne(graph.num_features, small_config())
        service = ScoringService(model, graph, seed=9, max_batch=5)
        warm = service.score_nodes(range(12))
        again = service.score_nodes(range(12), _force=True)   # recomputed
        pure = score_service_span(model, graph, np.arange(12), 9, ROUNDS, 64)
        np.testing.assert_array_equal(warm, again)
        np.testing.assert_array_equal(warm, pure.node_sum / ROUNDS)


class TestFixedGeometryProducts:
    def test_rows_independent_of_row_count(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3 * ROW_TILE + 5, 512))
        b = rng.normal(size=(512, 64))
        full = tiled_matmul(a, b)
        np.testing.assert_allclose(full, a @ b, rtol=1e-12, atol=1e-12)
        for rows in (1, 7, ROW_TILE, ROW_TILE + 1, 2 * ROW_TILE):
            np.testing.assert_array_equal(tiled_matmul(a[:rows], b),
                                          full[:rows])
        np.testing.assert_array_equal(tiled_matmul(a[90:], b), full[90:])

    def test_default_predictor_width_is_layout_invariant(self):
        """predictor_hidden=512 puts K=512 into the predictor's second
        product, where dgemm rounding depends on the call's row count."""
        graph = random_graph(seed=1, num_nodes=300, num_edges=900)
        model = Bourne(5, BourneConfig(hidden_dim=8, predictor_hidden=512,
                                       subgraph_size=4, eval_rounds=2))
        serial = score_graph(model, graph)
        for other in (score_graph(model, graph, batch_size=8),
                      score_graph(model, graph, workers=2)):
            np.testing.assert_array_equal(other.node_scores,
                                          serial.node_scores)
            np.testing.assert_array_equal(other.edge_scores,
                                          serial.edge_scores)


def mean_edge_rounds_dict(rounds, spans):
    """The per-edge Python dict replay the vectorized version replaced."""
    sums, counts = {}, {}
    for round_index in range(rounds):
        for span in spans:
            for eid, value in zip(span.edge_ids[round_index],
                                  span.edge_vals[round_index]):
                eid = int(eid)
                sums[eid] = sums.get(eid, 0.0) + float(value)
                counts[eid] = counts.get(eid, 0) + 1
    return {eid: total / counts[eid] for eid, total in sums.items()}


class TestMeanEdgeRounds:
    def test_matches_dict_replay_on_random_spans(self):
        rng = np.random.default_rng(3)
        rounds = 4
        spans = []
        for _ in range(3):
            span = RoundEvidence(node_sum=np.zeros(1), node_count=np.zeros(1))
            for _ in range(rounds):
                size = int(rng.integers(0, 12))
                span.edge_ids.append(rng.integers(0, 9, size=size))
                span.edge_vals.append(rng.normal(size=size) * 1e3)
            spans.append(span)
        got = mean_edge_rounds(rounds, spans)
        expected = mean_edge_rounds_dict(rounds, spans)
        assert got.keys() == expected.keys()
        for eid, mean in expected.items():
            assert got[eid] == mean

    def test_matches_dict_replay_on_scored_evidence(self, graph):
        model = Bourne(graph.num_features, small_config())
        spans = [score_service_span(model, graph, np.arange(lo, lo + 10), 2,
                                    ROUNDS, 8) for lo in (0, 10, 20)]
        assert mean_edge_rounds(ROUNDS, spans) == \
            mean_edge_rounds_dict(ROUNDS, spans)

    def test_empty(self):
        span = RoundEvidence(node_sum=np.zeros(0), node_count=np.zeros(0),
                             edge_ids=[np.zeros(0, dtype=np.int64)],
                             edge_vals=[np.zeros(0)])
        assert mean_edge_rounds(1, [span]) == {}


TRACKER_SCRIPT = textwrap.dedent("""
    import os
    import numpy as np
    from repro.core import Bourne, BourneConfig, score_graph
    from repro.graph import Graph
    from repro.parallel import WorkerPool

    rng = np.random.default_rng(0)
    graph = Graph(rng.normal(size=(20, 3)),
                  np.array([[i, i + 1] for i in range(19)]))
    model = Bourne(3, BourneConfig(hidden_dim=4, predictor_hidden=8,
                                   subgraph_size=3, eval_rounds=1))
    with WorkerPool(2) as pool:
        pool.run(abs, [0, 1])          # fork before any shared memory
        score_graph(model, graph, workers=2, pool=pool)
        workers = set(pool.pids)
        children = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children += ppid in workers
        print(len(workers), children)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the process tree from /proc")
def test_pool_workers_start_no_resource_tracker():
    """A fresh interpreter, so no earlier test has started the tracker."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", TRACKER_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["2", "0"]
    assert "resource_tracker" not in result.stderr
