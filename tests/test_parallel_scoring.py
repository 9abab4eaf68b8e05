"""Sharded multi-process scoring: bitwise equality, edge cases, crashes.

The engine's contract is that sharding is *unobservable*: any worker
count (``4 × workers`` even shards) and any forward batch size merge
to the exact bits the serial batched path produces (augmentation off;
``node_only``'s counter-based forward mask included).  These tests pin that contract plus the even
split's partition invariants, the worker pool's task surface, the
shared-memory round trip, worker-crash propagation, and the pool's
replacement of a dead worker with a rerun of the tasks it lost.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import Bourne, BourneConfig, score_graph
from repro.core.views import seeded_mask_features
from repro.graph import Graph, GraphIndex
from repro.parallel import (
    SharedGraphExport,
    WorkerPool,
    attach_shared_graph,
    even_shards,
    score_graph_sharded,
    service_refresh_scores,
)
from repro.parallel.engine import SHARDS_PER_WORKER
from repro.serving import ScoringService


def small_graph(seed=0, num_nodes=48, num_edges=110):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        u, v = (int(x) for x in rng.integers(0, num_nodes, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(rng.normal(size=(num_nodes, 6)), np.array(sorted(edges)),
                 name="parallel-test")


def tiny_config(**overrides):
    base = dict(hidden_dim=8, predictor_hidden=16, subgraph_size=4,
                hop_size=2, eval_rounds=2, batch_size=16, seed=3,
                augment_at_inference=False)
    base.update(overrides)
    return BourneConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return small_graph()


@pytest.fixture(scope="module")
def model(graph):
    return Bourne(graph.num_features, tiny_config())


@pytest.fixture(scope="module")
def serial_scores(model, graph):
    return score_graph(model, graph)


class TestBitwiseEquality:
    @pytest.mark.parametrize("workers,batch_size", [(2, None), (3, 7)])
    def test_matches_serial(self, model, graph, serial_scores, workers,
                            batch_size):
        result = score_graph(model, graph, workers=workers,
                             batch_size=batch_size)
        np.testing.assert_array_equal(result.node_scores,
                                      serial_scores.node_scores)
        np.testing.assert_array_equal(result.edge_scores,
                                      serial_scores.edge_scores)
        np.testing.assert_array_equal(result.node_rounds,
                                      serial_scores.node_rounds)
        np.testing.assert_array_equal(result.edge_rounds,
                                      serial_scores.edge_rounds)

    def test_single_worker_pool(self, model, graph, serial_scores):
        one = score_graph_sharded(model, graph, workers=1)
        np.testing.assert_array_equal(one.node_scores,
                                      serial_scores.node_scores)
        np.testing.assert_array_equal(one.edge_scores,
                                      serial_scores.edge_scores)

    def test_more_shards_than_targets(self):
        """5 nodes on 2 workers make 8 shards, 3 of them empty; the
        merge must ignore them."""
        tiny = small_graph(seed=4, num_nodes=5, num_edges=6)
        assert tiny.num_nodes < SHARDS_PER_WORKER * 2
        model = Bourne(tiny.num_features, tiny_config())
        serial = score_graph(model, tiny)
        result = score_graph(model, tiny, workers=2)
        np.testing.assert_array_equal(result.node_scores, serial.node_scores)
        np.testing.assert_array_equal(result.edge_scores, serial.edge_scores)


def targets_past_the_end(graph, shard, workers=2):
    """Every target id of ``graph``, with the first id of ``shard`` (of
    the ``4 × workers`` even shards) replaced by one past the end: that
    shard's worker fails with ``IndexError``."""
    targets = np.arange(graph.num_nodes)
    plan = even_shards(len(targets), SHARDS_PER_WORKER * workers)
    targets[plan[shard][0]] = graph.num_nodes
    return targets


class TestCrashPropagation:
    def test_worker_exception_reaches_parent(self, model, graph):
        service = ScoringService(model, graph.copy(), rounds=2)
        with pytest.raises(RuntimeError, match="shard 2 .*out of bounds"):
            service_refresh_scores(service, targets_past_the_end(graph, 2),
                                   workers=2)

    def test_failure_does_not_leak_shared_memory(self, model, graph,
                                                 no_shm_leak):
        # The engine unlinks its segments even on worker failure; a
        # subsequent run must start clean and still be bitwise-correct.
        service = ScoringService(model, graph.copy(), rounds=2)
        with no_shm_leak(), pytest.raises(RuntimeError):
            service_refresh_scores(service, targets_past_the_end(graph, 0),
                                   workers=2)
        serial = score_graph(model, graph)
        again = score_graph(model, graph, workers=2)
        np.testing.assert_array_equal(again.node_scores, serial.node_scores)


class TestNodeOnlyMask:
    def test_seeded_mask_deterministic(self):
        features = np.ones((5, 32))
        one = seeded_mask_features(features, 0.5, 12345)
        two = seeded_mask_features(features, 0.5, 12345)
        np.testing.assert_array_equal(one, two)
        other = seeded_mask_features(features, 0.5, 54321)
        assert not np.array_equal(one, other)
        # prob=0 is the identity (and returns the input array itself)
        assert seeded_mask_features(features, 0.0, 7) is features

    def test_node_only_invariant_to_batch_and_shards(self, graph):
        """The forward mask is per-round counter-based, so augmented
        node_only inference no longer depends on batch size or on
        sharding (the ROADMAP follow-up this PR closes)."""
        config = tiny_config(mode="node_only", augment_at_inference=True,
                             eval_rounds=2)
        model = Bourne(graph.num_features, config)
        small = score_graph(model, graph, batch_size=7)
        large = score_graph(model, graph, batch_size=64)
        np.testing.assert_array_equal(small.node_scores, large.node_scores)
        sharded = score_graph(model, graph, workers=3)
        np.testing.assert_array_equal(small.node_scores, sharded.node_scores)


class TestShardPlanner:
    """The even split every sharded engine plans its shards with."""

    def test_contiguous_partition(self):
        assert even_shards(10, 3) == [(0, 3), (3, 6), (6, 10)]
        for num_targets in range(12):
            for shards in range(1, 9):
                plan = even_shards(num_targets, shards)
                assert len(plan) == shards
                assert plan[0][0] == 0 and plan[-1][1] == num_targets
                assert all(prev[1] == nxt[0]
                           for prev, nxt in zip(plan, plan[1:]))
                sizes = [stop - start for start, stop in plan]
                assert max(sizes) - min(sizes) <= 1

    def test_empty_shards_allowed(self):
        plan = even_shards(2, 5)
        assert [stop - start for start, stop in plan].count(0) == 3

    def test_zero_targets(self):
        assert even_shards(0, 4) == [(0, 0)] * 4

    def test_bad_shard_counts(self, model, graph):
        for shards in (0, -1):
            with pytest.raises(ValueError, match="shards"):
                even_shards(5, shards)
        with pytest.raises(ValueError, match="workers"):
            score_graph_sharded(model, graph, workers=0)


def _worker_pid(_task) -> int:
    return os.getpid()


class TestWorkerPool:
    def test_submit_runs_on_a_pool_worker(self):
        with WorkerPool(2) as pool:
            assert pool.pids == []  # workers start with the first task
            future = pool.submit(_worker_pid, None)
            assert future.result(timeout=60) in pool.pids

    def test_close_without_wait_leaves_running_task_behind(self):
        """``close(wait=False)`` returns while a task still runs — the
        lifecycle controller's abandon-on-shutdown path."""
        pool = WorkerPool(1)
        future = pool.submit(time.sleep, 2.0)
        deadline = time.monotonic() + 60
        while not future.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        started = time.perf_counter()
        pool.close(wait=False)
        assert time.perf_counter() - started < 1.0
        assert not future.done()
        assert future.result(timeout=60) is None  # it ran to completion
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_worker_pid, None)


def _die_once(task):
    """Return the task's value; the first call to run, in any process,
    kills its worker (``marker`` records that one has died)."""
    marker, value = task
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return value
    os._exit(1)


def _exit_if_negative(value: int) -> int:
    if value < 0:
        os._exit(1)
    return value


class TestWorkerRespawn:
    """A dead worker is replaced and the tasks it lost rerun once."""

    def test_lost_tasks_rerun_once_on_fresh_workers(self, tmp_path):
        marker = str(tmp_path / "died")
        with WorkerPool(2) as pool:
            results = pool.run(_die_once, [(marker, n) for n in range(4)])
            assert results == [0, 1, 2, 3]
            assert pool.respawns == 1

    def test_task_lost_twice_names_its_shard(self):
        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError,
                               match=r"shard 0 \(of 1\).*terminated abruptly"):
                pool.run(_exit_if_negative, [-1])
            assert pool.respawns == 1
            assert pool.run(abs, [-3, 4]) == [3, 4]
            assert pool.respawns == 2

    def test_persistent_pool_scores_after_idle_worker_dies(
            self, model, graph, serial_scores, no_shm_leak):
        with no_shm_leak():
            with WorkerPool(2) as pool:
                pool.run(abs, [0, 1])
                killed = pool.pids[0]
                os.kill(killed, signal.SIGKILL)
                result = score_graph(model, graph, workers=2, pool=pool)
                assert pool.respawns == 1
                assert killed not in pool.pids
        np.testing.assert_array_equal(result.node_scores,
                                      serial_scores.node_scores)
        np.testing.assert_array_equal(result.edge_scores,
                                      serial_scores.edge_scores)


class TestSharedGraph:
    def test_roundtrip(self, graph):
        export = SharedGraphExport.create(graph.features, graph.index)
        try:
            attached = attach_shared_graph(export.spec)
            np.testing.assert_array_equal(attached.features, graph.features)
            assert attached.num_nodes == graph.num_nodes
            assert attached.num_edges == graph.num_edges
            np.testing.assert_array_equal(attached.index.indptr,
                                          graph.index.indptr)
            np.testing.assert_array_equal(attached.index.neighbors(0),
                                          graph.neighbors(0))
            assert not attached.features.flags.writeable
            attached.close()
        finally:
            export.destroy()
            export.destroy()  # idempotent

    def test_index_export_roundtrip(self, graph):
        arrays = graph.index.to_arrays()
        rebuilt = GraphIndex.from_arrays(**arrays)
        np.testing.assert_array_equal(rebuilt.edge_keys, graph.index.edge_keys)
        lo, hi = graph.edges[:, 0], graph.edges[:, 1]
        np.testing.assert_array_equal(rebuilt.lookup_edge_ids(lo, hi),
                                      np.arange(graph.num_edges))


class TestServiceShardedRefresh:
    def test_refresh_matches_serial_bitwise(self, graph):
        config = tiny_config(eval_rounds=2)
        model = Bourne(graph.num_features, config)
        serial = ScoringService(model, graph.copy(), rounds=2)
        sharded = ScoringService(model, graph.copy(), rounds=2)
        expected = serial.refresh()
        result = sharded.refresh(workers=2)
        np.testing.assert_array_equal(result.scores, expected.scores)
        np.testing.assert_array_equal(result.rescored, expected.rescored)
        # Stats reflect the drained miss queue.
        assert sharded.stats()["nodes_scored"] == graph.num_nodes
        assert sharded.stats()["forward_batches"] > 0

    def test_refresh_after_mutation_matches_serial(self, graph):
        config = tiny_config(eval_rounds=2)
        model = Bourne(graph.num_features, config)
        serial = ScoringService(model, graph.copy(), rounds=2)
        sharded = ScoringService(model, graph.copy(), rounds=2)
        serial.refresh()
        sharded.refresh(workers=2)
        for service in (serial, sharded):
            service.store.add_edge(0, graph.num_nodes - 1)
        expected = serial.refresh()
        result = sharded.refresh(workers=2)
        np.testing.assert_array_equal(result.rescored, expected.rescored)
        np.testing.assert_array_equal(result.scores, expected.scores)
        # A feature write at a degree-1 node stales fewer nodes than the
        # 8 shards of a 2-worker refresh, so some shards are empty.
        node = int(np.argmin(np.diff(graph.index.indptr)))
        for service in (serial, sharded):
            service.store.update_features(
                [node], service.store.features[[node]] + 1.0)
        expected = serial.refresh()
        assert 0 < len(expected.rescored) < SHARDS_PER_WORKER * 2
        result = sharded.refresh(workers=2)
        np.testing.assert_array_equal(result.rescored, expected.rescored)
        np.testing.assert_array_equal(result.scores, expected.scores)

    def test_refresh_crash_propagates(self, graph):
        config = tiny_config(eval_rounds=2)
        model = Bourne(graph.num_features, config)
        service = ScoringService(model, graph.copy(), rounds=2)
        with pytest.raises(RuntimeError, match="shard 1"):
            service_refresh_scores(service, targets_past_the_end(graph, 1),
                                   workers=2)
