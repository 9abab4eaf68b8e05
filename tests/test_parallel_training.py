"""Sharded data-parallel training: bitwise equivalence, edges, crashes.

The trainer's contract is that sharding is *unobservable*: for a fixed
``grain`` (the gradient-accumulation chunk size, part of the training
semantics) any worker count produces bitwise-identical loss histories
and final parameters to serial ``BourneTrainer.fit`` — augmentation
on, because every draw is counter-based.  These tests pin that
contract (property-based over worker/grain combinations, plus the edge
cases: shards > chunks, empty shards, one worker process), the
loss-normalization pre-pass, worker crash propagation, persistent pool
reuse with a graph rebound at every fit, and the named epoch-
permutation stream that replaced the old ``seed + 7`` coupling.
"""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Bourne, BourneConfig, BourneTrainer
from repro.core.trainer import (
    batch_loss_scales,
    chunk_bounds,
    epoch_permutation_rng,
    training_batch_streams,
)
from repro.graph import Graph
from repro.graph.index import derive_target_seeds
from repro.graph.sampling import (
    count_target_edge_owners,
    sample_enclosing_subgraphs,
)
from repro.parallel import TrainTask, WorkerPool, train_task
from repro.parallel.engine import SHARDS_PER_WORKER
from repro.utils.seed import rng_from_seed


def small_graph(seed=0, num_nodes=40, num_edges=90):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < num_edges:
        u, v = (int(x) for x in rng.integers(0, num_nodes, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(rng.normal(size=(num_nodes, 5)), np.array(sorted(edges)),
                 name="parallel-train-test")


def tiny_config(**overrides):
    base = dict(hidden_dim=8, predictor_hidden=16, subgraph_size=4,
                hop_size=2, eval_rounds=2, batch_size=16, epochs=1, seed=3)
    base.update(overrides)
    return BourneConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return small_graph()


def fit_params(model):
    return [p.data.copy() for p in model.online.parameters()
            + model.target.parameters()]


def serial_fit(graph, config, grain, epochs=None):
    model = Bourne(graph.num_features, config)
    history = BourneTrainer(model, config, grain=grain).fit(graph,
                                                            epochs=epochs)
    return history.losses, fit_params(model)


def sharded_fit(graph, config, grain, workers, epochs=None):
    model = Bourne(graph.num_features, config)
    with BourneTrainer(model, config, grain=grain,
                       workers=workers) as trainer:
        history = trainer.fit(graph, epochs=epochs)
    return history.losses, fit_params(model)


def assert_same_run(one, two):
    losses_a, params_a = one
    losses_b, params_b = two
    assert losses_a == losses_b
    assert len(params_a) == len(params_b)
    for a, b in zip(params_a, params_b):
        np.testing.assert_array_equal(a, b)


class TestBitwiseEquivalence:
    @pytest.fixture(scope="class")
    def serial(self, graph):
        return serial_fit(graph, tiny_config(), grain=4)

    @pytest.mark.parametrize("workers,grain", [(2, None), (2, 3), (3, 7)])
    def test_matches_serial(self, graph, workers, grain):
        """Any worker count, at the default grain and at ragged ones."""
        serial = serial_fit(graph, tiny_config(), grain=grain)
        result = sharded_fit(graph, tiny_config(), grain=grain,
                             workers=workers)
        assert_same_run(result, serial)

    def test_more_shards_than_chunks(self, graph, serial):
        """A 16-target batch at grain 4 has 4 chunks against 12 shards:
        the empty shards must not disturb chunk order."""
        workers = 3
        assert len(chunk_bounds(16, 4)) < SHARDS_PER_WORKER * workers
        result = sharded_fit(graph, tiny_config(), grain=4, workers=workers)
        assert_same_run(result, serial)

    def test_single_worker_pool(self, graph, serial):
        """One worker process still routes through pool + shared
        memory + replayed merge — and must stay bitwise-exact."""
        config = tiny_config()
        model = Bourne(graph.num_features, config)
        with WorkerPool(1) as pool:
            with BourneTrainer(model, config, grain=4, workers=2,
                               pool=pool) as trainer:
                history = trainer.fit(graph)
        assert_same_run((history.losses, fit_params(model)), serial)

    def test_grain_one_and_whole_batch(self, graph):
        """Chunk layouts at both extremes shard consistently."""
        for grain in (1, 16):
            serial = serial_fit(graph, tiny_config(), grain=grain)
            sharded = sharded_fit(graph, tiny_config(), grain=grain,
                                  workers=2)
            assert_same_run(sharded, serial)

    @settings(max_examples=5, deadline=None)
    @given(workers=st.integers(min_value=1, max_value=3),
           grain=st.integers(min_value=2, max_value=10))
    def test_property_any_workers_and_grain(self, graph, workers, grain):
        config = tiny_config()
        serial = serial_fit(graph, config, grain=grain)
        if workers == 1:
            result = serial_fit(graph, config, grain=grain)
        else:
            result = sharded_fit(graph, config, grain=grain,
                                 workers=workers)
        assert_same_run(result, serial)

    @pytest.mark.parametrize("mode", ["node_only", "edge_only"])
    def test_ablation_modes(self, graph, mode):
        config = tiny_config(mode=mode)
        serial = serial_fit(graph, config, grain=5)
        sharded = sharded_fit(graph, config, grain=5, workers=3)
        assert_same_run(sharded, serial)

    def test_multi_epoch_persistent_pool(self, graph):
        config = tiny_config(epochs=3)
        serial = serial_fit(graph, config, grain=4)
        sharded = sharded_fit(graph, config, grain=4, workers=2)
        assert_same_run(sharded, serial)


def _worker_pid(_task) -> int:
    return os.getpid()


class TestPersistentPool:
    def test_pool_survives_across_fits(self, graph):
        """Repeated fit calls reuse the same pool and the same worker
        processes — spin-up is amortized, and the continued run stays
        bitwise-equal to an uninterrupted serial trainer."""
        config = tiny_config()
        model = Bourne(graph.num_features, config)
        with BourneTrainer(model, config, grain=4, workers=2) as trainer:
            trainer.fit(graph)
            pool = trainer.pool
            pids_before = set(pool.pids)
            assert pids_before  # processes were spawned by the first fit
            trainer.fit(graph, epochs=1)
            assert trainer.pool is pool
            pids_after = set(pool.pids)
            assert pids_after == pids_before
            # Probe tasks run inside those same long-lived processes.
            assert set(pool.run(_worker_pid, [(), ()])) <= pids_before

        serial_model = Bourne(graph.num_features, config)
        serial_trainer = BourneTrainer(serial_model, config, grain=4)
        serial_trainer.fit(graph)
        serial_trainer.fit(graph, epochs=1)
        for a, b in zip(fit_params(model), fit_params(serial_model)):
            np.testing.assert_array_equal(a, b)

    def test_borrowed_pool_not_closed(self, graph):
        config = tiny_config()
        with WorkerPool(2) as pool:
            model = Bourne(graph.num_features, config)
            with BourneTrainer(model, config, grain=4, workers=2,
                               pool=pool) as trainer:
                trainer.fit(graph)
            # The trainer exited but the borrowed pool must stay usable.
            assert pool.run(_worker_pid, [()])
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(_worker_pid, [()])

    def test_rebinds_after_store_mutation(self, graph):
        """A mutated ``GraphStore`` rebuilds its index; the trainer must
        re-export instead of training workers on stale topology."""
        from repro.serving import GraphStore

        config = tiny_config()

        def run(workers):
            store = GraphStore.from_graph(graph.copy(), influence_radius=2)
            model = Bourne(graph.num_features, config)
            with BourneTrainer(model, config, grain=4,
                               workers=workers) as trainer:
                trainer.fit(store)
                store.add_edge(0, graph.num_nodes - 1)
                trainer.fit(store, epochs=1)
            return fit_params(model)

        serial, sharded = run(None), run(2)
        for a, b in zip(serial, sharded):
            np.testing.assert_array_equal(a, b)

    def test_rebinds_after_feature_update(self, graph):
        """``update_features`` keeps the store's index object, so only a
        fresh bind at every fit ships the new values to the workers."""
        from repro.serving import GraphStore

        config = tiny_config()

        def run(workers):
            store = GraphStore.from_graph(graph.copy(), influence_radius=2)
            model = Bourne(graph.num_features, config)
            with BourneTrainer(model, config, grain=4,
                               workers=workers) as trainer:
                trainer.fit(store)
                nodes = np.arange(0, store.num_nodes, 3)
                store.update_features(nodes, store.features[nodes] + 1.0)
                trainer.fit(store, epochs=1)
            return fit_params(model)

        serial, sharded = run(None), run(2)
        for a, b in zip(serial, sharded):
            np.testing.assert_array_equal(a, b)

    def test_shared_with_service_refresh(self, graph):
        """The ROADMAP follow-up: one pool serves training *and*
        serving refreshes, bitwise-identically on both sides."""
        from repro.serving import ScoringService

        config = tiny_config(augment_at_inference=False)
        model = Bourne(graph.num_features, config)
        with BourneTrainer(model, config, grain=4, workers=2) as trainer:
            trainer.fit(graph)
            serial_service = ScoringService(model, graph.copy(), rounds=2)
            shared_service = ScoringService(model, graph.copy(), rounds=2)
            expected = serial_service.refresh()
            result = shared_service.refresh(workers=2, pool=trainer.pool)
            np.testing.assert_array_equal(result.scores, expected.scores)
            # Training continues unharmed after the slots were rebound.
            more = trainer.fit(graph, epochs=1)
            assert len(more.losses) == 1


def _failing_task(trainer, graph):
    """A training task that raises in a worker of ``trainer``'s pool: its
    one chunk targets a node id past the end of ``graph``.

    Building it rebinds the pool's graph and model slots between fits,
    as another client sharing the pool would.
    """
    pool = trainer.pool
    targets = np.array([graph.num_nodes], dtype=np.int64)
    return TrainTask(pool.bind_graph(graph.features, graph.index),
                     pool.publish_model(trainer.model),
                     [(targets, derive_target_seeds(0, targets))],
                     None, None, 0)


class TestCrashPropagation:
    def test_worker_exception_reaches_parent(self, graph):
        config = tiny_config()
        model = Bourne(graph.num_features, config)
        with BourneTrainer(model, config, grain=4, workers=2) as trainer:
            trainer.fit(graph)
            with pytest.raises(RuntimeError,
                               match="sharded run failed in shard 0.*"
                                     "out of bounds"):
                trainer.pool.run(train_task, [_failing_task(trainer, graph)])

    def test_pool_usable_after_task_failure(self, graph):
        """A failed task leaves the trainer's pool usable: the next fit
        still matches an uninterrupted serial trainer bitwise."""
        config = tiny_config()
        model = Bourne(graph.num_features, config)
        with BourneTrainer(model, config, grain=4, workers=2) as trainer:
            trainer.fit(graph)
            with pytest.raises(RuntimeError, match="out of bounds"):
                trainer.pool.run(train_task, [_failing_task(trainer, graph)])
            history = trainer.fit(graph, epochs=1)
        assert len(history.losses) == 1

        serial_model = Bourne(graph.num_features, config)
        serial_trainer = BourneTrainer(serial_model, config, grain=4)
        serial_trainer.fit(graph)
        serial_trainer.fit(graph, epochs=1)
        for a, b in zip(fit_params(model), fit_params(serial_model)):
            np.testing.assert_array_equal(a, b)

    def test_worker_killed_between_fits(self, graph):
        """A worker SIGKILLed between two fits is replaced: the second
        fit runs on fresh workers and the trajectory stays bitwise the
        serial trainer's."""
        config = tiny_config()
        model = Bourne(graph.num_features, config)
        with BourneTrainer(model, config, grain=4, workers=2) as trainer:
            first = trainer.fit(graph)
            os.kill(trainer.pool.pids[0], signal.SIGKILL)
            second = trainer.fit(graph, epochs=1)
            assert trainer.pool.respawns == 1

        serial_model = Bourne(graph.num_features, config)
        serial_trainer = BourneTrainer(serial_model, config, grain=4)
        assert first.losses == serial_trainer.fit(graph).losses
        assert second.losses == serial_trainer.fit(graph, epochs=1).losses
        for a, b in zip(fit_params(model), fit_params(serial_model)):
            np.testing.assert_array_equal(a, b)


class TestLossNormalizationPrepass:
    def test_edge_owner_count_matches_sampler(self, graph):
        """``count_target_edge_owners`` must agree exactly with the
        real sampler's target-edge realization — it normalizes the
        edge loss before the chunks are computed."""
        config = tiny_config()
        for base in (0, 1, 99):
            targets = np.arange(graph.num_nodes, dtype=np.int64)
            seeds = derive_target_seeds(base, targets)
            batch = sample_enclosing_subgraphs(
                graph, targets, k=config.hop_size,
                size=config.subgraph_size, target_seeds=seeds)
            expected = int((batch.num_target_edges > 0).sum())
            counted = count_target_edge_owners(
                graph, targets, seeds, config.hop_size, config.subgraph_size)
            assert counted == expected

    def test_batch_loss_scales(self):
        node, edge = batch_loss_scales("unified", 10, 8)
        assert node == 0.5 / 10 and edge == 0.5 / 8
        node, edge = batch_loss_scales("unified", 10, 0)
        assert node == 1.0 / 10 and edge is None
        node, edge = batch_loss_scales("node_only", 10, 5)
        assert node == 1.0 / 10 and edge is None
        node, edge = batch_loss_scales("edge_only", 10, 5)
        assert node is None and edge == 1.0 / 5
        with pytest.raises(RuntimeError, match="no loss terms"):
            batch_loss_scales("edge_only", 10, 0)

    def test_chunk_bounds_partition(self):
        assert chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert chunk_bounds(3, 16) == [(0, 3)]
        assert chunk_bounds(0, 4) == []
        with pytest.raises(ValueError):
            chunk_bounds(10, 0)


class TestEpochPermutationStream:
    def test_named_stream_replaces_seed_offset(self):
        """Regression for the old ``seed + 7`` coupling: the epoch
        permutation stream is now namespaced, so it can no longer
        collide with another component seeded at a nearby base (e.g.
        model init of ``seed + 7``)."""
        ours = epoch_permutation_rng(0).permutation(64)
        old_coupled = rng_from_seed(0 + 7).permutation(64)
        assert not np.array_equal(ours, old_coupled)
        np.testing.assert_array_equal(ours,
                                      epoch_permutation_rng(0).permutation(64))
        assert not np.array_equal(epoch_permutation_rng(1).permutation(64),
                                  ours)

    def test_serial_and_sharded_consume_identical_orders(self, graph):
        """Both trainers draw from the same generator construction —
        pinned here so a refactor cannot silently fork the streams."""
        config = tiny_config()
        model_a = Bourne(graph.num_features, config)
        model_b = Bourne(graph.num_features, config)
        serial = BourneTrainer(model_a, config, grain=4)
        with BourneTrainer(model_b, config, grain=4, workers=2) as sharded:
            for _ in range(3):
                np.testing.assert_array_equal(
                    serial._epoch_rng.permutation(graph.num_nodes),
                    sharded._epoch_rng.permutation(graph.num_nodes))

    def test_training_streams_are_step_keyed(self):
        seeds_a, mask_a = training_batch_streams(3, 0, 0, np.arange(8))
        seeds_b, mask_b = training_batch_streams(3, 0, 1, np.arange(8))
        assert not np.array_equal(seeds_a, seeds_b)
        assert mask_a != mask_b
        again, mask_again = training_batch_streams(3, 0, 0, np.arange(8))
        np.testing.assert_array_equal(seeds_a, again)
        assert mask_a == mask_again
