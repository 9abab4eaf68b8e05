"""Continual-learning lifecycle tests.

Covers the controller subsystem end to end: trigger-policy semantics
(with a fake clock), candidate validation and the post-swap guardrail,
the store's drift/churn counters feeding the trigger signal, the
per-step model republish, a full standalone retrain cycle whose
candidate is bitwise-identical to an offline ``train_bourne`` on the
same snapshot, and the gateway wiring: drift burst → trigger →
background retrain → validate → publish → watcher hot-swap under live
traffic with zero failed requests, plus automatic rollback when a
regressed model reaches the registry.
"""

import asyncio
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.core import Bourne, BourneConfig
from repro.core.trainer import train_bourne
from repro.gateway import Gateway
from repro.graph import Graph
from repro.lifecycle import (
    LifecycleController,
    TriggerPolicy,
    TriggerState,
    evaluate_guardrail,
    parse_settings,
    probe_nodes,
    probe_scores,
    validate_candidate,
)
from repro.serving import GraphStore, ModelRegistry, ScoringService
from repro.serving.stream import StreamDriver, synthetic_event_stream


def tiny_config(**overrides):
    base = dict(hidden_dim=8, predictor_hidden=16, subgraph_size=4,
                hop_size=2, epochs=1, eval_rounds=2, batch_size=16, seed=3)
    base.update(overrides)
    return BourneConfig(**base)


def random_graph(seed=7, n=40, d=6, m=90, label_rate=0.3):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    labels = (rng.random(n) < label_rate).astype(np.int64)
    return Graph(features, np.array(sorted(edges)), node_labels=labels)


def named_params(model):
    for name, param in model.online.named_parameters():
        yield "online." + name, param
    for name, param in model.target.named_parameters():
        yield "target." + name, param


def assert_models_equal(left, right):
    for (ln, lp), (rn, rp) in zip(named_params(left), named_params(right)):
        assert ln == rn
        np.testing.assert_array_equal(lp.data, rp.data)


# ----------------------------------------------------------------------
# Trigger policy
# ----------------------------------------------------------------------
class TestTriggerPolicy:
    def test_drift_threshold_fires_with_reason(self):
        policy = TriggerPolicy(drift_threshold=5.0, mutation_threshold=None)
        state = TriggerState()
        assert policy.evaluate(4.9, 0, now=0.0, state=state) is None
        reason = policy.evaluate(5.0, 0, now=1.0, state=state)
        assert reason is not None and "drift" in reason
        assert state.last_trigger == 1.0

    def test_mutation_threshold_fires(self):
        policy = TriggerPolicy(drift_threshold=None, mutation_threshold=10)
        reason = policy.evaluate(0.0, 10, now=0.0, state=TriggerState())
        assert reason is not None and "mutations" in reason

    def test_disabled_policy_never_fires(self):
        policy = TriggerPolicy(drift_threshold=None, mutation_threshold=None)
        state = TriggerState()
        assert policy.evaluate(1e9, 10**9, now=0.0, state=state) is None

    def test_debounce_requires_consecutive_checks(self):
        policy = TriggerPolicy(drift_threshold=1.0, mutation_threshold=None,
                               debounce_checks=3)
        state = TriggerState()
        assert policy.evaluate(2.0, 0, now=0.0, state=state) is None
        assert policy.evaluate(2.0, 0, now=1.0, state=state) is None
        # A dip below threshold resets the streak.
        assert policy.evaluate(0.5, 0, now=2.0, state=state) is None
        assert policy.evaluate(2.0, 0, now=3.0, state=state) is None
        assert policy.evaluate(2.0, 0, now=4.0, state=state) is None
        assert policy.evaluate(2.0, 0, now=5.0, state=state) is not None

    def test_min_interval_blocks_refire(self):
        policy = TriggerPolicy(drift_threshold=1.0, mutation_threshold=None,
                               min_interval_s=10.0)
        state = TriggerState()
        assert policy.evaluate(2.0, 0, now=0.0, state=state) is not None
        assert policy.evaluate(2.0, 0, now=5.0, state=state) is None
        assert policy.evaluate(2.0, 0, now=10.0, state=state) is not None

    def test_cooldown_blocks_until_stamp_passes(self):
        policy = TriggerPolicy(drift_threshold=1.0, mutation_threshold=None,
                               cooldown_s=5.0)
        state = TriggerState(cooldown_until=7.0)
        assert policy.evaluate(2.0, 0, now=6.9, state=state) is None
        assert policy.evaluate(2.0, 0, now=7.0, state=state) is not None

    def test_parse_settings_splits_flat_namespace(self):
        settings = parse_settings({"drift_threshold": 2.5, "epochs": 1,
                                   "check_interval_s": 0.5,
                                   "debounce_checks": 2})
        assert settings.policy.drift_threshold == 2.5
        assert settings.policy.debounce_checks == 2
        assert settings.epochs == 1
        assert settings.check_interval_s == 0.5

    def test_parse_settings_rejects_unknown_keys(self):
        for key in ("drift_treshold", "shards"):
            with pytest.raises(ValueError, match=key):
                parse_settings({key: 3})

    def test_invalid_policy_values_rejected(self):
        with pytest.raises(ValueError):
            TriggerPolicy(debounce_checks=0)
        with pytest.raises(ValueError):
            TriggerPolicy(drift_threshold=-1.0)


# ----------------------------------------------------------------------
# Validation and guardrail
# ----------------------------------------------------------------------
class TestValidation:
    def setup_method(self):
        self.graph = random_graph()
        self.model = Bourne(self.graph.num_features, tiny_config(seed=1))
        self.probe = probe_nodes(self.graph, 16, seed=101)

    def test_probe_nodes_deterministic_and_sorted(self):
        again = probe_nodes(self.graph, 16, seed=101)
        np.testing.assert_array_equal(self.probe, again)
        assert np.all(np.diff(self.probe) > 0)
        assert probe_nodes(self.graph, 10**6, seed=0).size \
            == self.graph.num_nodes

    def test_healthy_candidate_accepted(self):
        report = validate_candidate(
            self.model, None, self.graph, self.probe,
            seed=3, rounds=1, max_batch=32)
        assert report.accepted, report.reason
        assert report.checks["finite"]

    def test_nan_candidate_rejected(self):
        bad = Bourne(self.graph.num_features, tiny_config(seed=1))
        next(iter(bad.online.named_parameters()))[1].data[...] = np.nan
        report = validate_candidate(
            bad, None, self.graph, self.probe,
            seed=3, rounds=1, max_batch=32)
        assert not report.accepted
        assert "non-finite" in report.reason

    def test_degenerate_scores_rejected(self):
        report = validate_candidate(
            self.model, None, self.graph, self.probe,
            seed=3, rounds=1, max_batch=32, min_score_std=1e9)
        assert not report.accepted
        assert "degenerate" in report.reason

    def test_reference_comparison_recorded(self):
        reference = Bourne(self.graph.num_features, tiny_config(seed=2))
        report = validate_candidate(
            self.model, reference, self.graph, self.probe,
            seed=3, rounds=1, max_batch=32, auc_margin=1.0)
        # margin 1.0 can never reject, but both AUCs must be recorded
        assert report.accepted
        assert "candidate_auc" in report.checks
        assert "reference_auc" in report.checks


class TestGuardrail:
    def test_non_finite_scores_regress(self):
        report = evaluate_guardrail(np.array([1.0, np.nan]),
                                    np.array([1.0, 2.0]))
        assert report.regressed and "non-finite" in report.reason

    def test_collapsed_scores_regress(self):
        report = evaluate_guardrail(np.full(8, 0.5), np.linspace(0, 1, 8))
        assert report.regressed and "collapsed" in report.reason

    def test_auc_drop_regresses_with_labels(self):
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        good = labels.astype(np.float64) + np.linspace(0, 0.1, 8)  # AUC 1
        inverted = 1.0 - good                                      # AUC 0
        report = evaluate_guardrail(inverted, good, labels, auc_drop=0.15)
        assert report.regressed and "AUC" in report.reason
        assert report.checks["served_auc"] < report.checks["reference_auc"]

    def test_healthy_scores_pass(self):
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        good = labels.astype(np.float64) + np.linspace(0, 0.1, 8)
        report = evaluate_guardrail(good, good, labels)
        assert not report.regressed

    def test_score_shift_tripwire_without_labels(self):
        base = np.linspace(0, 1, 8)
        report = evaluate_guardrail(base + 0.5, base, score_shift=0.1)
        assert report.regressed and "shift" in report.reason
        assert not evaluate_guardrail(base + 0.05, base,
                                      score_shift=0.1).regressed


# ----------------------------------------------------------------------
# Drift / churn counters (trigger signal plumbing)
# ----------------------------------------------------------------------
class TestDriftCounters:
    def test_update_features_returns_magnitude_and_accumulates(self):
        graph = random_graph()
        store = GraphStore.from_graph(graph, influence_radius=2)
        assert store.drift_total == 0.0 and store.mutations == 0
        nodes = np.array([0, 1, 2])
        new = store.snapshot().features[nodes] + 1.0
        expected = float(np.linalg.norm(
            new - store.snapshot().features[nodes]))
        magnitude = store.update_features(nodes, new)
        assert magnitude == pytest.approx(expected)
        assert store.drift_total == pytest.approx(expected)
        assert store.features_updated == 3
        assert store.mutations == 3

    def test_structural_mutations_counted(self):
        graph = random_graph()
        store = GraphStore.from_graph(graph, influence_radius=2)
        store.add_nodes(np.zeros((2, graph.num_features)))
        added = store.add_edge(0, store.num_nodes - 1)
        assert store.nodes_added == 2
        assert store.edges_added == int(added)
        assert store.mutations == 2 + int(added)

    def test_stream_snapshot_exposes_signal(self):
        graph = random_graph()
        store = GraphStore.from_graph(graph, influence_radius=2)
        model = Bourne(graph.num_features, tiny_config())
        service = ScoringService(model, store, rounds=1)
        driver = StreamDriver(service)
        events = synthetic_event_stream(graph, 20,
                                        np.random.default_rng(5))
        for event in events:
            driver.apply(event)
        snap = driver.snapshot()
        assert snap.drift_total == pytest.approx(store.drift_total)
        assert snap.mutations == store.mutations
        assert snap.mutations > 0

    def test_service_stats_export_counters(self):
        graph = random_graph()
        store = GraphStore.from_graph(graph, influence_radius=2)
        model = Bourne(graph.num_features, tiny_config())
        service = ScoringService(model, store, rounds=1)
        store.update_features(np.array([0]),
                              store.snapshot().features[[0]] + 1.0)
        stats = service.stats()
        assert stats["store_drift_total"] > 0.0
        assert stats["store_mutations"] == 1
        assert stats["store_features_updated"] == 1


# ----------------------------------------------------------------------
# Per-step model republish
# ----------------------------------------------------------------------
class TestModelRepublish:
    def test_each_full_publish_reaches_attached_worker(self):
        from repro.parallel.shm import SharedModelExport, attach_shared_model

        model = Bourne(6, tiny_config())
        export = SharedModelExport.create(model)
        try:
            attached = attach_shared_model(export.spec)
            try:
                attached.load(0)
                assert_models_equal(attached.model, model)
                for version in (1, 2, 3):
                    held = [param.data.copy()
                            for _, param in named_params(attached.model)]
                    for _, param in named_params(model):
                        param.data[...] += 1.0
                    export.publish(model)
                    # The worker copies only when the version moves...
                    attached.load(version - 1)
                    for copy, (_, param) in zip(
                            held, named_params(attached.model)):
                        np.testing.assert_array_equal(param.data, copy)
                    # ...and then every parameter, not a subset.
                    attached.load(version)
                    assert_models_equal(attached.model, model)
            finally:
                attached.close()
        finally:
            export.destroy()

    def test_sharded_training_stays_bitwise_with_per_step_publish(self):
        graph = random_graph(n=30, m=60)
        config = tiny_config(epochs=2)
        serial, serial_history = train_bourne(graph, config, epochs=2)
        sharded, sharded_history = train_bourne(graph, config, epochs=2,
                                                workers=2)
        np.testing.assert_array_equal(np.asarray(serial_history.losses),
                                      np.asarray(sharded_history.losses))
        assert_models_equal(serial, sharded)


# ----------------------------------------------------------------------
# Standalone controller loop
# ----------------------------------------------------------------------
class TestControllerLoop:
    def test_full_cycle_bitwise_and_rollback(self, tmp_path):
        graph = random_graph()
        config = tiny_config()
        model, _ = train_bourne(graph, config, epochs=1)
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.publish(model, "m")

        store = GraphStore.from_graph(graph, influence_radius=2)
        service = ScoringService(model, store, rounds=1)
        controller = LifecycleController(
            service, registry, "m",
            TriggerPolicy(drift_threshold=0.5, mutation_threshold=None),
            epochs=1, probe_size=16)
        try:
            assert controller.status()["state"] == "idle"
            # below threshold: no trigger
            controller.tick()
            assert controller.triggers == 0

            nodes = np.arange(10)
            store.update_features(nodes,
                                  store.snapshot().features[nodes] + 1.0)
            status = controller.tick()
            assert status["counters"]["triggers"] == 1
            assert status["state"] == "retraining"
            assert controller.wait_idle(timeout=300)

            status = controller.status()
            assert status["counters"]["retrains_completed"] == 1
            assert status["counters"]["validations_accepted"] == 1
            assert status["last_verdict"]["accepted"]
            assert status["good_version"] == 2

            # Determinism: the background candidate is bitwise-equal to
            # an offline train_bourne on the same snapshot (no store
            # mutations happened since the trigger).
            candidate = registry.load("m", 2)
            offline, _ = train_bourne(store.snapshot(), config, epochs=1)
            assert_models_equal(candidate, offline)
            meta = registry.describe("m")[-1]["metadata"]["lifecycle"]
            assert meta["validation"]["accepted"]

            # Regressed publish (NaN weights) → guardrail → automatic
            # rollback re-publishing the known-good version.
            bad = registry.load("m", 2)
            next(iter(bad.online.named_parameters()))[1].data[...] = np.nan
            bad_version = registry.publish(bad, "m")
            status = controller.tick()
            assert status["counters"]["rollbacks"] == 1
            assert status["last_guard"]["regressed"]
            assert status["good_version"] == bad_version + 1
            restored = registry.load("m", status["good_version"])
            assert_models_equal(restored, candidate)
            entry = registry.describe("m")[-1]["metadata"]
            assert entry["rollback"] and entry["restores"] == 2

            # Manual rollback restores the previous good version.
            result = controller.rollback("operator request")
            assert result["rolled_back"]
            # Pause gates automatic triggers; manual trigger still works.
            controller.pause()
            store.update_features(nodes,
                                  store.snapshot().features[nodes] + 1.0)
            paused = controller.tick()
            assert paused["state"] == "paused"
            assert paused["counters"]["triggers"] == 1
            controller.resume()
        finally:
            controller.close()

    def test_manual_trigger_requires_idle_and_history_for_rollback(
            self, tmp_path):
        graph = random_graph()
        model = Bourne(graph.num_features, tiny_config())
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.publish(model, "m")
        store = GraphStore.from_graph(graph, influence_radius=2)
        service = ScoringService(model, store, rounds=1)
        controller = LifecycleController(
            service, registry, "m",
            TriggerPolicy(drift_threshold=None, mutation_threshold=None),
            epochs=1, probe_size=8)
        try:
            with pytest.raises(ValueError, match="no previous version"):
                controller.rollback()
            first = controller.trigger("operator")
            assert first["triggered"]
            second = controller.trigger("operator")
            assert not second["triggered"]
            assert controller.wait_idle(timeout=300)
            assert controller.retrains_completed == 1
        finally:
            controller.close()

    def test_killed_retrain_worker_is_replaced(self, tmp_path):
        """The retrain worker dies while idle; the next trigger runs on
        a fresh worker and publishes its candidate."""
        graph = random_graph()
        model = Bourne(graph.num_features, tiny_config())
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.publish(model, "m")
        store = GraphStore.from_graph(graph, influence_radius=2)
        service = ScoringService(model, store, rounds=1)
        controller = LifecycleController(
            service, registry, "m",
            TriggerPolicy(drift_threshold=None, mutation_threshold=None),
            epochs=1, probe_size=8, auc_margin=float("inf"))
        try:
            controller.start()
            (killed,) = controller._retrainer.pids
            os.kill(killed, signal.SIGKILL)
            # The pool reaps its dead worker once it has seen the death.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    os.kill(killed, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            assert controller.trigger("operator")["triggered"]
            assert controller.wait_idle(timeout=300)
            assert controller.retrains_failed == 0
            assert controller.validations_accepted == 1
            assert registry.latest("m") == 2
            assert killed not in controller._retrainer.pids
        finally:
            controller.close()

    def test_retrain_lost_with_a_dying_worker_reruns(self, tmp_path):
        """The retrain worker is killed and a retrain triggered at once,
        before the pool has seen the death: the lost retrain reruns on
        a fresh worker and publishes its candidate."""
        graph = random_graph()
        model = Bourne(graph.num_features, tiny_config())
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.publish(model, "m")
        store = GraphStore.from_graph(graph, influence_radius=2)
        service = ScoringService(model, store, rounds=1)
        controller = LifecycleController(
            service, registry, "m",
            TriggerPolicy(drift_threshold=None, mutation_threshold=None),
            epochs=1, probe_size=8, auc_margin=float("inf"))
        try:
            controller.start()
            (killed,) = controller._retrainer.pids
            os.kill(killed, signal.SIGKILL)
            assert controller.trigger("operator")["triggered"]
            assert controller.wait_idle(timeout=300)
            assert controller.retrains_failed == 0, controller.last_error
            assert controller._retrainer.respawns == 1
            assert controller.validations_accepted == 1
            assert registry.latest("m") == 2
        finally:
            controller.close()


    def test_sharded_retrain_leaves_no_shared_memory(self, tmp_path,
                                                     no_shm_leak):
        """A ``workers=2`` retrain runs a sharded trainer inside the
        retrain worker; its segments are gone once the controller is
        closed, and the candidate is bitwise the serial one."""
        graph = random_graph()
        config = tiny_config()
        model = Bourne(graph.num_features, config)
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.publish(model, "m")
        store = GraphStore.from_graph(graph, influence_radius=2)
        service = ScoringService(model, store, rounds=1)
        with no_shm_leak():
            controller = LifecycleController(
                service, registry, "m",
                TriggerPolicy(drift_threshold=None, mutation_threshold=None),
                # An unbounded margin accepts any sane candidate, so
                # the retrain always reaches the registry.
                epochs=1, workers=2, probe_size=8,
                auc_margin=float("inf"))
            try:
                assert controller.trigger("operator")["triggered"]
                assert controller.wait_idle(timeout=300)
                assert controller.retrains_completed == 1
                assert controller.validations_accepted == 1
            finally:
                controller.close()
        offline, _ = train_bourne(store.snapshot(), config, epochs=1)
        assert_models_equal(registry.load("m", 2), offline)


# ----------------------------------------------------------------------
# Gateway wiring: the whole loop over a live gateway
# ----------------------------------------------------------------------
class TestGatewayLifecycle:
    def test_drift_to_hot_swap_to_rollback(self, tmp_path):
        graph = random_graph()
        config = tiny_config()
        model, _ = train_bourne(graph, config, epochs=1)
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.publish(model, "m")
        store = GraphStore.from_graph(graph, influence_radius=2)
        service = ScoringService(model, store, rounds=1)
        controller = LifecycleController(
            service, registry, "m",
            TriggerPolicy(drift_threshold=0.5, mutation_threshold=None),
            epochs=1, probe_size=16)
        probe = [1, 2, 3]

        async def scenario():
            gateway = Gateway(service, registry=registry, model_name="m",
                              model_version=1, poll_interval=0.05,
                              lifecycle=controller, lifecycle_interval=0.05)
            await gateway.start("127.0.0.1", 0)
            try:
                status = await gateway.dispatch({"op": "lifecycle_status"},
                                                "test")
                assert status["ok"] and status["state"] == "idle"
                stats = await gateway.dispatch({"op": "stats"}, "test")
                assert stats["lifecycle"]["state"] == "idle"

                before = await gateway.dispatch(
                    {"op": "score", "nodes": probe}, "test")
                assert before["ok"]

                # Drift burst through the public mutation op, with the
                # controller paused so no tick sees a partial burst.
                paused = await gateway.dispatch(
                    {"op": "lifecycle", "action": "pause"}, "test")
                assert paused["ok"] and paused["paused"]
                features = store.snapshot().features
                for node in range(10):
                    response = await gateway.dispatch(
                        {"op": "update_features", "node": node,
                         "features": (features[node] + 1.0).tolist()},
                        "test")
                    assert response["ok"]
                resumed = await gateway.dispatch(
                    {"op": "lifecycle", "action": "resume"}, "test")
                assert resumed["ok"] and not resumed["paused"]

                # Live traffic across the retrain + swap; nothing may
                # fail and nothing may block.
                failures = []
                successes = []

                async def traffic():
                    while True:
                        response = await gateway.dispatch(
                            {"op": "score", "nodes": probe}, "client")
                        (successes if response.get("ok")
                         else failures).append(response)
                        await asyncio.sleep(0.01)

                pump = asyncio.ensure_future(traffic())
                try:
                    for _ in range(600):
                        await asyncio.sleep(0.1)
                        if gateway.served_version == 2:
                            break
                finally:
                    pump.cancel()
                    try:
                        await pump
                    except asyncio.CancelledError:
                        pass
                assert gateway.served_version == 2
                assert not failures
                assert successes

                # Post-swap scores are bitwise what the published
                # candidate produces through the pure scorer.
                candidate = registry.load("m", 2)
                expected = probe_scores(
                    candidate, store.snapshot(), np.array(probe),
                    seed=service.seed, rounds=service.rounds,
                    max_batch=service.max_batch)
                after = await gateway.dispatch(
                    {"op": "score", "nodes": probe}, "test")
                assert after["ok"]
                got = np.array([after["scores"][str(n)] for n in probe])
                np.testing.assert_array_equal(got, expected)

                # Metrics surface the controller counters.
                text = await gateway.render_metrics()
                assert "lifecycle_triggers 1" in text
                assert "service_store_drift_total" in text

                # A regressed model published behind the controller's
                # back is guarded and rolled back automatically.
                bad = registry.load("m", 2)
                next(iter(
                    bad.online.named_parameters()))[1].data[...] = np.nan
                bad_version = registry.publish(bad, "m")
                for _ in range(600):
                    await asyncio.sleep(0.1)
                    status = await gateway.dispatch(
                        {"op": "lifecycle_status"}, "test")
                    if (status["counters"]["rollbacks"] >= 1
                            and gateway.served_version == bad_version + 1):
                        break
                assert gateway.served_version == bad_version + 1
                assert status["last_guard"]["regressed"]
                restored = registry.load("m", gateway.served_version)
                assert_models_equal(restored, candidate)

                # Admin actions over the op surface.
                paused = await gateway.dispatch(
                    {"op": "lifecycle", "action": "pause"}, "test")
                assert paused["ok"] and paused["paused"]
                resumed = await gateway.dispatch(
                    {"op": "lifecycle", "action": "resume"}, "test")
                assert resumed["ok"] and not resumed["paused"]
                bogus = await gateway.dispatch(
                    {"op": "lifecycle", "action": "explode"}, "test")
                assert not bogus["ok"]
            finally:
                await gateway.stop(drain_timeout=10.0)

        asyncio.run(scenario())

    def test_lifecycle_ops_without_controller_fail_cleanly(self):
        graph = random_graph()
        model = Bourne(graph.num_features, tiny_config())
        store = GraphStore.from_graph(graph, influence_radius=2)
        service = ScoringService(model, store, rounds=1)

        async def scenario():
            gateway = Gateway(service)
            await gateway.start("127.0.0.1", 0)
            try:
                response = await gateway.dispatch(
                    {"op": "lifecycle_status"}, "test")
                assert not response["ok"]
                assert "no lifecycle controller" in response["error"]
            finally:
                await gateway.stop(drain_timeout=5.0)

        asyncio.run(scenario())

    def test_http_lifecycle_routes(self, tmp_path):
        graph = random_graph()
        model = Bourne(graph.num_features, tiny_config())
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.publish(model, "m")
        store = GraphStore.from_graph(graph, influence_radius=2)
        service = ScoringService(model, store, rounds=1)
        controller = LifecycleController(
            service, registry, "m",
            TriggerPolicy(drift_threshold=None, mutation_threshold=None),
            epochs=1, probe_size=8)

        async def http(host, port, method, path, payload=None):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                body = json.dumps(payload).encode() if payload else b""
                head = (f"{method} {path} HTTP/1.1\r\n"
                        f"Host: {host}\r\nContent-Length: {len(body)}\r\n"
                        "Connection: close\r\n\r\n")
                writer.write(head.encode() + body)
                await writer.drain()
                raw = await reader.read()
            finally:
                writer.close()
                await writer.wait_closed()
            header, _, payload = raw.partition(b"\r\n\r\n")
            status = int(header.split()[1])
            return status, json.loads(payload)

        async def scenario():
            gateway = Gateway(service, registry=registry, model_name="m",
                              model_version=1, lifecycle=controller)
            host, port = await gateway.start("127.0.0.1", 0)
            try:
                status, body = await http(host, port, "GET", "/v1/lifecycle")
                assert status == 200 and body["state"] == "idle"
                status, body = await http(host, port, "POST", "/v1/lifecycle",
                                          {"action": "pause"})
                assert status == 200 and body["paused"]
                status, body = await http(host, port, "GET", "/healthz")
                assert status == 200 and body["lifecycle"] == "paused"
                status, body = await http(host, port, "POST", "/v1/lifecycle",
                                          {"action": "resume"})
                assert status == 200 and not body["paused"]
                status, body = await http(host, port, "POST", "/v1/lifecycle",
                                          {"action": "bogus"})
                assert status == 400 and not body["ok"]
            finally:
                await gateway.stop(drain_timeout=5.0)

        asyncio.run(scenario())

    def test_gateway_starts_retrain_worker_before_first_retrain(
            self, tmp_path):
        """``Gateway.start`` forks the retrain worker, so a retrain
        window never pays for starting a process; the retrain then
        runs on that same worker."""
        graph = random_graph()
        model = Bourne(graph.num_features, tiny_config())
        registry = ModelRegistry(str(tmp_path / "models"))
        registry.publish(model, "m")
        store = GraphStore.from_graph(graph, influence_radius=2)
        service = ScoringService(model, store, rounds=1)
        controller = LifecycleController(
            service, registry, "m",
            TriggerPolicy(drift_threshold=None, mutation_threshold=None),
            epochs=1, probe_size=8)

        async def scenario():
            gateway = Gateway(service, registry=registry, model_name="m",
                              model_version=1, lifecycle=controller)
            await gateway.start("127.0.0.1", 0)
            try:
                started = controller._retrainer.pids
                assert len(started) == 1
                response = await gateway.dispatch(
                    {"op": "lifecycle", "action": "trigger"}, "test")
                assert response["ok"] and response["triggered"]
                idle = await asyncio.get_running_loop().run_in_executor(
                    None, controller.wait_idle, 300)
                assert idle and controller.retrains_completed == 1
                assert controller._retrainer.pids == started
            finally:
                await gateway.stop(drain_timeout=5.0)
            assert controller.state == "closed"
            with pytest.raises(RuntimeError, match="closed"):
                controller.start()

        asyncio.run(scenario())
