"""Tests for the event-stream driver and synthetic workloads."""

import numpy as np
import pytest

from repro.core import Bourne, BourneConfig
from repro.gateway.protocol import MUTATION_PARSERS, dispatch_request
from repro.graph import Graph
from repro.metrics import roc_auc_score
from repro.serving import (
    EdgeArrived,
    FeatureDrift,
    GraphStore,
    NodeArrived,
    ScoringService,
    StreamDriver,
    apply_event,
    synthetic_event_stream,
)


def seed_graph(seed=0, n=40, d=6):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    edges = set()
    while len(edges) < 80:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return Graph(features, np.array(sorted(edges)))


@pytest.fixture()
def service():
    graph = seed_graph()
    model = Bourne(6, BourneConfig(hidden_dim=8, predictor_hidden=16,
                                   subgraph_size=4, eval_rounds=2, seed=1))
    return ScoringService(model, GraphStore.from_graph(graph), rounds=2)


class TestEvents:
    def test_node_arrival_wires_edges_and_labels(self, service):
        driver = StreamDriver(service)
        n0 = service.store.num_nodes
        driver.apply(NodeArrived(np.zeros(6), attach_to=(0, 1), label=1))
        store = service.store
        assert store.num_nodes == n0 + 1
        assert store.has_edge(n0, 0) and store.has_edge(n0, 1)
        assert store.node_labels[n0] == 1

    def test_edge_arrival_and_drift(self, service):
        driver = StreamDriver(service)
        store = service.store
        pair = next((u, v) for u in range(store.num_nodes)
                    for v in range(u + 1, store.num_nodes)
                    if not store.has_edge(u, v))
        driver.apply(EdgeArrived(*pair, label=1))
        assert store.has_edge(*pair)
        driver.apply(FeatureDrift(3, np.ones(6), label=1))
        np.testing.assert_array_equal(store.features[3], np.ones(6))
        assert store.node_labels[3] == 1
        assert driver.events_applied == 2

    def test_unknown_event_rejected(self, service):
        with pytest.raises(TypeError):
            StreamDriver(service).apply("not an event")

    def test_write_requests_apply_the_op_tables_records(self, service):
        """A gateway write request and ``apply_event`` on the record the
        op table builds leave twin stores equal, and the response is
        the record's fields."""
        twin = GraphStore.from_graph(seed_graph())
        for request in ({"op": "add_node", "features": [0.5] * 6},
                        {"op": "add_edge", "u": 0, "v": 40},
                        {"op": "add_edge", "u": 40, "v": 0},
                        {"op": "update_features", "node": 3,
                         "features": [1.0] * 6}):
            op = request["op"]
            response = dispatch_request(service, request)
            fields = apply_event(twin, MUTATION_PARSERS[op](request))
            assert response == {"ok": True, "op": op, **fields}
            store = service.store
            np.testing.assert_array_equal(store.features, twin.features)
            np.testing.assert_array_equal(store.snapshot().edges,
                                          twin.snapshot().edges)
            np.testing.assert_array_equal(store.node_labels,
                                          twin.node_labels)
            np.testing.assert_array_equal(store.edge_labels,
                                          twin.edge_labels)
            assert store.version == twin.version
        # The wire sets no label: the new node and edge keep label 0.
        assert store.node_labels[40] == 0 and store.edge_labels[-1] == 0


class TestReplay:
    def test_snapshots_track_growth_and_incrementality(self, service):
        rng = np.random.default_rng(5)
        events = synthetic_event_stream(service.store.snapshot(), 12, rng)
        driver = StreamDriver(service, top_k=5)
        snapshots = list(driver.replay(events, refresh_every=4))
        assert len(snapshots) == 3
        final = snapshots[-1]
        assert final.event_index == 12
        assert final.num_nodes == service.store.num_nodes
        assert len(final.scores) == final.num_nodes
        assert len(final.top_nodes) == 5
        # warm refreshes only touch dirty regions, not the whole graph
        assert snapshots[-1].rescored < final.num_nodes
        assert 0.0 <= final.rescored_fraction <= 1.0

    def test_refresh_every_validated(self, service):
        with pytest.raises(ValueError):
            list(StreamDriver(service).replay([], refresh_every=0))

    def test_streaming_scores_usable_for_detection(self, service):
        """Snapshots expose labels + scores the eval layer can consume."""
        rng = np.random.default_rng(11)
        events = synthetic_event_stream(service.store.snapshot(), 20, rng,
                                        anomaly_prob=0.5)
        driver = StreamDriver(service)
        final = list(driver.replay(events, refresh_every=10))[-1]
        labels = service.store.node_labels
        if labels.sum() == 0 or labels.sum() == len(labels):
            pytest.skip("degenerate label draw")
        auc = roc_auc_score(labels, final.scores)
        assert 0.0 <= auc <= 1.0


class TestSyntheticWorkload:
    def test_event_mix_and_labels(self):
        graph = seed_graph(seed=2)
        events = synthetic_event_stream(graph, 200,
                                        np.random.default_rng(0),
                                        anomaly_prob=0.3)
        assert len(events) == 200
        kinds = {NodeArrived: 0, EdgeArrived: 0, FeatureDrift: 0}
        anomalies = 0
        for event in events:
            kinds[type(event)] += 1
            label = event.label if event.label is not None else 0
            anomalies += int(label)
        assert all(count > 0 for count in kinds.values())
        assert 0 < anomalies < 200

    def test_requires_seed_nodes(self):
        tiny = Graph(np.zeros((2, 3)), np.array([[0, 1]]))
        with pytest.raises(ValueError):
            synthetic_event_stream(tiny, 5, np.random.default_rng(0))
