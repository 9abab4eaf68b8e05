"""Unit tests for the gateway building blocks: metrics, admission,
micro-batcher, and the shared request protocol."""

import asyncio
import threading

import numpy as np
import pytest

from repro.core import Bourne, BourneConfig
from repro.gateway import (
    DRAINING,
    QUEUE_FULL,
    RATE_LIMITED,
    AdmissionController,
    Gateway,
    Histogram,
    MetricsRegistry,
    MicroBatcher,
    TokenBucket,
    attach_request_id,
    error_response,
    parse_request,
)
from repro.graph import Graph
from repro.serving import GraphStore, ScoringService


def tiny_config(**overrides):
    base = dict(hidden_dim=8, predictor_hidden=16, subgraph_size=4,
                hop_size=2, epochs=1, eval_rounds=2, batch_size=16, seed=3)
    base.update(overrides)
    return BourneConfig(**base)


def random_topology(seed=7, n=40, d=6, m=90):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return features, np.array(sorted(edges))


def make_service(rounds=1, seed=3):
    features, edges = random_topology()
    model = Bourne(features.shape[1], tiny_config(seed=seed))
    store = GraphStore.from_graph(Graph(features, edges), influence_radius=2)
    return ScoringService(model, store, rounds=rounds)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge_render(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "requests")
        counter.inc()
        counter.inc(2)
        registry.gauge("depth", "queue depth").set(5)
        text = registry.render()
        assert "# TYPE requests_total counter" in text
        assert "requests_total 3" in text
        assert "# TYPE depth gauge" in text
        assert "depth 5" in text

    def test_counter_rejects_decrement(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_callable(self):
        registry = MetricsRegistry()
        values = [1.0]
        gauge = registry.gauge("fn_gauge", fn=lambda: values[0])
        assert gauge.value == 1.0
        values[0] = 7.0
        assert gauge.value == 7.0

    def test_registration_idempotent_and_type_checked(self):
        registry = MetricsRegistry()
        a = registry.counter("x")
        assert registry.counter("x") is a
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.counter("bad name")

    def test_histogram_buckets_and_prometheus_format(self):
        hist = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        lines = hist.render()
        assert 'lat_bucket{le="0.1"} 1' in lines
        assert 'lat_bucket{le="1"} 3' in lines
        assert 'lat_bucket{le="10"} 4' in lines
        assert 'lat_bucket{le="+Inf"} 5' in lines
        assert "lat_count 5" in lines

    def test_histogram_quantiles(self):
        hist = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)
        p50 = hist.quantile(0.5)
        assert 1.0 <= p50 <= 2.0
        assert np.isnan(Histogram("empty").quantile(0.5))
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_snapshot_json_friendly(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h", buckets=(1.0,))
        snap = registry.snapshot()
        assert snap["c"] == 1
        assert snap["h"]["count"] == 0 and snap["h"]["p99"] is None


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=lambda: clock[0])
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        clock[0] = 1.0
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)


class TestAdmission:
    def test_queue_full_sheds(self):
        admission = AdmissionController(max_queue=2)
        assert admission.admit("a") is None
        assert admission.admit("b") is None
        assert admission.admit("c") == QUEUE_FULL
        admission.release()
        assert admission.admit("c") is None
        assert admission.stats()["shed_queue_full"] == 1

    def test_rate_limit_per_client(self):
        clock = [0.0]
        admission = AdmissionController(max_queue=10, rate=1.0, burst=1.0,
                                        clock=lambda: clock[0])
        assert admission.admit("a") is None
        assert admission.admit("a") == RATE_LIMITED
        assert admission.admit("b") is None    # separate bucket
        clock[0] = 2.0
        assert admission.admit("a") is None
        admission.forget_client("a")
        assert admission.stats()["clients"] == 1

    def test_release_underflow_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController().release()

    @pytest.mark.parametrize("rate,burst", [(0, None), (-1.0, None),
                                            (5.0, 0), (None, -2.0)])
    def test_non_positive_rate_or_burst_rejected(self, rate, burst):
        with pytest.raises(ValueError, match="rate and burst must be positive"):
            AdmissionController(rate=rate, burst=burst)

    def test_drain_rejects_and_resolves(self):
        async def scenario():
            admission = AdmissionController(max_queue=4)
            assert admission.admit("a") is None
            admission.begin_drain()
            assert admission.admit("b") == DRAINING
            waiter = asyncio.ensure_future(admission.wait_drained(1.0))
            await asyncio.sleep(0)
            assert not waiter.done()
            admission.release()
            assert await waiter is True
        asyncio.run(scenario())

    def test_drain_timeout_returns_false(self):
        async def scenario():
            admission = AdmissionController()
            admission.admit("a")
            admission.begin_drain()
            return await admission.wait_drained(0.01)
        assert asyncio.run(scenario()) is False

    def test_wait_without_drain_raises(self):
        async def scenario():
            await AdmissionController().wait_drained(0.01)
        with pytest.raises(RuntimeError):
            asyncio.run(scenario())


# ----------------------------------------------------------------------
# Protocol helpers
# ----------------------------------------------------------------------
class TestGatewaySettings:
    @pytest.mark.parametrize("setting", ["poll_interval", "idle_ttl",
                                         "lifecycle_interval"])
    @pytest.mark.parametrize("seconds", [0, -1.0])
    def test_non_positive_interval_rejected(self, setting, seconds):
        with pytest.raises(ValueError, match=f"{setting} must be positive"):
            Gateway(**{setting: seconds})


class TestProtocol:
    def test_parse_request_rejects_malformed(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            parse_request("{oops")
        with pytest.raises(ValueError, match="JSON object"):
            parse_request("[1, 2]")
        assert parse_request('{"op": "stats"}') == {"op": "stats"}

    def test_error_response_structure(self):
        response = error_response(KeyError("nodes"),
                                  {"op": "score", "id": 7})
        assert response["ok"] is False
        assert response["error_type"] == "KeyError"
        assert response["op"] == "score" and response["id"] == 7

    def test_attach_request_id(self):
        assert attach_request_id({"ok": True}, {"id": "r1"})["id"] == "r1"
        assert "id" not in attach_request_id({"ok": True}, {"op": "stats"})


# ----------------------------------------------------------------------
# Micro-batcher
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_coalesces_to_max_batch(self):
        """Concurrent requests share forward batches and the results
        are bitwise what sequential scoring produces."""
        service = make_service()
        reference = make_service()
        expected = [reference.score_node(node) for node in range(12)]

        async def scenario():
            batcher = MicroBatcher(service, max_batch=6)
            await batcher.start()
            try:
                scores = await asyncio.gather(
                    *(batcher.score_node(node) for node in range(12)))
            finally:
                await batcher.stop()
            return scores

        scores = asyncio.run(scenario())
        assert scores == expected
        # 12 concurrent requests, max_batch=6 -> 2 coalesced service
        # flushes, vs 12 for the request-at-a-time reference.
        assert service.stats()["flushes"] == 2
        assert reference.stats()["flushes"] == 12

    def test_arrivals_during_a_batch_form_the_next_batch(self):
        """Requests that arrive while a batch is scoring wait only for
        that batch, then dispatch together as the next one, and score
        bitwise what sequential scoring produces."""
        service = make_service()
        reference = make_service()
        expected = [reference.score_node(node) for node in range(6)]
        entered, release = threading.Event(), threading.Event()
        score_nodes = service.score_nodes

        def gated_score_nodes(nodes):
            if not entered.is_set():
                entered.set()
                release.wait(10.0)
            return score_nodes(nodes)

        service.score_nodes = gated_score_nodes

        async def scenario():
            loop = asyncio.get_running_loop()
            metrics = MetricsRegistry()
            batcher = MicroBatcher(service, max_batch=8, metrics=metrics)
            await batcher.start()
            try:
                first = asyncio.ensure_future(batcher.score_node(0))
                assert await loop.run_in_executor(None, entered.wait, 10.0)
                # The first batch is blocked inside score_nodes: these
                # five queue behind it.
                rest = [asyncio.ensure_future(batcher.score_node(node))
                        for node in range(1, 6)]
                await asyncio.sleep(0)
                assert metrics.get("gateway_batcher_queue_depth").value == 5
                release.set()
                scores = await asyncio.gather(first, *rest)
            finally:
                release.set()
                await batcher.stop()
            return scores, batcher

        scores, batcher = asyncio.run(scenario())
        assert scores == expected
        assert batcher.batches_dispatched == 2
        assert batcher.requests_coalesced == 6

    def test_lone_request_dispatches(self):
        service = make_service()

        async def scenario():
            batcher = MicroBatcher(service, max_batch=64)
            await batcher.start()
            try:
                return await asyncio.wait_for(batcher.score_node(0), 5.0)
            finally:
                await batcher.stop()

        assert isinstance(asyncio.run(scenario()), float)

    def test_bad_node_fails_alone(self):
        service = make_service()

        async def scenario():
            batcher = MicroBatcher(service, max_batch=4)
            await batcher.start()
            try:
                results = await asyncio.gather(
                    batcher.score_node(0),
                    batcher.score_node(10_000),
                    batcher.score_node(1),
                    return_exceptions=True)
            finally:
                await batcher.stop()
            return results

        ok0, bad, ok1 = asyncio.run(scenario())
        assert isinstance(ok0, float) and isinstance(ok1, float)
        assert isinstance(bad, IndexError)

    def test_edges_coalesce_with_nodes(self):
        service = make_service()
        reference = make_service()
        edge = tuple(int(x) for x in reference.store.edge_key(0))
        expected_edge = reference.score_edge(*edge)
        expected_node = reference.score_node(5)

        async def scenario():
            batcher = MicroBatcher(service, max_batch=4)
            await batcher.start()
            try:
                return await asyncio.gather(
                    batcher.score_edge(*edge), batcher.score_node(5))
            finally:
                await batcher.stop()

        edge_score, node_score = asyncio.run(scenario())
        assert edge_score == expected_edge
        assert node_score == expected_node

    def test_submit_serializes_mutations(self):
        service = make_service()

        async def scenario():
            batcher = MicroBatcher(service, max_batch=4)
            await batcher.start()
            try:
                before = await batcher.submit(service.stats)
                added = await batcher.submit(service.store.add_edge, 0, 30)
                after = await batcher.submit(service.stats)
            finally:
                await batcher.stop()
            return before, added, after

        before, added, after = asyncio.run(scenario())
        assert added is True
        assert after["store_version"] == before["store_version"] + 1

    def test_stop_rejects_new_work(self):
        service = make_service()

        async def scenario():
            batcher = MicroBatcher(service, max_batch=2)
            await batcher.start()
            await batcher.stop()
            with pytest.raises(RuntimeError):
                await batcher.score_node(0)

        asyncio.run(scenario())

    def test_invalid_knobs_rejected(self):
        service = make_service()
        with pytest.raises(ValueError):
            MicroBatcher(service, max_batch=0)
