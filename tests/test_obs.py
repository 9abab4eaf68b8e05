"""Observability tests: tracing, flight recorder, shims, and the pins.

The hard invariants of the obs subsystem:

* span trees nest correctly, across threads (``use_context``) and
  across the worker-process boundary (``capture_spans``/``adopt_spans``
  re-parenting);
* the flight recorder evicts oldest-first but retains slow/errored
  traces beyond rotation;
* histogram quantiles behave at the edges (empty, single bucket,
  beyond the last bound);
* **tracing never changes a score** — span/trace ids are counter-based,
  so every counter-based RNG stream draws identically with tracing on
  (the bitwise pins here assert it end to end);
* the gateway surfaces traces over HTTP and per-op latency histograms
  on ``/metrics``.
"""

import asyncio
import json
import logging
import math

import numpy as np
import pytest

from repro.core import Bourne, BourneConfig, score_graph
from repro.graph import Graph
from repro.obs import trace as obs_trace
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import (
    NOOP_SPAN,
    FlightRecorder,
    adopt_spans,
    capture_spans,
    record_span,
    span_tree,
    stage_table,
)
from repro.serving import GraphStore, ScoringService


# ----------------------------------------------------------------------
# Fixtures / helpers
# ----------------------------------------------------------------------
def tiny_config(**overrides):
    base = dict(hidden_dim=8, predictor_hidden=16, subgraph_size=4,
                hop_size=2, epochs=1, eval_rounds=2, batch_size=16, seed=3)
    base.update(overrides)
    return BourneConfig(**base)


def random_graph(seed=7, n=40, d=6, m=90):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return Graph(features, np.array(sorted(edges)))


def make_service(rounds=1, seed=3):
    graph = random_graph()
    model = Bourne(graph.num_features, tiny_config(seed=seed))
    store = GraphStore.from_graph(graph, influence_radius=2)
    return ScoringService(model, store, rounds=rounds)


@pytest.fixture
def recorder():
    """An installed flight recorder, uninstalled after the test."""
    rec = FlightRecorder(capacity=64, slow_ms=1e9)
    previous = obs_trace.install(rec)
    yield rec
    obs_trace.uninstall(previous)


# ----------------------------------------------------------------------
# Span basics
# ----------------------------------------------------------------------
class TestSpanBasics:
    def test_disabled_path_is_shared_noop(self):
        with obs_trace.clear_context():
            assert obs_trace.span("anything") is NOOP_SPAN
            assert not obs_trace.active()
            assert obs_trace.current_ids() is None
            # NOOP span accepts the full Span surface
            with obs_trace.span("x") as sp:
                sp.set(a=1)
            assert sp.trace is None

    def test_trace_without_recorder_is_noop(self):
        with obs_trace.clear_context():
            previous = obs_trace.get_recorder()
            obs_trace.uninstall()
            try:
                assert obs_trace.trace("t") is NOOP_SPAN
            finally:
                obs_trace.uninstall(previous)

    def test_nesting_builds_parent_child_tree(self, recorder):
        with obs_trace.trace("root") as root:
            root.set(kind="test")
            with obs_trace.span("a"):
                with obs_trace.span("a.1"):
                    pass
            with obs_trace.span("b"):
                pass
        record = recorder.traces()[0]
        tree = span_tree(record)
        assert tree["num_spans"] == 4
        (top,) = tree["roots"]
        assert top["name"] == "root"
        assert top["attrs"] == {"kind": "test"}
        assert [c["name"] for c in top["children"]] == ["a", "b"]
        (grand,) = top["children"][0]["children"]
        assert grand["name"] == "a.1"

    def test_exception_marks_span_and_trace_errored(self, recorder):
        with pytest.raises(ValueError):
            with obs_trace.trace("boom"):
                with obs_trace.span("inner"):
                    raise ValueError("expected")
        record = recorder.traces()[0]
        assert record["status"] == "error"
        inner = next(s for s in record["spans"] if s["name"] == "inner")
        assert inner["status"] == "error"
        assert "expected" in inner["attrs"]["error"]

    def test_nested_trace_degrades_to_child_span(self, recorder):
        with obs_trace.trace("outer"):
            with obs_trace.trace("inner"):
                pass
        assert len(recorder.traces()) == 1  # one trace, not two
        names = {s["name"] for s in recorder.traces()[0]["spans"]}
        assert names == {"outer", "inner"}

    def test_current_ids_and_use_context(self, recorder):
        with obs_trace.trace("root") as root:
            ids = obs_trace.current_ids()
            assert ids == (root.trace.trace_id, root.span_id)
            ctx = obs_trace.current_context()
        # outside the trace: nothing current
        assert obs_trace.current_ids() is None
        # explicit adoption (the executor-thread handoff)
        with obs_trace.use_context(ctx):
            assert obs_trace.current_ids() == ids
        assert obs_trace.current_ids() is None

    def test_ids_are_counter_based_not_random(self, recorder):
        with obs_trace.trace("a") as ra:
            pass
        with obs_trace.trace("b") as rb:
            pass
        pid_a, counter_a = ra.span_id.split("-")
        pid_b, counter_b = rb.span_id.split("-")
        assert pid_a == pid_b
        assert int(counter_b, 16) > int(counter_a, 16)


# ----------------------------------------------------------------------
# Cross-boundary shipping
# ----------------------------------------------------------------------
class TestCaptureAdopt:
    def test_capture_then_adopt_reparents_under_current_span(self, recorder):
        with capture_spans("worker.root", shard=3) as shipped:
            with obs_trace.span("worker.stage"):
                pass
        assert {s["name"] for s in shipped} == {"worker.root", "worker.stage"}
        root_record = next(s for s in shipped if s["parent_id"] is None)
        assert root_record["attrs"] == {"shard": 3}

        with obs_trace.trace("parent") as parent:
            adopted = adopt_spans(shipped)
            assert adopted == 2
        record = recorder.traces()[0]
        tree = span_tree(record)
        (top,) = tree["roots"]
        (worker_root,) = [c for c in top["children"]
                          if c["name"] == "worker.root"]
        # the capture root was re-parented under the adopting span and
        # its whole subtree joined the adopting trace
        assert worker_root["trace_id"] == parent.trace.trace_id
        assert [c["name"] for c in worker_root["children"]] == ["worker.stage"]

    def test_adopt_outside_trace_is_lossy_not_fatal(self):
        with capture_spans() as shipped:
            with obs_trace.span("s"):
                pass
        with obs_trace.clear_context():
            assert adopt_spans(shipped) == 0

    def test_capture_isolates_from_enclosing_trace(self, recorder):
        with obs_trace.trace("outer"):
            with capture_spans("inner.root") as shipped:
                with obs_trace.span("inner.child"):
                    pass
        outer = recorder.traces()[0]
        names = {s["name"] for s in outer["spans"]}
        assert "inner.child" not in names  # captured, not recorded
        assert {s["name"] for s in shipped} == {"inner.root", "inner.child"}

    def test_record_span_appends_pretimed_record(self, recorder):
        with obs_trace.trace("root") as root:
            record_span(root, "waited", 1.0, 0.25, kind="node")
        spans = recorder.traces()[0]["spans"]
        waited = next(s for s in spans if s["name"] == "waited")
        assert waited["duration_ms"] == pytest.approx(250.0)
        assert waited["parent_id"] == root.span_id
        assert waited["attrs"] == {"kind": "node"}
        # no-op against the disabled path's span
        record_span(NOOP_SPAN, "x", 0.0, 0.0)
        record_span(None, "x", 0.0, 0.0)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    @staticmethod
    def _trace(trace_id, duration_ms=1.0, status="ok", ts=0.0):
        return {"trace_id": trace_id, "name": "t", "duration_ms": duration_ms,
                "status": status, "ts": ts, "spans": []}

    def test_ring_evicts_oldest(self):
        rec = FlightRecorder(capacity=4, slow_ms=1e9)
        for i in range(10):
            rec.record(self._trace(f"t{i}", ts=float(i)))
        retained = [t["trace_id"] for t in rec.traces()]
        assert retained == ["t9", "t8", "t7", "t6"]
        assert rec.get("t0") is None
        assert rec.get("t9") is not None

    def test_slow_and_errored_survive_rotation(self):
        rec = FlightRecorder(capacity=4, slow_ms=100.0, slow_capacity=4)
        rec.record(self._trace("slow", duration_ms=500.0, ts=0.0))
        rec.record(self._trace("bad", status="error", ts=1.0))
        for i in range(20):  # rotate the main ring many times over
            rec.record(self._trace(f"fast{i}", duration_ms=1.0,
                                   ts=2.0 + i))
        assert rec.get("slow") is not None
        assert rec.get("bad") is not None
        slow_only = rec.traces(slow_ms=100.0)
        assert {t["trace_id"] for t in slow_only} == {"slow", "bad"}
        stats = rec.stats()
        assert stats["recorded"] == 22
        assert stats["slow_recorded"] == 2
        assert stats["retained"] == 4

    def test_traces_limit_and_clear(self):
        rec = FlightRecorder(capacity=8, slow_ms=1e9)
        for i in range(5):
            rec.record(self._trace(f"t{i}", ts=float(i)))
        assert len(rec.traces(limit=2)) == 2
        rec.clear()
        assert rec.traces() == []

    def test_rejects_degenerate_capacities(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(slow_capacity=0)


# ----------------------------------------------------------------------
# Histogram quantile edges
# ----------------------------------------------------------------------
class TestHistogramQuantiles:
    def test_empty_histogram_is_nan(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        assert math.isnan(hist.quantile(0.5))

    def test_single_bucket_interpolates_from_zero(self):
        hist = Histogram("h", buckets=(10.0,))
        hist.observe(3.0)
        hist.observe(7.0)
        # both observations in [0, 10): median interpolates inside it
        assert 0.0 < hist.quantile(0.5) <= 10.0
        assert hist.quantile(1.0) == pytest.approx(10.0)

    def test_overflow_observations_clamp_to_last_bound(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        for _ in range(10):
            hist.observe(100.0)  # all beyond the last finite bound
        assert hist.quantile(0.5) == pytest.approx(2.0)
        assert hist.quantile(0.99) == pytest.approx(2.0)

    def test_quantile_bounds_validated(self):
        hist = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_interpolation_mid_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            hist.observe(v)
        # rank 2 of 4 falls in the (1, 2] bucket
        q = hist.quantile(0.5)
        assert 1.0 <= q <= 2.0


# ----------------------------------------------------------------------
# Structured logging correlation
# ----------------------------------------------------------------------
class TestJsonLogging:
    def _json_logger(self, name):
        import io

        from repro.utils.logging import JsonFormatter

        logger = logging.getLogger(name)
        logger.handlers.clear()
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonFormatter())
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        logger.propagate = False
        return logger, stream

    def test_log_inside_trace_carries_ids(self, recorder):
        logger, stream = self._json_logger("test.obs.traced")
        with obs_trace.trace("root") as root:
            logger.info("hello")
        payload = json.loads(stream.getvalue())
        assert payload["msg"] == "hello"
        assert payload["trace_id"] == root.trace.trace_id
        assert payload["span_id"] == root.span_id

    def test_log_outside_trace_has_no_ids(self):
        logger, stream = self._json_logger("test.obs.untraced")
        with obs_trace.clear_context():
            logger.warning("plain")
        payload = json.loads(stream.getvalue())
        assert payload["level"] == "WARNING"
        assert "trace_id" not in payload

    def test_log_event_attaches_extra_fields(self):
        from repro.utils.logging import log_event

        logger, stream = self._json_logger("test.obs.fields")
        log_event(logger, logging.INFO, "evt", client="1.2.3.4:5", n=3)
        payload = json.loads(stream.getvalue())
        assert payload["client"] == "1.2.3.4:5"
        assert payload["n"] == 3
        assert "mono" in payload


# ----------------------------------------------------------------------
# Bitwise pins: tracing must not perturb any RNG stream
# ----------------------------------------------------------------------
class TestTracingBitwisePins:
    def test_score_graph_identical_with_tracing_on(self):
        graph = random_graph()
        config = tiny_config()
        baseline = score_graph(Bourne(graph.num_features, config), graph,
                               rounds=2)

        rec = FlightRecorder(capacity=16, slow_ms=1e9)
        previous = obs_trace.install(rec)
        try:
            with obs_trace.trace("score.run"):
                traced = score_graph(Bourne(graph.num_features, config),
                                     graph, rounds=2)
        finally:
            obs_trace.uninstall(previous)

        np.testing.assert_array_equal(baseline.node_scores,
                                      traced.node_scores)
        np.testing.assert_array_equal(baseline.edge_scores,
                                      traced.edge_scores)
        # and the trace actually observed the scoring stages
        names = {s["name"] for s in rec.traces()[0]["spans"]}
        assert "scoring.forward" in names
        assert "sampling.enclosing_subgraphs" in names

    def test_service_scores_identical_with_tracing_on(self):
        nodes = list(range(8))
        baseline = make_service().score_nodes(nodes)

        rec = FlightRecorder(capacity=16, slow_ms=1e9)
        previous = obs_trace.install(rec)
        try:
            with obs_trace.trace("serve.run"):
                traced = make_service().score_nodes(nodes)
        finally:
            obs_trace.uninstall(previous)
        np.testing.assert_array_equal(np.asarray(baseline),
                                      np.asarray(traced))

    def test_training_identical_with_tracing_on(self):
        graph = random_graph()
        config = tiny_config(epochs=1)

        from repro.core import train_bourne

        _, hist_plain = train_bourne(graph, config)

        rec = FlightRecorder(capacity=64, slow_ms=1e9)
        previous = obs_trace.install(rec)
        try:
            _, hist_traced = train_bourne(graph, config)
        finally:
            obs_trace.uninstall(previous)
        assert hist_plain.losses == hist_traced.losses
        names = {s["name"]
                 for t in rec.traces() for s in t["spans"]}
        assert {"train.forward", "train.backward",
                "train.optimize"} <= names


# ----------------------------------------------------------------------
# Worker-boundary integration: sharded refresh ships spans home
# ----------------------------------------------------------------------
class TestShardedRefreshSpans:
    def test_workers_refresh_spans_adopted_into_parent_trace(self):
        service = make_service()
        baseline_service = make_service()
        baseline = baseline_service.refresh()

        rec = FlightRecorder(capacity=16, slow_ms=1e9)
        previous = obs_trace.install(rec)
        try:
            with obs_trace.trace("refresh.run"):
                sharded = service.refresh(workers=2)
        finally:
            obs_trace.uninstall(previous)

        np.testing.assert_array_equal(baseline.scores, sharded.scores)

        record = rec.traces()[0]
        spans = record["spans"]
        names = {s["name"] for s in spans}
        assert "parallel.refresh" in names
        assert "parallel.refresh_shard" in names
        # worker spans crossed the process boundary with their own pids
        shard_roots = [s for s in spans
                       if s["name"] == "parallel.refresh_shard"]
        parent_pids = {s["pid"] for s in spans
                       if s["name"] == "parallel.refresh"}
        assert all(s["pid"] not in parent_pids for s in shard_roots)
        # every shipped record was rewritten onto the adopting trace
        assert {s["trace_id"] for s in spans} == {record["trace_id"]}
        # and re-parented under the fan-out span
        fan_out = next(s for s in spans if s["name"] == "parallel.refresh")
        assert {s["parent_id"] for s in shard_roots} == {fan_out["span_id"]}

    def test_untraced_refresh_ships_nothing(self):
        service = make_service()
        with obs_trace.clear_context():
            result = service.refresh(workers=2)
        assert result.num_rescored > 0  # plain result, no recorder needed


# ----------------------------------------------------------------------
# Gateway surface: /v1/trace, /v1/traces, per-op histograms
# ----------------------------------------------------------------------
class TestGatewayTraceSurface:
    def _run(self, client, **gateway_kwargs):
        from repro.gateway import Gateway

        service = make_service()

        async def scenario():
            gateway = Gateway(service, **gateway_kwargs)
            host, port = await gateway.start("127.0.0.1", 0)
            try:
                return await client(gateway, host, port)
            finally:
                await gateway.stop(drain_timeout=10.0)

        return asyncio.run(scenario())

    @staticmethod
    async def _http(host, port, method, path, body=None):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            payload = json.dumps(body).encode() if body is not None else b""
            head = (f"{method} {path} HTTP/1.1\r\n"
                    f"Host: {host}\r\nContent-Length: {len(payload)}\r\n"
                    f"Connection: close\r\n\r\n")
            writer.write(head.encode() + payload)
            await writer.drain()
            status = int((await reader.readline()).split()[1])
            while (await reader.readline()) not in (b"\r\n", b"\n", b""):
                pass
            return status, (await reader.read()).decode()
        finally:
            writer.close()
            await writer.wait_closed()

    def test_trace_endpoint_returns_full_span_tree(self):
        async def client(gateway, host, port):
            status, body = await self._http(
                host, port, "POST", "/v1/score_node", {"node": 1})
            assert status == 200
            response = json.loads(body)
            trace_id = response["trace_id"]
            status, body = await self._http(
                host, port, "GET", f"/v1/trace/{trace_id}")
            assert status == 200
            return json.loads(body)["trace"]

        tree = self._run(client)
        names = set()

        def walk(node):
            names.add(node["name"])
            for child in node.get("children", ()):
                walk(child)

        for root in tree["roots"]:
            walk(root)
        # the acceptance path: gateway -> batcher -> service -> sampling
        # -> forward, all present in one request tree
        assert {"gateway.score", "batcher.batch", "batcher.coalesce",
                "service.score_span", "sampling.enclosing_subgraphs",
                "scoring.forward"} <= names

    def test_traces_listing_and_unknown_id(self):
        async def client(gateway, host, port):
            for node in (0, 1):
                await self._http(host, port, "POST", "/v1/score_node",
                                 {"node": node})
            status, body = await self._http(
                host, port, "GET", "/v1/traces?slow_ms=0&limit=10")
            assert status == 200
            listing = json.loads(body)
            status, _ = await self._http(host, port, "GET",
                                         "/v1/trace/nope-123")
            assert status == 404
            status, _ = await self._http(host, port, "GET",
                                         "/v1/traces?slow_ms=bogus")
            assert status == 400
            return listing

        listing = self._run(client)
        assert listing["recorder"]["recorded"] >= 2
        assert len(listing["traces"]) >= 2
        for summary in listing["traces"]:
            assert summary["num_spans"] > 0

    def test_traces_negative_limit_rejected(self):
        async def client(gateway, host, port):
            for node in range(5):
                await self._http(host, port, "POST", "/v1/score_node",
                                 {"node": node})
            replies = {}
            for limit in (-1, -4, 0, 2):
                status, body = await self._http(
                    host, port, "GET", f"/v1/traces?limit={limit}")
                replies[limit] = (status, json.loads(body))
            return replies

        replies = self._run(client)
        for limit in (-1, -4):
            status, body = replies[limit]
            assert status == 400
            assert body["ok"] is False
            assert body["error_type"] == "BadRequest"
            assert f"limit={limit}" in body["error"]
        assert replies[0][0] == 200 and replies[0][1]["traces"] == []
        assert replies[2][0] == 200 and len(replies[2][1]["traces"]) == 2

    def test_tracing_disabled_gateway(self):
        async def client(gateway, host, port):
            status, body = await self._http(
                host, port, "POST", "/v1/score_node", {"node": 1})
            assert status == 200
            assert "trace_id" not in json.loads(body)
            status, _ = await self._http(host, port, "GET", "/v1/traces")
            assert status == 404
            return True

        assert self._run(client, tracing=False)

    def test_per_op_histograms_on_metrics(self):
        async def client(gateway, host, port):
            await self._http(host, port, "POST", "/v1/score_node",
                             {"node": 2})
            await self._http(host, port, "POST", "/v1/update",
                             {"op": "add_edge", "u": 0, "v": 9})
            status, body = await self._http(host, port, "GET", "/metrics")
            assert status == 200
            return body

        text = self._run(client)
        assert "gateway_op_latency_seconds_score_bucket" in text
        assert "gateway_op_latency_seconds_add_edge_count 1" in text

    def test_unknown_op_clamps_to_other(self):
        async def client(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "nonsense"}\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            assert not response["ok"]
            status, body = await self._http(host, port, "GET", "/metrics")
            return body

        text = self._run(client)
        assert "gateway_op_latency_seconds_other_count 1" in text
        assert "gateway_op_latency_seconds_nonsense" not in text


# ----------------------------------------------------------------------
# Stage table (the `repro trace --profile` aggregation)
# ----------------------------------------------------------------------
class TestStageTable:
    def test_aggregates_by_stage_sorted_by_total(self):
        traces = [{
            "trace_id": "t1", "duration_ms": 10.0, "spans": [
                {"name": "a", "duration_ms": 6.0},
                {"name": "b", "duration_ms": 1.0},
                {"name": "a", "duration_ms": 3.0},
            ],
        }]
        rows = stage_table(traces)
        assert [r["stage"] for r in rows] == ["a", "b"]
        top = rows[0]
        assert top["calls"] == 2
        assert top["total_ms"] == pytest.approx(9.0)
        assert top["mean_ms"] == pytest.approx(4.5)
        assert top["max_ms"] == pytest.approx(6.0)
        assert top["share"] == pytest.approx(0.9)

    def test_empty_input(self):
        assert stage_table([]) == []


# ----------------------------------------------------------------------
# Metrics registry odds and ends the promotion added
# ----------------------------------------------------------------------
class TestRegistrySurface:
    def test_names_lists_registered_metrics(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.gauge("a_now")
        assert registry.names() == ["a_now", "b_total"]
