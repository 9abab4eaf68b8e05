"""Gateway integration tests over real sockets.

Every test boots the asyncio gateway on an ephemeral 127.0.0.1 port and
talks to it through actual TCP connections — NDJSON and HTTP — covering
the acceptance invariants: coalesced micro-batches score bitwise-equal
to sequential ``ScoringService`` calls, overload sheds with 429-style
rejections, hot-swaps happen mid-traffic with zero downtime, and
shutdown drains gracefully.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.core import Bourne, BourneConfig
from repro.gateway import Gateway
from repro.graph import Graph
from repro.serving import (
    GraphStore,
    ModelRegistry,
    ScoringService,
    StreamDriver,
    synthetic_event_stream,
)


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


def run_with_gateway(client, service=None, **gateway_kwargs):
    """Boot a gateway, run ``client(gateway, host, port)``, tear down."""
    service = service if service is not None else make_service()

    async def scenario():
        gateway = Gateway(service, **gateway_kwargs)
        host, port = await gateway.start("127.0.0.1", 0)
        try:
            return await client(gateway, host, port)
        finally:
            await gateway.stop(drain_timeout=10.0)

    return asyncio.run(scenario())


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------
async def ndjson_session(host, port, requests):
    """One connection, requests sent and answered in order."""
    reader, writer = await asyncio.open_connection(host, port)
    responses = []
    try:
        for request in requests:
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


async def ndjson_one(host, port, request):
    return (await ndjson_session(host, port, [request]))[0]


async def http_request(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode()
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode() + payload)
        await writer.drain()
        status_line = (await reader.readline()).decode()
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        body_bytes = await reader.read()
        if "content-length" in headers:
            body_bytes = body_bytes[:int(headers["content-length"])]
        return status, headers, body_bytes.decode()
    finally:
        writer.close()
        await writer.wait_closed()


# ----------------------------------------------------------------------
# Coalescing + determinism (the acceptance pin)
# ----------------------------------------------------------------------
class TestCoalescedScoring:
    def test_concurrent_clients_bitwise_equal_sequential(self):
        """THE pin: a coalesced micro-batch of concurrent score_node /
        score_edge requests returns scores bitwise-identical to the
        same requests issued sequentially against ScoringService."""
        service = make_service()
        reference = make_service()
        nodes = list(range(16))
        edges = [tuple(int(x) for x in reference.store.edge_key(eid))
                 for eid in (0, 1, 2, 3)]
        expected_nodes = [reference.score_node(n) for n in nodes]
        expected_edges = [reference.score_edge(u, v) for u, v in edges]

        async def client(gateway, host, port):
            node_jobs = [ndjson_one(host, port, {"op": "score", "nodes": [n]})
                         for n in nodes]
            edge_jobs = [ndjson_one(host, port,
                                    {"op": "score_edge", "u": u, "v": v})
                         for u, v in edges]
            return await asyncio.gather(*node_jobs, *edge_jobs)

        responses = run_with_gateway(client, service=service, max_batch=8)
        node_scores = [r["scores"][str(n)]
                       for n, r in zip(nodes, responses[:len(nodes)])]
        edge_scores = [r["score"] for r in responses[len(nodes):]]
        assert all(r["ok"] for r in responses)
        assert node_scores == expected_nodes
        assert edge_scores == expected_edges
        # Coalescing actually happened: far fewer service flushes than
        # the one-flush-per-request sequential reference.
        assert service.stats()["flushes"] < reference.stats()["flushes"]

    def test_multi_node_request_batches(self):
        service = make_service()
        reference = make_service()
        expected = reference.score_nodes(range(10))

        async def client(gateway, host, port):
            return await ndjson_one(
                host, port, {"op": "score", "nodes": list(range(10))})

        response = run_with_gateway(client, service=service, max_batch=16)
        got = np.asarray([response["scores"][str(n)] for n in range(10)])
        np.testing.assert_array_equal(got, expected)

    def test_lone_request_needs_no_batch_window(self):
        """A lone score request dispatches as soon as it is queued.
        ``max_delay_ms`` is accepted and ignored, so even a 10 s value
        cannot hold the request back."""
        service = make_service()
        expected = make_service().score_node(3)

        async def client(gateway, host, port):
            return await asyncio.wait_for(
                ndjson_one(host, port, {"op": "score", "nodes": [3]}), 2.0)

        response = run_with_gateway(client, service=service,
                                    max_delay_ms=10_000)
        assert response["ok"]
        assert response["scores"]["3"] == expected

    def test_request_id_echoed_for_pipelining(self):
        async def client(gateway, host, port):
            return await ndjson_session(host, port, [
                {"op": "score", "nodes": [0], "id": "alpha"},
                {"op": "stats", "id": 42},
            ])

        first, second = run_with_gateway(client)
        assert first["id"] == "alpha" and second["id"] == 42


# ----------------------------------------------------------------------
# NDJSON robustness
# ----------------------------------------------------------------------
class TestNdjsonTransport:
    def test_malformed_and_unknown_requests_keep_connection(self):
        async def client(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"op": "score", "nodes": [0]}\n')
                writer.write(b"{not json}\n")
                writer.write(b'[1, 2]\n')
                writer.write(b'{"op": "bogus"}\n')
                writer.write(b'{"op": "stats"}\n')
                await writer.drain()
                return [json.loads(await reader.readline())
                        for _ in range(5)]
            finally:
                writer.close()
                await writer.wait_closed()

        ok, bad_json, bad_shape, bad_op, stats = run_with_gateway(client)
        assert ok["ok"] is True
        assert bad_json["ok"] is False and "invalid JSON" in bad_json["error"]
        assert bad_shape["ok"] is False and bad_shape["error_type"] == "ValueError"
        assert bad_op["ok"] is False and "unknown op" in bad_op["error"]
        assert stats["ok"] is True and stats["stats"]["requests"] >= 1

    def test_mutations_and_refresh_over_socket(self):
        service = make_service()
        dim = service.store.num_features

        async def client(gateway, host, port):
            return await ndjson_session(host, port, [
                {"op": "add_node", "features": [0.1] * dim},
                {"op": "add_edge", "u": 0, "v": 40},
                {"op": "update_features", "node": 1,
                 "features": [0.2] * dim},
                {"op": "refresh"},
                {"op": "score", "nodes": [40]},
            ])

        added_node, added_edge, updated, refreshed, scored = \
            run_with_gateway(client, service=service)
        assert added_node["ok"] and added_node["node"] == 40
        assert added_edge["ok"] and added_edge["added"] is True
        assert updated["ok"]
        assert refreshed["ok"] and refreshed["num_nodes"] == 41
        assert scored["ok"]


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
class TestHttpTransport:
    def test_endpoints(self):
        service = make_service()
        reference = make_service()
        expected = reference.score_node(3)
        edge = tuple(int(x) for x in reference.store.edge_key(0))
        expected_edge = reference.score_edge(*edge)

        async def client(gateway, host, port):
            health = await http_request(host, port, "GET", "/healthz")
            node = await http_request(host, port, "POST", "/v1/score_node",
                                      {"node": 3})
            edge_r = await http_request(host, port, "POST", "/v1/score_edge",
                                        {"u": edge[0], "v": edge[1]})
            update = await http_request(host, port, "POST", "/v1/update",
                                        {"op": "add_edge", "u": 0, "v": 39})
            stats = await http_request(host, port, "GET", "/v1/stats")
            metrics = await http_request(host, port, "GET", "/metrics")
            missing = await http_request(host, port, "GET", "/nope")
            return health, node, edge_r, update, stats, metrics, missing

        health, node, edge_r, update, stats, metrics, missing = \
            run_with_gateway(client, service=service)
        assert health[0] == 200
        assert json.loads(health[2])["status"] == "serving"
        assert node[0] == 200
        assert json.loads(node[2])["scores"]["3"] == expected
        assert edge_r[0] == 200
        assert json.loads(edge_r[2])["score"] == expected_edge
        assert update[0] == 200 and json.loads(update[2])["added"] is True
        assert stats[0] == 200
        stats_body = json.loads(stats[2])["stats"]
        assert stats_body["requests"] >= 1 and stats_body["edge_requests"] == 1
        assert missing[0] == 404

        assert metrics[0] == 200
        assert metrics[1]["content-type"].startswith("text/plain")
        text = metrics[2]
        assert "# TYPE gateway_requests_total counter" in text
        assert "gateway_batch_size_bucket" in text
        assert "gateway_request_latency_seconds_count" in text
        assert "service_flushes" in text

    def test_http_bad_requests(self):
        async def client(gateway, host, port):
            bad_body = await http_request(host, port, "POST",
                                          "/v1/score_node", {"nope": 1})
            bad_update = await http_request(host, port, "POST", "/v1/update",
                                            {"op": "score", "nodes": [0]})
            bad_method = await http_request(host, port, "PUT", "/healthz")
            return bad_body, bad_update, bad_method

        bad_body, bad_update, bad_method = run_with_gateway(client)
        assert bad_body[0] == 400
        assert bad_update[0] == 400
        assert bad_method[0] == 405

    def test_http_keep_alive(self):
        async def client(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                statuses = []
                for _ in range(2):
                    writer.write(f"GET /healthz HTTP/1.1\r\n"
                                 f"Host: {host}\r\n\r\n".encode())
                    await writer.drain()
                    status = int((await reader.readline()).split()[1])
                    statuses.append(status)
                    length = 0
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n", b""):
                            break
                        if line.lower().startswith(b"content-length"):
                            length = int(line.split(b":")[1])
                    await reader.readexactly(length)
                return statuses
            finally:
                writer.close()
                await writer.wait_closed()

        assert run_with_gateway(client) == [200, 200]


# ----------------------------------------------------------------------
# Admission: load shedding + rate limiting
# ----------------------------------------------------------------------
class TestAdmissionIntegration:
    def test_load_shed_under_full_queue(self):
        """With a tiny admission bound and many concurrent clients,
        some requests are shed with a 429-style rejection and the rest
        complete correctly."""
        service = make_service()

        async def client(gateway, host, port):
            jobs = [ndjson_one(host, port, {"op": "score", "nodes": [n]})
                    for n in range(24)]
            return await asyncio.gather(*jobs)

        responses = run_with_gateway(client, service=service,
                                     max_queue=2, max_batch=4)
        succeeded = [r for r in responses if r["ok"]]
        shed = [r for r in responses if not r["ok"]]
        assert succeeded, "at least some requests must be admitted"
        assert shed, "queue bound of 2 must shed some of 24 concurrent"
        assert all(r["reason"] == "queue_full" and r["code"] == 429
                   for r in shed)

    def test_rate_limit_per_connection(self):
        async def client(gateway, host, port):
            return await ndjson_session(host, port, [
                {"op": "stats"}, {"op": "stats"}, {"op": "stats"}])

        responses = run_with_gateway(client, rate=0.001, burst=1.0)
        assert responses[0]["ok"] is True
        assert all(not r["ok"] and r["reason"] == "rate_limited"
                   for r in responses[1:])

    def test_shed_visible_in_metrics(self):
        async def client(gateway, host, port):
            await ndjson_session(host, port, [{"op": "stats"},
                                              {"op": "stats"}])
            return gateway.metrics.snapshot()

        snapshot = run_with_gateway(client, rate=0.001, burst=1.0)
        assert snapshot["gateway_shed_total"] == 1
        assert snapshot["gateway_requests_total"] == 2


# ----------------------------------------------------------------------
# Zero-downtime hot swap
# ----------------------------------------------------------------------
class TestHotSwap:
    def test_reload_mid_traffic(self, tmp_path):
        features, edges = random_topology()
        model_v1 = Bourne(features.shape[1], tiny_config(seed=3))
        model_v2 = Bourne(features.shape[1], tiny_config(seed=99))
        registry = ModelRegistry(str(tmp_path / "registry"))
        assert registry.publish(model_v1, "detector") == 1

        store = GraphStore.from_graph(Graph(features, edges),
                                      influence_radius=2)
        service = ScoringService(model_v1, store, rounds=1)
        ref_v1 = ScoringService(
            model_v1, GraphStore.from_graph(Graph(features, edges),
                                            influence_radius=2), rounds=1)
        ref_v2 = ScoringService(
            model_v2, GraphStore.from_graph(Graph(features, edges),
                                            influence_radius=2), rounds=1)
        expected_v1 = ref_v1.score_node(7)
        expected_v2 = ref_v2.score_node(7)

        async def client(gateway, host, port):
            before = await ndjson_one(host, port,
                                      {"op": "score", "nodes": [7]})
            registry.publish(model_v2, "detector")
            # Swap while traffic keeps flowing on other connections.
            inflight = [asyncio.ensure_future(
                ndjson_one(host, port, {"op": "score", "nodes": [n]}))
                for n in range(8)]
            await asyncio.sleep(0)  # let the requests hit the wire
            status, _, body = await http_request(host, port, "POST",
                                                 "/v1/reload", {})
            others = await asyncio.gather(*inflight)
            after = await ndjson_one(host, port,
                                     {"op": "score", "nodes": [7]})
            health = await http_request(host, port, "GET", "/healthz")
            return before, status, json.loads(body), others, after, health

        before, status, reload_body, others, after, health = \
            run_with_gateway(client, service=service,
                             registry=registry, model_name="detector",
                             model_version=1, max_batch=4)
        assert before["scores"]["7"] == expected_v1
        assert status == 200
        assert reload_body["swapped"] is True and reload_body["version"] == 2
        assert all(r["ok"] for r in others)  # zero downtime: none dropped
        assert after["scores"]["7"] == expected_v2
        assert json.loads(health[2])["model_version"] == 2

    def test_watcher_swaps_automatically(self, tmp_path):
        features, edges = random_topology()
        model_v1 = Bourne(features.shape[1], tiny_config(seed=3))
        model_v2 = Bourne(features.shape[1], tiny_config(seed=99))
        registry = ModelRegistry(str(tmp_path / "registry"))
        registry.publish(model_v1, "detector")
        store = GraphStore.from_graph(Graph(features, edges),
                                      influence_radius=2)
        service = ScoringService(model_v1, store, rounds=1)

        async def client(gateway, host, port):
            registry.publish(model_v2, "detector")
            for _ in range(100):
                await asyncio.sleep(0.05)
                if gateway.served_version == 2:
                    break
            return gateway.served_version

        version = run_with_gateway(client, service=service,
                                   registry=registry, model_name="detector",
                                   model_version=1, poll_interval=0.05)
        assert version == 2
        assert service.model.config.seed == 99

    def test_watcher_survives_a_failed_poll(self, tmp_path):
        """A poll that raises is counted and logged; a later poll still
        swaps the new version in."""
        features, edges = random_topology()
        registry = ModelRegistry(str(tmp_path / "registry"))
        registry.publish(Bourne(features.shape[1], tiny_config(seed=3)),
                         "detector")
        registry.publish(Bourne(features.shape[1], tiny_config(seed=99)),
                         "detector")
        latest = registry.latest
        polls = []

        def flaky_latest(name):
            polls.append(name)
            if len(polls) == 1:
                raise OSError("registry unreadable")
            return latest(name)

        registry.latest = flaky_latest
        store = GraphStore.from_graph(Graph(features, edges),
                                      influence_radius=2)
        service = ScoringService(registry.load("detector", 1), store,
                                 rounds=1)

        async def client(gateway, host, port):
            for _ in range(100):
                await asyncio.sleep(0.05)
                if gateway.served_version == 2:
                    break
            errors = gateway.metrics.get("gateway_request_errors_total")
            return gateway.served_version, errors.value

        version, errors = run_with_gateway(
            client, service=service, registry=registry,
            model_name="detector", model_version=1, poll_interval=0.05)
        assert version == 2 and len(polls) >= 2
        assert errors == 1
        assert service.model.config.seed == 99

    def test_reload_without_registry_is_an_error(self):
        async def client(gateway, host, port):
            return await ndjson_one(host, port, {"op": "reload"})

        response = run_with_gateway(client)
        assert response["ok"] is False
        assert "registry" in response["error"]


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_stop_completes_inflight_then_refuses(self):
        service = make_service()
        scoring, release = threading.Event(), threading.Event()
        score_nodes = service.score_nodes

        def held_score_nodes(nodes):
            scoring.set()
            release.wait(10.0)
            return score_nodes(nodes)

        service.score_nodes = held_score_nodes

        async def scenario():
            loop = asyncio.get_running_loop()
            gateway = Gateway(service, max_batch=4)
            host, port = await gateway.start("127.0.0.1", 0)
            inflight = [asyncio.ensure_future(
                ndjson_one(host, port, {"op": "score", "nodes": [n]}))
                for n in range(4)]
            # Stop while a batch is held in scoring, so at least one
            # request is still in flight when the drain begins.
            try:
                assert await loop.run_in_executor(None, scoring.wait, 10.0)
                stopping = asyncio.ensure_future(
                    gateway.stop(drain_timeout=10.0))
                await asyncio.sleep(0.05)
            finally:
                release.set()
            drained = await stopping
            responses = await asyncio.gather(*inflight,
                                             return_exceptions=True)
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection(host, port)
            return drained, responses

        drained, responses = asyncio.run(scenario())
        assert drained is True
        delivered = [r for r in responses
                     if isinstance(r, dict) and r.get("ok")]
        assert delivered, "in-flight requests must be answered during drain"

    def test_draining_gateway_sheds_with_503(self):
        service = make_service()

        async def client(gateway, host, port):
            gateway.admission.begin_drain()
            response = await ndjson_one(host, port, {"op": "stats"})
            health = await http_request(host, port, "GET", "/healthz")
            return response, health

        response, health = run_with_gateway(client, service=service)
        assert response["ok"] is False
        assert response["reason"] == "draining" and response["code"] == 503
        assert json.loads(health[2])["status"] == "draining"


# ----------------------------------------------------------------------
# Interleaved streaming workload (stream.py events over the wire)
# ----------------------------------------------------------------------
class TestStreamingWorkload:
    def test_interleaved_updates_and_scores_match_direct_service(self):
        """Replay a synthetic event stream through the gateway's update
        ops, interleaved with score requests; the final score table
        matches a twin service driven directly via StreamDriver."""
        features, edges = random_topology(n=30, m=60)
        model = Bourne(features.shape[1], tiny_config())
        service = ScoringService(
            model, GraphStore.from_graph(Graph(features, edges),
                                         influence_radius=2), rounds=1)
        twin = ScoringService(
            model, GraphStore.from_graph(Graph(features, edges),
                                         influence_radius=2), rounds=1)
        events = synthetic_event_stream(Graph(features, edges), 12,
                                        np.random.default_rng(5))
        driver = StreamDriver(twin)

        def event_request(event):
            kind = type(event).__name__
            if kind == "NodeArrived":
                return [{"op": "add_node",
                         "features": list(map(float, event.features))}] + [
                    {"op": "add_edge", "u": -1, "v": int(other)}
                    for other in event.attach_to]
            if kind == "EdgeArrived":
                return [{"op": "add_edge", "u": int(event.u),
                         "v": int(event.v)}]
            return [{"op": "update_features", "node": int(event.node),
                     "features": list(map(float, event.features))}]

        async def client(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                async def ask(request):
                    writer.write((json.dumps(request) + "\n").encode())
                    await writer.drain()
                    return json.loads(await reader.readline())

                for i, event in enumerate(events):
                    requests = event_request(event)
                    new_node = None
                    for request in requests:
                        if request["op"] == "add_edge" and request["u"] == -1:
                            request["u"] = new_node
                        response = await ask(request)
                        assert response["ok"], response
                        if request["op"] == "add_node":
                            new_node = response["node"]
                    if i % 4 == 3:
                        scored = await ask({"op": "score",
                                            "nodes": [0, 1, 2]})
                        assert scored["ok"]
                refresh = await ask({"op": "refresh"})
                assert refresh["ok"]
                return refresh
            finally:
                writer.close()
                await writer.wait_closed()

        run_with_gateway(client, service=service)

        for event in events:
            driver.apply(event)
        expected = twin.refresh()
        got = service.refresh()  # tables already fresh; no recompute
        np.testing.assert_array_equal(got.scores, expected.scores)
        assert got.num_rescored == 0
