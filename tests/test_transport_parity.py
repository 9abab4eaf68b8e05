"""Error-body parity between the NDJSON and HTTP transports.

The transport contract: every error — handler failures, admission
rejections, routing misses, and transport-level framing problems —
answers with the same ``{"ok": false, "error", "error_type", "code"}``
envelope on both transports, and over HTTP the status line equals the
envelope's ``code``.  Lines on stdin answer exactly as NDJSON lines
do.  These tests sweep every error path through the wires and diff
the envelopes, plus the two HTTP framing bugfixes:
a request body larger than the NDJSON line cap (1 MiB) is rejected
with 413 *without reading the body*, and a negative or non-numeric
Content-Length gets a 400 envelope instead of a dead connection.
"""

import asyncio
import io
import json
import os

import numpy as np
import pytest

from repro.core import Bourne, BourneConfig
from repro.gateway import Gateway, run_gateway
from repro.gateway.server import _MAX_LINE
from repro.graph import Graph
from repro.serving import GraphStore, ScoringService


def tiny_config(**overrides):
    base = dict(hidden_dim=8, predictor_hidden=16, subgraph_size=4,
                hop_size=2, epochs=1, eval_rounds=2, batch_size=16, seed=3)
    base.update(overrides)
    return BourneConfig(**base)


def make_service(rounds=1, seed=3):
    rng = np.random.default_rng(7)
    features = rng.normal(size=(40, 6))
    edges = set()
    while len(edges) < 90:
        u, v = rng.integers(0, 40, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    model = Bourne(features.shape[1], tiny_config(seed=seed))
    store = GraphStore.from_graph(Graph(features, np.array(sorted(edges))),
                                  influence_radius=2)
    return ScoringService(model, store, rounds=rounds)


def run_with_gateway(client, **gateway_kwargs):
    async def scenario():
        gateway = Gateway(make_service(), **gateway_kwargs)
        host, port = await gateway.start("127.0.0.1", 0)
        try:
            return await client(gateway, host, port)
        finally:
            await gateway.stop(drain_timeout=10.0)

    return asyncio.run(scenario())


async def ndjson_raw(host, port, line: str) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write((line + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


async def ndjson_one(host, port, request: dict) -> dict:
    return await ndjson_raw(host, port, json.dumps(request))


async def http_raw(host, port, head: str, payload: bytes = b""):
    """Send a hand-built HTTP request; returns (status, parsed body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(head.encode() + payload)
        await writer.drain()
        status_line = await asyncio.wait_for(reader.readline(), timeout=10)
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        body = await reader.read()
        if "content-length" in headers:
            body = body[:int(headers["content-length"])]
        return status, json.loads(body) if body else None
    finally:
        writer.close()
        await writer.wait_closed()


async def http_post(host, port, path, body, extra_headers=""):
    payload = json.dumps(body).encode() if isinstance(body, dict) \
        else (body or b"")
    head = (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra_headers}Connection: close\r\n\r\n")
    return await http_raw(host, port, head, payload)


ENVELOPE_KEYS = {"ok", "error", "error_type", "code"}


def assert_envelope(response: dict) -> None:
    missing = ENVELOPE_KEYS - set(response)
    assert not missing, f"error envelope missing {missing}: {response}"
    assert response["ok"] is False
    assert isinstance(response["error"], str) and response["error"]
    assert isinstance(response["error_type"], str)
    assert isinstance(response["code"], int)


def strip_transport_fields(response: dict) -> dict:
    """Drop per-request fields (trace ids) before diffing envelopes."""
    return {k: v for k, v in response.items() if k not in ("trace_id", "id")}


#: Handler-level error paths expressed as (ndjson request, http route).
#: Each pair must produce byte-identical envelopes on both transports.
HANDLER_ERRORS = [
    ("missing-field", {"op": "add_edge"}, "/v1/update"),
    ("node-out-of-range", {"op": "score", "nodes": [9999]},
     "/v1/score_node"),
    ("missing-edge", {"op": "score_edge", "u": 1, "v": 2},
     "/v1/score_edge"),
    ("bad-features-shape",
     {"op": "update_features", "node": 0, "features": [1.0, 2.0]},
     "/v1/update"),
    ("unknown-service",
     {"op": "score", "nodes": [0], "service": "ghost"}, "/v1/score_node"),
    ("bad-service-type",
     {"op": "score", "nodes": [0], "service": 7}, "/v1/score_node"),
    ("detach-unknown",
     {"op": "detach_service", "name": "ghost"}, "/v1/admin"),
    # A request may not size a refresh pool past the host's cores; the
    # bound is checked before any worker process is started.
    ("refresh-zero-workers", {"op": "refresh", "workers": 0}, "/v1/update"),
    ("refresh-workers-over-cores",
     {"op": "refresh", "workers": (os.cpu_count() or 1) + 1}, "/v1/update"),
    # Ids must be JSON integers: int() would read "12" as nodes 1 and 2,
    # 2.7 as node 2, true as node 1 and (1.9, 6.2) as edge (1, 6).
    ("nodes-string", {"op": "score", "nodes": "12"}, "/v1/score_node"),
    ("node-float", {"op": "score", "nodes": [2.7]}, "/v1/score_node"),
    ("node-bool", {"op": "score", "nodes": [True]}, "/v1/score_node"),
    ("edge-float-ends", {"op": "score_edge", "u": 1.9, "v": 6.2},
     "/v1/score_edge"),
    ("add-edge-string-ends", {"op": "add_edge", "u": "0", "v": "5"},
     "/v1/update"),
    ("update-float-node",
     {"op": "update_features", "node": 3.5, "features": [0.0] * 6},
     "/v1/update"),
]


class TestHandlerErrorParity:
    @pytest.mark.parametrize("label,request_body,http_path",
                             [(e[0], e[1], e[2]) for e in HANDLER_ERRORS])
    def test_same_envelope_on_both_transports(self, label, request_body,
                                              http_path):
        async def scenario(gateway, host, port):
            ndjson = await ndjson_one(host, port, request_body)
            status, http = await http_post(host, port, http_path,
                                           request_body)
            assert_envelope(ndjson)
            assert_envelope(http)
            assert status == http["code"]
            assert strip_transport_fields(ndjson) \
                == strip_transport_fields(http)
            return True

        assert run_with_gateway(scenario, tracing=False)

    def test_stdin_lines_answer_the_ndjson_envelope(self, tmp_path):
        """``serve`` without ``--listen``: each request as a stdin line
        gets the envelope the same line gets over an NDJSON connection."""
        async def scenario(gateway, host, port):
            return [await ndjson_one(host, port, request_body)
                    for _, request_body, _ in HANDLER_ERRORS]

        expected = run_with_gateway(scenario, tracing=False)
        requests = tmp_path / "requests.jsonl"
        requests.write_text("".join(json.dumps(request_body) + "\n"
                                    for _, request_body, _ in HANDLER_ERRORS))
        out = io.StringIO()
        fd = os.open(requests, os.O_RDONLY)
        try:
            asyncio.run(run_gateway(make_service(), stdin=fd, out=out,
                                    tracing=False))
        finally:
            os.close(fd)
        ready, *responses = [json.loads(line)
                             for line in out.getvalue().splitlines()]
        assert ready["op"] == "ready" and "listen" not in ready
        assert len(responses) == len(HANDLER_ERRORS)
        for (label, _, _), stdin, ndjson in zip(HANDLER_ERRORS, responses,
                                                expected):
            assert_envelope(stdin)
            assert strip_transport_fields(stdin) \
                == strip_transport_fields(ndjson), label

    def test_unknown_op_skips_update_route_guard(self):
        """The /v1/update route pre-validates ops; the NDJSON transport
        reaches the dispatcher.  Both still answer 400 with the
        envelope — the shapes differ only in wording."""
        async def scenario(gateway, host, port):
            ndjson = await ndjson_one(host, port, {"op": "warp"})
            status, http = await http_post(host, port, "/v1/update",
                                           {"op": "warp"})
            assert_envelope(ndjson)
            assert_envelope(http)
            assert ndjson["code"] == status == 400
            return True

        assert run_with_gateway(scenario, tracing=False)

    def test_invalid_json_parity(self):
        async def scenario(gateway, host, port):
            ndjson = await ndjson_raw(host, port, "{nope")
            status, http = await http_post(host, port, "/v1/score_node",
                                           b"{nope")
            assert_envelope(ndjson)
            assert_envelope(http)
            assert ndjson["error_type"] == http["error_type"] == "ValueError"
            assert ndjson["code"] == status == 400
            return True

        assert run_with_gateway(scenario, tracing=False)

    def test_error_code_map_on_wire(self):
        """IndexError → 404, KeyError → 400, both transports."""
        async def scenario(gateway, host, port):
            oob = await ndjson_one(host, port,
                                   {"op": "score", "nodes": [9999]})
            assert oob["error_type"] == "IndexError" and oob["code"] == 404
            status, http = await http_post(host, port, "/v1/score_node",
                                           {"node": 9999})
            assert status == 404 and http["error_type"] == "IndexError"
            missing = await ndjson_one(host, port,
                                       {"op": "score_edge", "u": 1, "v": 2})
            assert missing["error_type"] == "KeyError"
            assert missing["code"] == 400
            return True

        assert run_with_gateway(scenario, tracing=False)


class TestAdmissionParity:
    def test_draining_rejection_same_envelope(self):
        async def scenario(gateway, host, port):
            gateway.admission.begin_drain()
            ndjson = await ndjson_one(host, port,
                                      {"op": "score", "nodes": [0]})
            status, http = await http_post(host, port, "/v1/score_node",
                                           {"node": 0})
            for response in (ndjson, http):
                assert_envelope(response)
                assert response["error_type"] == "AdmissionRejected"
                assert response["reason"] == "draining"
                assert response["code"] == 503
            assert status == 503
            assert strip_transport_fields(ndjson) \
                == strip_transport_fields(http)
            return True

        assert run_with_gateway(scenario, tracing=False)

    def test_rate_limited_rejection_same_envelope(self):
        """Rate limits are per-connection, so the burst must reuse one
        socket — a persistent NDJSON session and an HTTP keep-alive
        session both run dry and both answer the 429 envelope."""
        async def scenario(gateway, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            ndjson = []
            try:
                for _ in range(12):
                    writer.write(
                        (json.dumps({"op": "score", "nodes": [0]}) + "\n")
                        .encode())
                    await writer.drain()
                    response = json.loads(await reader.readline())
                    if not response.get("ok"):
                        ndjson.append(response)
            finally:
                writer.close()
                await writer.wait_closed()

            http = await self._http_keepalive_burst(host, port, 12)
            assert ndjson and http  # both transports saw rejections
            for response in ndjson + http:
                assert_envelope(response)
                assert response["error_type"] == "AdmissionRejected"
                assert response["reason"] == "rate_limited"
                assert response["code"] == 429
            assert strip_transport_fields(ndjson[0]) \
                == strip_transport_fields(http[0])
            return True

        assert run_with_gateway(scenario, tracing=False, rate=1.0,
                                burst=2.0)

    @staticmethod
    async def _http_keepalive_burst(host, port, count):
        payload = json.dumps({"node": 0}).encode()
        head = (f"POST /v1/score_node HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: keep-alive\r\n\r\n")
        reader, writer = await asyncio.open_connection(host, port)
        rejected = []
        try:
            for _ in range(count):
                writer.write(head.encode() + payload)
                await writer.drain()
                status_line = await asyncio.wait_for(reader.readline(),
                                                     timeout=10)
                if not status_line:
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                body = await reader.readexactly(
                    int(headers.get("content-length", 0)))
                response = json.loads(body)
                if not response.get("ok"):
                    rejected.append(response)
                if headers.get("connection", "").lower() == "close":
                    break
        finally:
            writer.close()
            await writer.wait_closed()
        return rejected


class TestHttpTransportErrors:
    """HTTP-only paths still answer with the standard envelope."""

    def test_framing_errors_carry_envelope(self):
        async def scenario(gateway, host, port):
            cases = []
            status, body = await http_raw(
                host, port,
                f"GET /nope HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: close\r\n\r\n")
            cases.append((404, "NotFound", status, body))
            status, body = await http_raw(
                host, port,
                f"PUT /v1/score_node HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: close\r\n\r\n")
            cases.append((405, "MethodNotAllowed", status, body))
            status, body = await http_post(
                host, port, "/v1/score_node", {"nope": 1})
            cases.append((400, "BadRequest", status, body))
            status, body = await http_post(
                host, port, "/v1/update", {"op": "score"})
            cases.append((400, "BadRequest", status, body))
            status, body = await http_post(
                host, port, "/v1/admin", {"op": "score"})
            cases.append((400, "BadRequest", status, body))
            for expected_status, expected_type, status, body in cases:
                assert status == expected_status
                assert_envelope(body)
                assert body["error_type"] == expected_type
                assert body["code"] == expected_status
            return True

        assert run_with_gateway(scenario, tracing=False)

    def test_oversized_body_rejected_before_read(self):
        """A Content-Length over the 1 MiB cap answers 413 WITHOUT
        reading the body: the response arrives even though the declared
        body is never sent."""
        async def scenario(gateway, host, port):
            declared = _MAX_LINE + 1
            status, body = await http_raw(
                host, port,
                f"POST /v1/score_node HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {declared}\r\n"
                "Connection: keep-alive\r\n\r\n")  # body intentionally absent
            assert status == 413
            assert_envelope(body)
            assert body["error_type"] == "PayloadTooLarge"
            assert body["code"] == 413
            assert str(_MAX_LINE) in body["error"]
            return True

        assert run_with_gateway(scenario, tracing=False)

    def test_body_at_cap_still_accepted(self):
        """Boundary: exactly _MAX_LINE bytes is not rejected by the cap
        (the request proceeds to normal JSON handling)."""
        async def scenario(gateway, host, port):
            request = {"op": "score", "nodes": [0],
                       "pad": "x" * (_MAX_LINE - 60)}
            payload = json.dumps(request).encode()
            assert len(payload) <= _MAX_LINE
            head = (f"POST /v1/update HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n")
            status, body = await http_raw(host, port, head, payload)
            assert status != 413  # hits the update-op guard, not the cap
            assert_envelope(body)
            return True

        assert run_with_gateway(scenario, tracing=False)

    def test_negative_content_length_gets_400(self):
        """A negative Content-Length used to crash the connection with
        no response (readexactly(-5) raises); now it's a 400 envelope."""
        async def scenario(gateway, host, port):
            status, body = await http_raw(
                host, port,
                f"POST /v1/score_node HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Length: -5\r\n"
                "Connection: close\r\n\r\n")
            assert status == 400
            assert_envelope(body)
            assert body["error_type"] == "BadRequest"
            assert "-5" in body["error"]
            return True

        assert run_with_gateway(scenario, tracing=False)

    def test_non_numeric_content_length_gets_400(self):
        async def scenario(gateway, host, port):
            status, body = await http_raw(
                host, port,
                f"POST /v1/score_node HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Length: lots\r\n"
                "Connection: close\r\n\r\n")
            assert status == 400
            assert_envelope(body)
            assert body["error_type"] == "BadRequest"
            return True

        assert run_with_gateway(scenario, tracing=False)

    def test_success_paths_unaffected(self):
        """The same requests that error above succeed when well-formed
        (guards reject only what they should)."""
        async def scenario(gateway, host, port):
            ndjson = await ndjson_one(host, port,
                                      {"op": "score", "nodes": [0]})
            assert ndjson["ok"]
            status, body = await http_post(host, port, "/v1/score_node",
                                           {"node": 0})
            assert status == 200 and body["ok"]
            assert ndjson["scores"]["0"] == body["scores"]["0"]
            return True

        assert run_with_gateway(scenario, tracing=False)
