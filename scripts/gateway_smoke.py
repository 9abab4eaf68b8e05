#!/usr/bin/env python
"""Gateway smoke test: boot the real CLI server, fire mixed traffic.

First, stdin: a request file piped into ``python -m repro serve
--replicas 2`` (no ``--listen``) must answer through the gateway —
the ready line, a 400 envelope for a malformed line, a two-replica
pool in ``stats`` — with node and edge scores bitwise those of a
``--replicas 1`` session, and exit 0 at end of input; a second stdin
session that stays open must drain and exit 0 on SIGINT.  Then it
launches ``python -m repro serve --listen`` as a subprocess (registry
source, ephemeral port) and exercises the full surface over real
sockets: concurrent NDJSON scoring, mutations, HTTP endpoints
(``/healthz``, ``/metrics``, ``/v1/score_node``, ``/v1/score_edge``,
``/v1/update``), a zero-downtime hot-swap via ``/v1/reload``, and a
graceful SIGINT shutdown.  A second boot exercises the routing layer:
``--replicas 3 --tenants`` brings up a replica pool plus two lazy
tenants, drives mixed traffic across all of them, SIGKILLs one replica
mid-run (traffic must survive, scores must stay bitwise-stable), and
attaches/detaches a service under load.  A third boot exercises the
continual-learning loop: ``--autotrain policy.json`` starts the
lifecycle controller, a feature-drift burst must trigger a background
retrain that validates and hot-swaps with scoring alive throughout, a
NaN model published behind the controller's back must be guarded and
rolled back automatically, and pause/resume work over both transports.
Exits non-zero on the first failed check — the CI gateway-smoke job
runs this against every push.
"""

import asyncio
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core import Bourne, BourneConfig  # noqa: E402
from repro.datasets import load_benchmark  # noqa: E402
from repro.eval import normalize_graph  # noqa: E402
from repro.serving import ModelRegistry  # noqa: E402

DATASET, SCALE = "cora", 0.08


def check(condition, message):
    if not condition:
        raise AssertionError(message)
    print(f"  ok: {message}")


async def ndjson_session(host, port, requests):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        responses = []
        for request in requests:
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
        return responses
    finally:
        writer.close()
        await writer.wait_closed()


async def http_request(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        writer.write((f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                      f"Content-Length: {len(payload)}\r\n"
                      f"Connection: close\r\n\r\n").encode() + payload)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        return status, (await reader.read()).decode()
    finally:
        writer.close()
        await writer.wait_closed()


async def drive(host, port, registry_dir, model_v2):
    print("mixed NDJSON traffic (concurrent connections)...")
    jobs = [ndjson_session(host, port, [{"op": "score", "nodes": [n]}])
            for n in range(12)]
    responses = [r for batch in await asyncio.gather(*jobs) for r in batch]
    check(all(r["ok"] for r in responses), "12 concurrent scores answered")

    mixed = await ndjson_session(host, port, [
        {"op": "add_edge", "u": 0, "v": 7},
        {"op": "score_edge", "u": 0, "v": 7},
        {"op": "stats"},
        {"op": "bogus"},
    ])
    check(mixed[0]["ok"], "add_edge applied")
    check(mixed[1]["ok"] and isinstance(mixed[1]["score"], float),
          "score_edge answered")
    check(mixed[2]["stats"]["requests"] >= 12, "stats over the wire")
    check(mixed[3]["ok"] is False, "unknown op rejected, connection alive")

    print("HTTP endpoints...")
    status, body = await http_request(host, port, "GET", "/healthz")
    check(status == 200 and json.loads(body)["status"] == "serving",
          "/healthz serving")
    status, body = await http_request(host, port, "POST", "/v1/score_node",
                                      {"node": 3})
    check(status == 200 and "3" in json.loads(body)["scores"],
          "/v1/score_node")
    status, body = await http_request(host, port, "POST", "/v1/score_edge",
                                      {"u": 0, "v": 7})
    check(status == 200, "/v1/score_edge")
    status, body = await http_request(host, port, "POST", "/v1/update",
                                      {"op": "update_features", "node": 1,
                                       "features": json.loads(
                                           os.environ["SMOKE_FEATURES"])})
    check(status == 200, "/v1/update update_features")
    status, body = await http_request(host, port, "GET", "/metrics")
    check(status == 200 and "gateway_requests_total" in body
          and "gateway_batch_size_bucket" in body, "/metrics Prometheus text")
    check("gateway_op_latency_seconds_score_bucket" in body
          and "gateway_op_latency_seconds_add_edge_count" in body,
          "/metrics per-op latency histograms")

    print("request tracing...")
    # A node no earlier check scored: a score-table miss, so the trace
    # shows the full sampling + forward path rather than a table hit.
    status, body = await http_request(host, port, "GET", "/healthz")
    fresh_node = json.loads(body)["num_nodes"] - 1
    status, body = await http_request(host, port, "POST", "/v1/score_node",
                                      {"node": fresh_node})
    trace_id = json.loads(body).get("trace_id")
    check(status == 200 and trace_id, "score response carries trace_id")
    status, body = await http_request(host, port, "GET",
                                      f"/v1/trace/{trace_id}")
    tree = json.loads(body)
    check(status == 200 and tree["ok"], "/v1/trace/<id> returns the trace")
    names = set()
    pending = list(tree["trace"]["roots"])
    while pending:
        node = pending.pop()
        names.add(node["name"])
        pending.extend(node.get("children", ()))
    check({"gateway.score", "batcher.coalesce",
           "scoring.forward"} <= names,
          "span tree covers gateway -> batcher -> forward")
    status, body = await http_request(host, port, "GET",
                                      "/v1/traces?slow_ms=0&limit=5")
    listing = json.loads(body)
    check(status == 200 and listing["recorder"]["recorded"] > 0
          and len(listing["traces"]) > 0, "/v1/traces lists retained traces")

    print("streaming ingest across compaction...")
    status, body = await http_request(host, port, "GET", "/healthz")
    num_nodes = json.loads(body)["num_nodes"]
    stride = max(2, num_nodes // 4)
    probe_u, probe_v = 2, 2 + stride
    first = await ndjson_session(host, port, [
        {"op": "add_edge", "u": probe_u, "v": probe_v}])
    check(first[0]["ok"], "probe edge added")
    # Burst fresh edges (with scores interleaved on every connection)
    # until the store's compaction threshold trips — the burst count
    # needed depends on the dataset's base edge count, so adapt.
    candidates = iter([(u, u + d) for d in range(stride + 1, num_nodes)
                       for u in range(num_nodes - d)])
    stats = {}
    for round_no in range(60):
        requests = [{"op": "add_edge", "u": u, "v": v}
                    for u, v in (next(candidates) for _ in range(15))]
        requests.append({"op": "score", "nodes": [round_no % num_nodes]})
        requests.append({"op": "stats"})
        burst = await ndjson_session(host, port, requests)
        if not all(r["ok"] for r in burst):
            raise AssertionError(f"ingest burst {round_no} failed")
        stats = burst[-1]["stats"]
        if stats["store_compactions"] >= 1:
            break
    check(stats.get("store_compactions", 0) >= 1,
          f"threshold compaction fired under live scoring "
          f"({stats.get('store_compactions')}x, "
          f"pending={stats.get('store_pending_edges')})")
    before = await ndjson_session(
        host, port, [{"op": "score_edge", "u": probe_u, "v": probe_v}])
    status, body = await http_request(host, port, "POST", "/v1/update",
                                      {"op": "compact"})
    compacted = json.loads(body)
    check(status == 200 and compacted["ok"]
          and compacted["pending_edges"] == 0, "/v1/update explicit compact")
    after = await ndjson_session(
        host, port, [{"op": "score_edge", "u": probe_u, "v": probe_v}])
    check(before[0]["score"] == after[0]["score"],
          "score_edge bitwise-stable across explicit compaction")

    print("zero-downtime hot swap...")
    version = ModelRegistry(registry_dir).publish(model_v2, "smoke")
    inflight = [asyncio.ensure_future(
        ndjson_session(host, port, [{"op": "score", "nodes": [n]}]))
        for n in range(8)]
    status, body = await http_request(host, port, "POST", "/v1/reload", {})
    reload_body = json.loads(body)
    check(status == 200 and reload_body["swapped"]
          and reload_body["version"] == version, "reload swapped to v2")
    during = [r for batch in await asyncio.gather(*inflight) for r in batch]
    check(all(r["ok"] for r in during), "traffic during swap unharmed")
    status, body = await http_request(host, port, "GET", "/healthz")
    check(json.loads(body)["model_version"] == version,
          "healthz reports new version")


async def drive_router(host, port, registry_dir):
    print("tenant routing...")
    status, body = await http_request(host, port, "GET", "/healthz")
    payload = json.loads(body)
    check(status == 200 and payload["status"] == "serving",
          "router server serving")
    check(set(payload["lazy_services"]) == {"tenant-a", "tenant-b"},
          "tenants registered lazily, not booted")

    jobs = []
    for n in range(6):
        for service in ("tenant-a", "tenant-b", None):
            request = {"op": "score", "nodes": [n]}
            if service:
                request["service"] = service
            jobs.append(ndjson_session(host, port, [request]))
    responses = [r for batch in await asyncio.gather(*jobs) for r in batch]
    check(all(r["ok"] for r in responses),
          "mixed traffic across two tenants + default answered")

    status, body = await http_request(host, port, "POST",
                                      "/v1/t/tenant-a/score_node",
                                      {"node": 1})
    check(status == 200 and json.loads(body)["ok"],
          "/v1/t/<tenant>/ path prefix routes")
    status, body = await http_request(host, port, "GET", "/v1/services")
    names = [s["service"] for s in json.loads(body)["services"]]
    check({"default", "tenant-a", "tenant-b"} <= set(names),
          "tenants booted on first use, listed in /v1/services")

    print("replica respawn (SIGKILL mid-run)...")
    stats = (await ndjson_session(host, port,
                                  [{"op": "stats"}]))[0]["stats"]
    pool = stats["replica_pool"]
    killed = pool["pids"][0]
    check(pool["replicas"] == 3 and len(pool["pids"]) == 3,
          "default service runs a 3-replica pool")
    baseline = (await ndjson_session(
        host, port, [{"op": "score", "nodes": [5]}]))[0]
    hammer = [asyncio.ensure_future(
        ndjson_session(host, port, [{"op": "score", "nodes": [n % 20]}]))
        for n in range(24)]
    os.kill(killed, signal.SIGKILL)
    results = [r for batch in await asyncio.gather(*hammer) for r in batch]
    check(all(r["ok"] for r in results),
          "24 in-flight scores survived a replica SIGKILL")
    after = await ndjson_session(host, port, [
        {"op": "score", "nodes": [5]}, {"op": "stats"}])
    check(after[0]["scores"]["5"] == baseline["scores"]["5"],
          "scores bitwise-stable across the respawn")
    pool = after[1]["stats"]["replica_pool"]
    check(len(pool["pids"]) == 3 and killed not in pool["pids"]
          and pool["respawns"] >= 1,
          f"killed replica replaced (pids={pool['pids']}, "
          f"respawns={pool['respawns']})")

    print("live attach/detach...")
    attach = await ndjson_session(host, port, [
        {"op": "attach_service", "name": "hot",
         "spec": {"registry": registry_dir, "model_name": "smoke",
                  "dataset": DATASET, "scale": SCALE, "seed": 9,
                  "rounds": 1}}])
    check(attach[0]["ok"] and attach[0].get("attached"),
          "attach_service booted a new service under live traffic")
    hot = await ndjson_session(host, port, [
        {"op": "score", "nodes": [0], "service": "hot"}])
    check(hot[0]["ok"], "attached service scores")
    detach = await ndjson_session(host, port, [
        {"op": "detach_service", "name": "hot"}])
    check(detach[0]["ok"], "detach_service removed it")
    gone = await ndjson_session(host, port, [
        {"op": "score", "nodes": [0], "service": "hot"}])
    check(gone[0]["ok"] is False and gone[0]["code"] == 400,
          "detached service no longer routable")


async def drive_autotrain(host, port, registry_dir):
    print("lifecycle surface...")
    status, body = await http_request(host, port, "GET", "/healthz")
    payload = json.loads(body)
    base_version = payload["model_version"]
    check(status == 200 and payload.get("lifecycle") == "idle",
          "healthz reports the controller idle")
    status, body = await http_request(host, port, "GET", "/v1/lifecycle")
    lifecycle = json.loads(body)
    check(status == 200 and lifecycle["ok"]
          and lifecycle["state"] == "idle"
          and lifecycle["counters"]["triggers"] == 0,
          "GET /v1/lifecycle status")

    print("drift burst -> automatic retrain -> hot swap...")
    features = json.loads(os.environ["SMOKE_FEATURES"])
    burst = await ndjson_session(host, port, [
        {"op": "update_features", "node": n,
         "features": [f + 0.5 for f in features]}
        for n in range(8)])
    check(all(r["ok"] for r in burst), "8-node feature-drift burst applied")
    swapped, scored = None, 0
    for _ in range(600):
        probe = await ndjson_session(host, port, [
            {"op": "score", "nodes": [scored % 20]},
            {"op": "lifecycle_status"}])
        check(probe[0]["ok"], "scoring alive during the retrain cycle")
        scored += 1
        status, body = await http_request(host, port, "GET", "/healthz")
        health = json.loads(body)
        counters = probe[1]["counters"]
        if (counters["retrains_completed"] >= 1
                and health["model_version"] > base_version):
            swapped = health["model_version"]
            break
        await asyncio.sleep(0.2)
    check(swapped is not None and counters["triggers"] >= 1
          and counters["validations_accepted"] >= 1,
          f"drift triggered a background retrain; candidate validated and "
          f"hot-swapped (v{base_version} -> v{swapped}, "
          f"{scored} live scores meanwhile)")
    status, body = await http_request(host, port, "GET", "/metrics")
    check(status == 200 and "lifecycle_triggers" in body
          and "lifecycle_retrains_completed" in body,
          "/metrics exports lifecycle counters")

    print("regressed publish -> guardrail -> automatic rollback...")
    registry = ModelRegistry(registry_dir)
    bad = registry.load("smoke", swapped)
    next(iter(bad.online.named_parameters()))[1].data[...] = float("nan")
    bad_version = registry.publish(bad, "smoke")
    restored = None
    for _ in range(600):
        status, body = await http_request(host, port, "GET", "/healthz")
        health = json.loads(body)
        lifecycle = (await ndjson_session(
            host, port, [{"op": "lifecycle_status"}]))[0]
        if (lifecycle["counters"]["rollbacks"] >= 1
                and health["model_version"] > bad_version):
            restored = health["model_version"]
            break
        await asyncio.sleep(0.2)
    check(restored is not None and lifecycle["last_guard"]["regressed"],
          f"guardrail caught the NaN model and rolled back "
          f"(v{bad_version} -> v{restored})")
    after = await ndjson_session(host, port, [{"op": "score", "nodes": [3]}])
    check(after[0]["ok"] and math.isfinite(after[0]["scores"]["3"]),
          "scores finite again after rollback")

    print("pause/resume over the wire...")
    status, body = await http_request(host, port, "POST", "/v1/lifecycle",
                                      {"action": "pause"})
    check(status == 200 and json.loads(body)["ok"], "POST /v1/lifecycle pause")
    paused = await ndjson_session(host, port, [{"op": "lifecycle_status"}])
    check(paused[0]["state"] == "paused", "controller paused")
    resumed = await ndjson_session(host, port, [
        {"op": "lifecycle", "action": "resume"},
        {"op": "lifecycle_status"}])
    check(resumed[0]["ok"] and resumed[1]["state"] == "idle",
          "NDJSON lifecycle resume")


def serve_command(registry_dir, *extra):
    return [sys.executable, "-m", "repro", "serve",
            "--registry", registry_dir, "--name", "smoke",
            "--dataset", DATASET, "--scale", str(SCALE), "--rounds", "1",
            *extra]


def stdin_scores(responses):
    return [r.get("scores", r.get("score")) for r in responses
            if r.get("op") in ("score", "score_edge")]


def stdin_phase(registry_dir, env):
    requests = [json.dumps(r) for r in (
        {"op": "score", "nodes": [0, 1, 2, 3]},
        {"op": "add_edge", "u": 0, "v": 7},
        {"op": "score_edge", "u": 0, "v": 7},
        {"op": "score", "nodes": [0, 7, 11]},
        {"op": "stats"},
    )]
    lines = requests[:1] + ["{not json"] + requests[1:]
    runs = {}
    for replicas in (1, 2):
        print(f"stdin: python -m repro serve --replicas {replicas} "
              "< requests ...")
        done = subprocess.run(
            serve_command(registry_dir, "--replicas", str(replicas)),
            input="".join(line + "\n" for line in lines),
            capture_output=True, env=env, text=True, timeout=120)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
        check(done.returncode == 0,
              f"--replicas {replicas} exits 0 at end of input")
        runs[replicas] = [json.loads(line)
                          for line in done.stdout.splitlines()]
    ready, *responses = runs[2]
    check(ready["op"] == "ready" and "listen" not in ready,
          "stdin session announced readiness without a socket")
    check(len(responses) == len(lines), "one response line per request")
    malformed = responses[1]
    check(malformed["ok"] is False and malformed["code"] == 400
          and malformed["error_type"] == "ValueError",
          "malformed line answered with the 400 envelope")
    check(responses[-1]["stats"]["replica_pool"]["replicas"] == 2,
          "stats shows a 2-replica pool behind stdin")
    check(all(r["ok"] for r in responses if r is not malformed),
          "every well-formed request answered")
    scores = stdin_scores(responses)
    check(len(scores) == 3 and scores == stdin_scores(runs[1][1:]),
          "node and edge scores bitwise those of --replicas 1")

    print("stdin: SIGINT on an open session...")
    process = subprocess.Popen(
        serve_command(registry_dir, "--replicas", "2"),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, text=True)
    try:
        check(json.loads(process.stdout.readline())["op"] == "ready",
              "open stdin session announced readiness")
        process.stdin.write(requests[0] + "\n")
        process.stdin.flush()
        answered = json.loads(process.stdout.readline())
        check(answered["ok"] and answered["scores"] == runs[1][1]["scores"],
              "open session answered a score")
        process.send_signal(signal.SIGINT)
        code = process.wait(timeout=30)
        check(code == 0, f"SIGINT drained the open session (code {code})")
    except Exception:
        process.kill()
        _, stderr = process.communicate(timeout=10)
        print("--- stdin server stderr ---", file=sys.stderr)
        print(stderr, file=sys.stderr)
        raise
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        process.stdin.close()


def autotrain_phase(tmp, registry_dir, env):
    policy_path = os.path.join(tmp, "autotrain.json")
    with open(policy_path, "w") as handle:
        json.dump({"drift_threshold": 0.05, "mutation_threshold": 6,
                   "check_interval_s": 0.2, "epochs": 1,
                   "probe_size": 8, "auc_margin": 1.0}, handle)
    print("\nbooting: python -m repro serve --autotrain ...")
    process = subprocess.Popen(
        serve_command(registry_dir, "--listen", "127.0.0.1:0",
                      "--max-batch", "8", "--max-queue", "64",
                      "--poll-interval", "0.2", "--autotrain", policy_path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        ready = json.loads(process.stdout.readline())
        check(ready["op"] == "ready", "autotrain server announced readiness")
        host, port = ready["listen"].rsplit(":", 1)
        asyncio.run(drive_autotrain(host, int(port), registry_dir))

        print("graceful shutdown (SIGINT)...")
        process.send_signal(signal.SIGINT)
        code = process.wait(timeout=30)
        check(code == 0, f"clean exit (code {code})")
    except Exception:
        process.kill()
        _, stderr = process.communicate(timeout=10)
        print("--- autotrain server stderr ---", file=sys.stderr)
        print(stderr, file=sys.stderr)
        raise
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def router_phase(tmp, registry_dir, env):
    spec_path = os.path.join(tmp, "tenants.json")
    with open(spec_path, "w") as handle:
        json.dump({"tenants": [
            {"name": "tenant-a", "registry": registry_dir,
             "model_name": "smoke", "dataset": DATASET, "scale": SCALE,
             "seed": 0, "rounds": 1},
            {"name": "tenant-b", "registry": registry_dir,
             "model_name": "smoke", "dataset": DATASET, "scale": SCALE,
             "seed": 5, "rounds": 1},
        ]}, handle)
    print("\nbooting: python -m repro serve --replicas 3 --tenants ...")
    process = subprocess.Popen(
        serve_command(registry_dir, "--listen", "127.0.0.1:0",
                      "--max-batch", "8", "--max-queue", "64",
                      "--replicas", "3", "--tenants", spec_path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        ready = json.loads(process.stdout.readline())
        check(ready["op"] == "ready", "router server announced readiness")
        check(ready["lazy_services"] == ["tenant-a", "tenant-b"],
              "readiness lists lazy tenants")
        host, port = ready["listen"].rsplit(":", 1)
        asyncio.run(drive_router(host, int(port), registry_dir))

        print("graceful shutdown (SIGINT)...")
        process.send_signal(signal.SIGINT)
        code = process.wait(timeout=30)
        check(code == 0, f"clean exit (code {code})")
    except Exception:
        process.kill()
        _, stderr = process.communicate(timeout=10)
        print("--- router server stderr ---", file=sys.stderr)
        print(stderr, file=sys.stderr)
        raise
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def main() -> int:
    graph = normalize_graph(load_benchmark(DATASET, seed=0, scale=SCALE))
    config = BourneConfig(hidden_dim=16, predictor_hidden=32, subgraph_size=4,
                          eval_rounds=1, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        registry_dir = os.path.join(tmp, "registry")
        registry = ModelRegistry(registry_dir)
        registry.publish(Bourne(graph.num_features, config), "smoke")
        model_v2 = Bourne(graph.num_features,
                          BourneConfig(hidden_dim=16, predictor_hidden=32,
                                       subgraph_size=4, eval_rounds=1,
                                       seed=99))
        os.environ["SMOKE_FEATURES"] = json.dumps(
            [0.1] * graph.num_features)

        env = dict(os.environ)
        env["PYTHONPATH"] = (os.path.join(ROOT, "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        stdin_phase(registry_dir, env)
        print("\nbooting: python -m repro serve --listen 127.0.0.1:0 ...")
        process = subprocess.Popen(
            serve_command(registry_dir, "--listen", "127.0.0.1:0",
                          "--max-batch", "8", "--max-queue", "64",
                          "--compact-threshold", "0.05"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True)
        try:
            ready = json.loads(process.stdout.readline())
            check(ready["op"] == "ready", "server announced readiness")
            host, port = ready["listen"].rsplit(":", 1)
            asyncio.run(drive(host, int(port), registry_dir, model_v2))

            print("graceful shutdown (SIGINT)...")
            process.send_signal(signal.SIGINT)
            code = process.wait(timeout=30)
            check(code == 0, f"clean exit (code {code})")
        except Exception:
            process.kill()
            _, stderr = process.communicate(timeout=10)
            print("--- server stderr ---", file=sys.stderr)
            print(stderr, file=sys.stderr)
            raise
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

        router_phase(tmp, registry_dir, env)
        autotrain_phase(tmp, registry_dir, env)
    print("\ngateway smoke test PASSED")
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    try:
        code = main()
    except AssertionError as error:
        print(f"\ngateway smoke test FAILED: {error}", file=sys.stderr)
        code = 1
    print(f"({time.perf_counter() - start:.1f}s)")
    sys.exit(code)
