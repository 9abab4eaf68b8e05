#!/usr/bin/env python
"""Gateway throughput: coalesced micro-batching vs. sequential scoring.

A closed-loop load generator opens ``CONNS`` concurrent TCP
connections to a live :class:`repro.gateway.Gateway` and drives one
score request at a time per connection over distinct target nodes,
recording sustained throughput and per-request tail latency.  The
baseline is sequential ``ScoringService.score_nodes`` calls: the same
requests answered one at a time, JSON round trip included.

Both paths must return bitwise-identical scores — the service derives
every draw from ``(seed, round, target)``, so coalescing can change
latency but never a score — and the report asserts that equality
alongside the throughput bar (>= 2x at concurrency >= 8).

Run standalone::

    python benchmarks/bench_gateway.py

Writes ``BENCH_gateway.json`` for the blocking CI regression gate
(``scripts/check_bench.py``).
"""

import asyncio
import json
import sys
import time

import harness
import numpy as np

from repro.core import BourneConfig
from repro.gateway import Gateway

SCALE = 0.15
CONNS = 8
REQUESTS = 16  # per connection
ROUNDS = 2
TARGET_SPEEDUP = 2.0


def bench_sequential(service, nodes):
    """The sequential baseline: one request, one response, repeat."""
    scores = {}
    start = time.perf_counter()
    for node in nodes:
        request = json.loads(json.dumps({"op": "score", "nodes": [int(node)]}))
        answered = service.score_nodes(request["nodes"])
        response = json.loads(json.dumps({
            "ok": True, "op": "score",
            "scores": {str(n): float(score)
                       for n, score in zip(request["nodes"], answered)}}))
        scores[int(node)] = response["scores"][str(node)]
    elapsed = time.perf_counter() - start
    return scores, elapsed


async def run_client(host, port, nodes, latencies, scores):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for node in nodes:
            started = time.perf_counter()
            writer.write((json.dumps({"op": "score",
                                      "nodes": [int(node)]}) + "\n").encode())
            await writer.drain()
            response = json.loads(await reader.readline())
            latencies.append(time.perf_counter() - started)
            if not response.get("ok"):
                raise RuntimeError(f"request failed: {response}")
            scores[int(node)] = response["scores"][str(node)]
    finally:
        writer.close()
        await writer.wait_closed()


async def bench_gateway(service, nodes):
    """Closed-loop load: CONNS connections, one request in flight each."""
    gateway = Gateway(service, max_batch=CONNS, max_queue=4 * CONNS)
    host, port = await gateway.start("127.0.0.1", 0)
    latencies, scores = [], {}
    slices = [nodes[i::CONNS] for i in range(CONNS)]
    try:
        start = time.perf_counter()
        await asyncio.gather(*(run_client(host, port, chunk, latencies, scores)
                               for chunk in slices))
        elapsed = time.perf_counter() - start
    finally:
        await gateway.stop()
    batch_hist = gateway.metrics.get("gateway_batch_size")
    mean_batch = batch_hist.sum / batch_hist.total if batch_hist.total else 0.0
    return scores, elapsed, latencies, mean_batch


def main() -> int:
    graph = harness.cora(SCALE)
    print(f"benchmark graph: {graph}")
    config = BourneConfig(hidden_dim=32, predictor_hidden=64,
                          subgraph_size=8, eval_rounds=ROUNDS, seed=0)
    total = CONNS * REQUESTS
    nodes = list(range(total))

    sequential = harness.build_service(graph, config)
    seq_scores, seq_time = bench_sequential(sequential, nodes)
    seq_rps = total / seq_time
    print(f"sequential score_nodes: {total} requests in {seq_time:.2f}s "
          f"({seq_rps:.0f} req/s, {sequential.stats()['flushes']} flushes)")

    served = harness.build_service(graph, config)
    gw_scores, gw_time, latencies, mean_batch = asyncio.run(
        bench_gateway(served, nodes))
    gw_rps = total / gw_time
    latencies_ms = np.sort(np.asarray(latencies)) * 1000.0
    p50 = float(np.percentile(latencies_ms, 50))
    p99 = float(np.percentile(latencies_ms, 99))
    print(f"gateway @ {CONNS} connections: {total} requests in {gw_time:.2f}s "
          f"({gw_rps:.0f} req/s, mean batch {mean_batch:.1f}, "
          f"p50 {p50:.1f}ms, p99 {p99:.1f}ms, "
          f"{served.stats()['flushes']} flushes)")

    bitwise_equal = seq_scores == gw_scores
    speedup = gw_rps / seq_rps
    ok = bitwise_equal and speedup >= TARGET_SPEEDUP
    report = {
        "scale": SCALE,
        "rounds": ROUNDS,
        "connections": CONNS,
        "requests": total,
        "sequential_rps": round(seq_rps, 2),
        "gateway_rps": round(gw_rps, 2),
        "coalesced_vs_sequential_speedup": round(speedup, 2),
        "mean_batch_size": round(mean_batch, 2),
        "latency_p50_ms": round(p50, 2),
        "latency_p99_ms": round(p99, 2),
        "bitwise_equal": bitwise_equal,
        "target_speedup": TARGET_SPEEDUP,
        "pass": ok,
    }
    failures = []
    if not bitwise_equal:
        diverged = [n for n in seq_scores if seq_scores[n] != gw_scores.get(n)]
        failures.append(f"coalesced scores diverged from sequential on "
                        f"{len(diverged)} nodes (e.g. {diverged[:5]})")
    print(f"coalesced vs sequential: {speedup:.2f}x "
          f"(target >= {TARGET_SPEEDUP:.0f}x), "
          f"scores bitwise-identical: {bitwise_equal}")
    return harness.finish("gateway", report, failures)


if __name__ == "__main__":
    sys.exit(main())
