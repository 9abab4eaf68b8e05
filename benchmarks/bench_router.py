#!/usr/bin/env python
"""Replica-pool routing throughput: 1 replica vs. a 4-replica pool.

A closed-loop load generator opens ``CONNS`` concurrent
NDJSON connections against two gateways built from identical services:
one with the default single in-process batcher (``replicas=1``) and one
with a :class:`repro.gateway.ReplicaPool` of ``REPLICAS``
worker processes sharing the graph read-only through POSIX shared
memory.  Aggregate sustained request rate is recorded for both.

Scores are pure functions of ``(topology, seed, target)`` — every
Monte-Carlo draw is counter-derived — so the pool can change latency
but never a score.  The report asserts bitwise equality of the replica
path AND the tenant routing path (the same requests sent through a
named service) against the single-service gateway, alongside the
throughput bar (>= 1.8x aggregate RPS at 4 replicas on >= 4 cores; on
smaller machines the absolute target is recorded as skipped while the
bitwise checks still gate).

Run standalone::

    python benchmarks/bench_router.py

Writes ``BENCH_router.json`` for the blocking CI regression gate
(``scripts/check_bench.py``).
"""

import asyncio
import json
import sys
import time

import harness

from repro.core import BourneConfig
from repro.gateway import Gateway

SCALE = 0.15
# Enough concurrency that each replica still coalesces healthy batches:
# batching efficiency, not parallelism, is what a starved replica loses
# first.
CONNS = 64
REQUESTS = 4  # per connection
# Per-request compute must dominate process-pool IPC for replicas to
# scale.
ROUNDS = 16
REPLICAS = 4
TARGET_SPEEDUP = 1.8


async def run_client(host, port, nodes, scores, service_name=None):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for node in nodes:
            request = {"op": "score", "nodes": [int(node)]}
            if service_name is not None:
                request["service"] = service_name
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            response = json.loads(await reader.readline())
            if not response.get("ok"):
                raise RuntimeError(f"request failed: {response}")
            scores[int(node)] = response["scores"][str(node)]
    finally:
        writer.close()
        await writer.wait_closed()


async def drive(host, port, nodes, service_name=None):
    """Closed loop: CONNS connections, one request in flight each."""
    scores = {}
    slices = [nodes[i::CONNS] for i in range(CONNS)]
    start = time.perf_counter()
    await asyncio.gather(*(run_client(host, port, chunk, scores, service_name)
                           for chunk in slices))
    return scores, time.perf_counter() - start


async def bench_single(graph, config, nodes):
    """Baseline: single-service gateway, one in-process batcher, plus
    the tenant routing path (same service attached under a name)."""
    gateway = Gateway(harness.build_service(graph, config), max_batch=CONNS,
                      max_queue=4 * CONNS, tracing=False)
    router = gateway.router
    router.add(router.make_endpoint("tenant-a",
                                    harness.build_service(graph, config)))
    host, port = await gateway.start("127.0.0.1", 0)
    try:
        scores, elapsed = await drive(host, port, nodes)
        tenant_scores, _ = await drive(host, port, nodes, "tenant-a")
    finally:
        await gateway.stop()
    return scores, elapsed, tenant_scores


async def bench_pool(graph, config, nodes):
    """The contender: a ReplicaPool of REPLICAS worker processes."""
    gateway = Gateway(harness.build_service(graph, config), replicas=REPLICAS,
                      max_batch=CONNS, max_queue=4 * CONNS, tracing=False)
    host, port = await gateway.start("127.0.0.1", 0)
    try:
        scores, elapsed = await drive(host, port, nodes)
        stats = gateway.router.get("default").pool_stats()
    finally:
        await gateway.stop()
    return scores, elapsed, stats


def main() -> int:
    graph = harness.cora(SCALE)
    print(f"benchmark graph: {graph}")
    config = BourneConfig(hidden_dim=32, predictor_hidden=64,
                          subgraph_size=8, eval_rounds=ROUNDS, seed=0)
    total = CONNS * REQUESTS
    nodes = list(range(total))

    single_scores, single_time, tenant_scores = asyncio.run(
        bench_single(graph, config, nodes))
    single_rps = total / single_time
    print(f"single service @ {CONNS} connections: {total} requests in "
          f"{single_time:.2f}s ({single_rps:.0f} req/s)")

    pool_scores, pool_time, pool_stats = asyncio.run(
        bench_pool(graph, config, nodes))
    pool_rps = total / pool_time
    print(f"{REPLICAS}-replica pool @ {CONNS} connections: {total} requests "
          f"in {pool_time:.2f}s ({pool_rps:.0f} req/s, dispatched "
          f"{pool_stats['dispatched']}, healthy {pool_stats['healthy']})")

    bitwise_replicas = single_scores == pool_scores
    bitwise_tenant = single_scores == tenant_scores
    speedup = pool_rps / single_rps
    report = {
        "scale": SCALE,
        "rounds": ROUNDS,
        "connections": CONNS,
        "requests": total,
        "replicas": REPLICAS,
        "cpu_count": harness.CORES,
        "single_replica_rps": round(single_rps, 2),
        "replica_pool_rps": round(pool_rps, 2),
        "replica_aggregate_speedup": round(speedup, 2),
        "replica_dispatched": pool_stats["dispatched"],
        "bitwise_equal_replicas": bitwise_replicas,
        "bitwise_equal_tenant": bitwise_tenant,
        "target_speedup": TARGET_SPEEDUP,
    }
    harness.gate_on_cores(report, bitwise_replicas and bitwise_tenant
                          and speedup >= TARGET_SPEEDUP, "speedup target")
    failures = []
    for path, scores in (("replica-pool", pool_scores),
                         ("tenant-path", tenant_scores)):
        if scores != single_scores:
            diverged = [n for n in single_scores
                        if single_scores[n] != scores.get(n)]
            failures.append(f"{path} scores diverged from single-service on "
                            f"{len(diverged)} nodes (e.g. {diverged[:5]})")
    print(f"replica pool vs single service: {speedup:.2f}x aggregate RPS "
          f"(target >= {TARGET_SPEEDUP}x at {REPLICAS} replicas), replica "
          f"and tenant paths bitwise-identical: "
          f"{bitwise_replicas and bitwise_tenant}")
    return harness.finish("router", report, failures)


if __name__ == "__main__":
    sys.exit(main())
