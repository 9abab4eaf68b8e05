#!/usr/bin/env python
"""Tracing overhead: gateway throughput with the flight recorder on vs off.

The observability bar for PR 6 is concrete: request tracing must cost
the gateway **less than 5% throughput** when enabled, and must not
change a single score (tracing ids are counter-based, never drawn from
an RNG, so the counter-based sampling/augmentation streams are
untouched).  This bench drives the same closed-loop load as
``bench_gateway.py`` twice over identical node sets — once with
``tracing=False`` and once with the default flight recorder installed —
and reports ``traced_vs_untraced_speedup`` (>= 0.95 passes; 1.0 means
free).  Runs come in ``REPEATS`` back-to-back pairs with
the order *balanced* (off-then-on on even pairs, on-then-off on odd
ones) and the reported ratio is the median of per-pair ratios — on a
shared 1-core box the run-to-run noise (~10%) dwarfs the true tracing
cost, and balanced pairing is what stops slow-machine minutes from
masquerading as tracing overhead.

Run standalone::

    python benchmarks/bench_obs.py

Writes ``BENCH_obs.json`` for the blocking CI regression gate
(``scripts/check_bench.py``).
"""

import asyncio
import json
import sys
import time

import harness

from repro.core import BourneConfig
from repro.gateway import Gateway
from repro.obs import trace as obs_trace

SCALE = 0.1
CONNS = 4
REQUESTS = 96  # per connection
ROUNDS = 1
REPEATS = 5
MAX_OVERHEAD = 0.05  # tracing may cost at most 5% throughput


async def run_client(host, port, nodes, scores):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for node in nodes:
            writer.write((json.dumps({"op": "score",
                                      "nodes": [int(node)]}) + "\n").encode())
            await writer.drain()
            response = json.loads(await reader.readline())
            if not response.get("ok"):
                raise RuntimeError(f"request failed: {response}")
            scores[int(node)] = response["scores"][str(node)]
    finally:
        writer.close()
        await writer.wait_closed()


async def drive_gateway(service, nodes, tracing):
    """One closed-loop run; returns (scores, elapsed, recorded_traces)."""
    gateway = Gateway(service, max_batch=CONNS, max_queue=4 * CONNS,
                      tracing=tracing)
    host, port = await gateway.start("127.0.0.1", 0)
    scores = {}
    slices = [nodes[i::CONNS] for i in range(CONNS)]
    try:
        start = time.perf_counter()
        await asyncio.gather(*(run_client(host, port, chunk, scores)
                               for chunk in slices))
        elapsed = time.perf_counter() - start
    finally:
        await gateway.stop()
    recorded = (gateway.recorder.stats()["recorded"]
                if gateway.recorder is not None else 0)
    return scores, elapsed, recorded


def run_once(graph, config, nodes, tracing):
    """One closed-loop run on a fresh service (identical score-table
    state in both modes); returns ``(rps, scores, recorded)``."""
    service = harness.build_service(graph, config)
    scores, elapsed, recorded = asyncio.run(
        drive_gateway(service, nodes, tracing))
    return len(nodes) / elapsed, scores, recorded


def main() -> int:
    graph = harness.cora(SCALE)
    print(f"benchmark graph: {graph}")
    config = BourneConfig(hidden_dim=32, predictor_hidden=64,
                          subgraph_size=8, eval_rounds=ROUNDS, seed=0)
    total = CONNS * REQUESTS
    # Nodes repeat modulo the graph: repeats are version-aware table
    # hits — the cheapest requests, i.e. the ones where fixed tracing
    # overhead weighs the most, so reuse makes the bar *harder*.
    nodes = [i % graph.num_nodes for i in range(total)]

    if obs_trace.enabled():
        raise SystemExit("a flight recorder is already installed; "
                         "bench must start from the disabled state")

    off_runs, on_runs, ratios = [], [], []
    off_scores = on_scores = None
    recorded = 0
    for pair in range(REPEATS):
        order = ((False, True) if pair % 2 == 0 else (True, False))
        pair_rps = {}
        for tracing in order:
            rps, scores, run_recorded = run_once(graph, config, nodes,
                                                 tracing=tracing)
            pair_rps[tracing] = rps
            if tracing:
                on_runs.append(rps)
                on_scores = scores
                recorded = max(recorded, run_recorded)
            else:
                off_runs.append(rps)
                off_scores = scores
        ratios.append(pair_rps[True] / pair_rps[False])
        print(f"pair {pair + 1}/{REPEATS}: off {pair_rps[False]:.0f} req/s, "
              f"on {pair_rps[True]:.0f} req/s "
              f"(ratio {ratios[-1]:.3f})")
    ratios.sort()
    speedup = ratios[len(ratios) // 2]  # median pair ratio
    off_rps = sorted(off_runs)[len(off_runs) // 2]
    on_rps = sorted(on_runs)[len(on_runs) // 2]
    print(f"median of {REPEATS} pairs: tracing off {off_rps:.0f} req/s, "
          f"tracing on {on_rps:.0f} req/s, pair ratio {speedup:.3f} "
          f"({recorded} traces recorded)")

    bitwise_equal = off_scores == on_scores
    ok = bitwise_equal and speedup >= (1.0 - MAX_OVERHEAD) and recorded > 0
    report = {
        "scale": SCALE,
        "rounds": ROUNDS,
        "connections": CONNS,
        "requests": total,
        "repeats": REPEATS,
        "untraced_rps": round(off_rps, 2),
        "traced_rps": round(on_rps, 2),
        "traced_vs_untraced_speedup": round(speedup, 3),
        "traces_recorded": recorded,
        "bitwise_equal": bitwise_equal,
        "target_speedup": 1.0 - MAX_OVERHEAD,
        "pass": ok,
    }
    failures = []
    if not bitwise_equal:
        diverged = [n for n in off_scores if off_scores[n] != on_scores.get(n)]
        failures.append(f"traced scores diverged from untraced on "
                        f"{len(diverged)} nodes (e.g. {diverged[:5]}) — "
                        f"tracing perturbed an RNG stream")
    if recorded == 0:
        failures.append("tracing-enabled run recorded no traces")
    print(f"traced vs untraced: {speedup:.3f}x "
          f"(target >= {1.0 - MAX_OVERHEAD:.2f}x), "
          f"scores bitwise-identical: {bitwise_equal}")
    return harness.finish("obs", report, failures)


if __name__ == "__main__":
    sys.exit(main())
