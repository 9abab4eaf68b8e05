#!/usr/bin/env python
"""End-to-end sharded scoring throughput: serial vs. worker pools.

Times ``score_graph`` on a generated graph — the serial batched path
against the sharded multi-process engine at 2 and 4 workers — verifies
the outputs are bitwise-identical, and writes ``BENCH_parallel.json``
for the perf trajectory and the CI regression gate.

Run standalone::

    python benchmarks/bench_parallel_scoring.py

Environment knobs: ``REPRO_BENCH_NODES`` (default 20000),
``REPRO_BENCH_EDGES`` (default 60000), ``REPRO_BENCH_ROUNDS``
(default 2), ``REPRO_BENCH_REPEATS`` (default 2).

The acceptance bar (>= 2x end-to-end speedup at 4 workers) is asserted
at exit when the machine actually has >= 4 usable cores; on smaller
machines the run still validates bitwise equality and records timings,
but marks the speedup target as skipped — a 1-core box cannot speed
anything up by adding processes.
"""

import json
import os
import sys

# Pin BLAS pools to one thread so "serial" means one core and worker
# processes do not oversubscribe each other (must precede numpy import).
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

import numpy as np

from repro.core import Bourne, BourneConfig, score_graph

NODES = int(os.environ.get("REPRO_BENCH_NODES", "20000"))
EDGES = int(os.environ.get("REPRO_BENCH_EDGES", "60000"))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "2"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "2"))
FEATURES = 16
SUBGRAPH_SIZE = 8
BATCH_SIZE = 512
WORKER_COUNTS = (2, 4)
TARGET_SPEEDUP = 2.0
TARGET_WORKERS = 4
OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_parallel.json"
)


def generated_graph(seed=0):
    """Hub-heavy random graph, vectorized generation, sized for
    multi-second scoring runs."""
    from repro.graph import Graph

    rng = np.random.default_rng(seed)
    surplus = EDGES * 3
    hubs = rng.integers(0, max(NODES // 20, 2), size=surplus)
    u = rng.integers(0, NODES, size=surplus)
    v = np.where(rng.random(surplus) < 0.5, hubs, rng.integers(0, NODES, size=surplus))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    features = rng.normal(size=(NODES, FEATURES))
    return Graph(features, pairs[:EDGES], name="bench-parallel")


def best_of(repeats, fn):
    import time

    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def main() -> int:
    cores = os.cpu_count() or 1
    graph = generated_graph()
    graph.index  # warm the shared index so every run starts equal
    print(f"benchmark graph: {graph} (cores={cores})")

    config = BourneConfig(
        hidden_dim=16,
        predictor_hidden=32,
        subgraph_size=SUBGRAPH_SIZE,
        eval_rounds=ROUNDS,
        batch_size=BATCH_SIZE,
        seed=0,
        augment_at_inference=False,
    )
    model = Bourne(graph.num_features, config)

    serial_seconds, serial = best_of(REPEATS, lambda: score_graph(model, graph))
    print(f"serial       : {serial_seconds:.2f}s")

    worker_seconds = {}
    bitwise = True
    for workers in WORKER_COUNTS:
        seconds, scores = best_of(
            REPEATS, lambda w=workers: score_graph(model, graph, workers=w)
        )
        worker_seconds[workers] = seconds
        same = bool(
            np.array_equal(serial.node_scores, scores.node_scores)
            and np.array_equal(serial.edge_scores, scores.edge_scores)
        )
        bitwise = bitwise and same
        speedup = serial_seconds / seconds
        print(f"{workers} workers    : {seconds:.2f}s ({speedup:.2f}x, bitwise={same})")

    speedup_at_target = serial_seconds / worker_seconds[TARGET_WORKERS]
    enough_cores = cores >= TARGET_WORKERS
    if enough_cores:
        passed = bool(speedup_at_target >= TARGET_SPEEDUP)
        skipped_reason = None
    else:
        passed = None
        skipped_reason = (
            f"speedup target needs >= {TARGET_WORKERS} cores, machine has "
            f"{cores}; timings recorded, bitwise equality still enforced"
        )

    report = {
        "graph": {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "features": graph.num_features,
        },
        "config": {
            "subgraph_size": SUBGRAPH_SIZE,
            "rounds": ROUNDS,
            "batch_size": BATCH_SIZE,
            "repeats": REPEATS,
        },
        "cpu_count": cores,
        "serial_seconds": serial_seconds,
        "worker_seconds": {str(w): s for w, s in worker_seconds.items()},
        "speedup_at_4_workers": speedup_at_target,
        "bitwise_identical": bitwise,
        "target_speedup": TARGET_SPEEDUP,
        "pass": passed,
        "skipped_reason": skipped_reason,
    }
    with open(OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.abspath(OUTPUT)}")

    if not bitwise:
        print("FAIL: sharded output is not bitwise-identical to serial")
        return 1
    if passed is None:
        print(f"SKIP speedup target: {skipped_reason}")
        return 0
    if not passed:
        print(
            f"FAIL: {TARGET_WORKERS}-worker speedup {speedup_at_target:.2f}x "
            f"< target {TARGET_SPEEDUP:.1f}x"
        )
        return 1
    print(f"PASS: {TARGET_WORKERS}-worker speedup >= {TARGET_SPEEDUP:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
