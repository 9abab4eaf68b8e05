#!/usr/bin/env python
"""End-to-end sharded scoring throughput: serial vs. worker pools.

Times ``score_graph`` on a generated graph — the serial batched path
against the sharded multi-process engine at 2 and 4 workers — verifies
the outputs are bitwise-identical, and writes ``BENCH_parallel.json``
for the perf trajectory and the CI regression gate.

Run standalone::

    python benchmarks/bench_parallel_scoring.py

The acceptance bar (>= 2x end-to-end speedup at 4 workers) is asserted
at exit when the machine actually has >= 4 usable cores; on smaller
machines the run still validates bitwise equality and records timings,
but marks the speedup target as skipped — a 1-core box cannot speed
anything up by adding processes.
"""

import sys
import time

import harness
import numpy as np

from repro.core import Bourne, BourneConfig, score_graph

NODES = 20000
EDGES = 60000
ROUNDS = 2
REPEATS = 2
SUBGRAPH_SIZE = 8
BATCH_SIZE = 512
WORKER_COUNTS = (2, 4)
TARGET_SPEEDUP = 2.0
TARGET_WORKERS = 4


def best_of(repeats, fn):
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def main() -> int:
    graph = harness.generated_graph(NODES, EDGES, "bench-parallel")
    print(f"benchmark graph: {graph} (cores={harness.CORES})")

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
        "cpu_count": harness.CORES,
        "serial_seconds": serial_seconds,
        "worker_seconds": {str(w): s for w, s in worker_seconds.items()},
        "speedup_at_4_workers": speedup_at_target,
        "bitwise_identical": bitwise,
        "target_speedup": TARGET_SPEEDUP,
        "skipped_reason": None,
    }
    harness.gate_on_cores(report, speedup_at_target >= TARGET_SPEEDUP, "speedup target")
    print(
        f"{TARGET_WORKERS}-worker speedup {speedup_at_target:.2f}x "
        f"(target >= {TARGET_SPEEDUP:.1f}x)"
    )
    failures = [] if bitwise else ["sharded output is not bitwise-identical"]
    return harness.finish("parallel", report, failures)


if __name__ == "__main__":
    sys.exit(main())
