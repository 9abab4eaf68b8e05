#!/usr/bin/env python
"""End-to-end sharded training throughput: serial vs. worker pools.

Times one training epoch of ``BourneTrainer.fit`` on a generated graph
— the serial chunked path against the sharded data-parallel engine at
2 and 4 workers with the *same* gradient-accumulation grain — verifies
the loss histories and final parameters are bitwise-identical, and
writes ``BENCH_training.json`` for the perf trajectory and the CI
regression gate.

Run standalone::

    python benchmarks/bench_training.py

The acceptance bar (>= 2x epoch speedup at 4 workers) is asserted at
exit when the machine actually has >= 4 usable cores; on smaller
machines the run still validates bitwise equality and records timings,
but marks the speedup target as skipped — a 1-core box cannot speed
anything up by adding processes.
"""

import sys
import time

import harness
import numpy as np

from repro.core import Bourne, BourneConfig, BourneTrainer

NODES = 10000
EDGES = 30000
EPOCHS = 1
REPEATS = 2
SUBGRAPH_SIZE = 8
BATCH_SIZE = 256
GRAIN = 32
WORKER_COUNTS = (2, 4)
TARGET_SPEEDUP = 2.0
TARGET_WORKERS = 4


def config():
    return BourneConfig(
        hidden_dim=16,
        predictor_hidden=32,
        subgraph_size=SUBGRAPH_SIZE,
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        eval_rounds=2,
        seed=0,
    )


def snapshot(model):
    return [p.data.copy() for p in model.online.parameters()
            + model.target.parameters()]


def timed_fit(graph, workers):
    """Train a fresh model; returns (seconds, losses, parameters)."""
    best = None
    outcome = None
    for _ in range(REPEATS):
        cfg = config()
        model = Bourne(graph.num_features, cfg)
        trainer = BourneTrainer(model, cfg, grain=GRAIN, workers=workers)
        start = time.perf_counter()
        try:
            history = trainer.fit(graph)
        finally:
            trainer.close()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            outcome = (history.losses, snapshot(model))
    return best, outcome


def main() -> int:
    graph = harness.generated_graph(NODES, EDGES, "bench-training")
    print(f"benchmark graph: {graph} (cores={harness.CORES}, grain={GRAIN})")

    serial_seconds, serial = timed_fit(graph, workers=None)
    print(f"serial       : {serial_seconds:.2f}s  "
          f"(epoch loss {serial[0][-1]:.4f})")

    worker_seconds = {}
    bitwise = True
    for workers in WORKER_COUNTS:
        seconds, outcome = timed_fit(graph, workers=workers)
        worker_seconds[workers] = seconds
        same = bool(
            outcome[0] == serial[0]
            and all(np.array_equal(a, b)
                    for a, b in zip(outcome[1], serial[1]))
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
            "epochs": EPOCHS,
            "batch_size": BATCH_SIZE,
            "grain": GRAIN,
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
    failures = [] if bitwise else ["sharded training is not bitwise-identical"]
    return harness.finish("training", report, failures)


if __name__ == "__main__":
    sys.exit(main())
