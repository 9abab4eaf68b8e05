#!/usr/bin/env python
"""Streaming ingest: delta-overlay store vs. rebuild-per-burst baseline.

Replays an interleaved update+score workload — bursts of new edges
followed by small score batches, the shape a write-heavy ingest tier
sees — against two :class:`repro.serving.GraphStore` configurations of
the SAME initial graph and model:

* **delta** — the write-optimized default: mutation bursts append to
  the delta overlay, reads merge base + overlay lazily, compaction is
  left to the threshold (never reached at this scale).
* **rebuild** — ``compact_threshold=0`` folds the overlay into a fresh
  compacted base after *every* burst, reproducing the old
  rebuild-per-version-bump write path as the baseline.

Both paths must return bitwise-identical scores burst for burst — the
overlay index answers every read the batch sampler makes exactly like
a compacted index, and every draw derives from ``(seed, round,
target)``.  The report additionally pins the delta store's scores
against a freshly constructed :class:`repro.graph.Graph` snapshot
(augmentation off) BOTH before and after an explicit ``compact()`` —
the incremental-vs-fresh equality the serving layer promises.

Run standalone::

    python benchmarks/bench_stream_ingest.py

Writes ``BENCH_stream.json`` for the blocking CI regression gate
(``scripts/check_bench.py``).
"""

import sys
import time

import harness
import numpy as np

from repro.core import Bourne, BourneConfig
from repro.serving import GraphStore, ScoringService

NODES = 20000
EDGES = 200000
ITERS = 12  # interleaved update+score iterations
BURSTS = 6  # per iteration
BURST_EDGES = 100
TARGET_SPEEDUP = 5.0

DIM = 16
SCORE_BATCH = 8


def make_config() -> BourneConfig:
    return BourneConfig(hidden_dim=32, subgraph_size=8, eval_rounds=1,
                        augment_at_inference=False, seed=0)


def synth_edges(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """~``m`` distinct canonical random edges over ``n`` nodes."""
    raw = rng.integers(0, n, size=(int(m * 1.2), 2), dtype=np.int64)
    raw = raw[raw[:, 0] != raw[:, 1]]
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    edges = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return edges[:m]


def run_stream(model, features, edges, bursts, score_nodes,
               compact_threshold):
    """Replay the interleaved workload; returns (elapsed, per-iter scores)."""
    store = GraphStore(features, edges, name="ingest",
                       influence_radius=model.config.hop_size,
                       compact_threshold=compact_threshold)
    service = ScoringService(model, store, rounds=1)
    per_iter = []
    start = time.perf_counter()
    for i, iteration in enumerate(bursts):
        for burst in iteration:
            store.add_edges(burst)
        per_iter.append(service.score_nodes(score_nodes[i], _force=True))
    elapsed = time.perf_counter() - start
    return elapsed, per_iter, store, service


def main() -> int:
    rng = np.random.default_rng(7)
    features = rng.standard_normal((NODES, DIM))
    edges = synth_edges(rng, NODES, EDGES)
    print(f"graph: {NODES} nodes, {len(edges)} edges, dim {DIM}")
    print(f"workload: {ITERS} iterations x {BURSTS} bursts x "
          f"{BURST_EDGES} edges, {SCORE_BATCH} scores per iteration")

    # Pre-generate the burst schedule so both stores replay identical
    # mutations (duplicates against the start graph are fine — both
    # stores dedup identically).
    bursts = [[synth_edges(rng, NODES, BURST_EDGES)
               for _ in range(BURSTS)] for _ in range(ITERS)]
    score_nodes = [rng.integers(0, NODES, size=SCORE_BATCH).tolist()
                   for _ in range(ITERS)]

    config = make_config()
    model = Bourne(DIM, config)

    delta_time, delta_scores, delta_store, delta_service = run_stream(
        model, features, edges, bursts, score_nodes,
        compact_threshold=0.25)
    print(f"delta overlay:     {delta_time:.2f}s "
          f"(pending={delta_store.pending_edges}, "
          f"compactions={delta_store.compactions})")

    rebuild_time, rebuild_scores, rebuild_store, _ = run_stream(
        model, features, edges, bursts, score_nodes,
        compact_threshold=0.0)
    print(f"rebuild per burst: {rebuild_time:.2f}s "
          f"(compactions={rebuild_store.compactions})")

    stream_equal = all(
        np.array_equal(a, b) for a, b in zip(delta_scores, rebuild_scores))

    # Incremental-vs-fresh pin: overlay-path scores vs a fresh Graph
    # built from the mutated topology, before AND after compaction.
    probe = score_nodes[-1]
    pre_compact = delta_service.score_nodes(probe, _force=True)
    fresh_service = ScoringService(model, delta_store.snapshot(), rounds=1)
    fresh = fresh_service.score_nodes(probe, _force=True)
    pre_equal = np.array_equal(pre_compact, fresh)
    assert delta_store.pending_edges > 0, "workload never exercised the overlay"
    delta_store.compact()
    post_compact = delta_service.score_nodes(probe, _force=True)
    post_equal = np.array_equal(post_compact, fresh)
    bitwise_equal = stream_equal and pre_equal and post_equal

    speedup = rebuild_time / delta_time
    ok = bitwise_equal and speedup >= TARGET_SPEEDUP
    report = {
        "nodes": NODES,
        "edges": int(len(edges)),
        "iterations": ITERS,
        "bursts_per_iteration": BURSTS,
        "edges_per_burst": BURST_EDGES,
        "delta_seconds": round(delta_time, 3),
        "rebuild_seconds": round(rebuild_time, 3),
        "stream_ingest_speedup": round(speedup, 2),
        "delta_compactions": int(delta_store.compactions),
        "rebuild_compactions": int(rebuild_store.compactions),
        "bitwise_equal": bitwise_equal,
        "target_speedup": TARGET_SPEEDUP,
        "pass": ok,
    }
    failures = []
    if not stream_equal:
        failures.append("delta-overlay scores diverged from rebuild-per-burst")
    if not (pre_equal and post_equal):
        failures.append(f"overlay vs fresh-Graph scores diverged "
                        f"(pre={pre_equal}, post={post_equal})")
    print(f"delta vs rebuild-per-burst: {speedup:.2f}x "
          f"(target >= {TARGET_SPEEDUP:.0f}x), scores bitwise-identical "
          f"(incl. vs fresh Graph, pre/post compaction): {bitwise_equal}")
    return harness.finish("stream", report, failures)


if __name__ == "__main__":
    sys.exit(main())
