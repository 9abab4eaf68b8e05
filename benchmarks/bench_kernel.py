#!/usr/bin/env python
"""Single-core forward throughput: fused kernel vs. numpy reference.

Prebuilds one round of inference view batches — the same batched
graph and hypergraph views ``score_target_span`` feeds the model — then
times *forward passes only* through each registered tensor backend on
one core.  The reference backend runs the bitwise-pinned numpy path
under ``no_grad``, as scoring does; the fused backend runs the float32
kernel.  The hypergraph views build the reference's CSR operator and
pools on first read, so the numpy backend's untimed warm-up pass builds
them and the timed passes compare forwards only.
Fused scores are verified against the reference within 1e-5 relative
tolerance before any timing counts.

Run standalone::

    python benchmarks/bench_kernel.py

The acceptance bar (>= 1.5x fused-vs-reference single-core forward
throughput) is asserted at exit and recorded in ``BENCH_kernel.json``
for the CI regression gate.  It is a *single-core* bar: the fused kernel
must win on float32 arithmetic and on skipping the autograd layer, not by
grabbing more BLAS threads.
"""

import sys
import time

import harness
import numpy as np

from repro.core import Bourne, BourneConfig
from repro.core.scoring import inference_round_streams
from repro.graph.index import derive_target_seeds
from repro.tensor.autograd import no_grad
from repro.tensor.backend import resolve_backend

NODES = 3000
EDGES = 9000
REPEATS = 3
SUBGRAPH_SIZE = 8
BATCH_SIZE = 256
HIDDEN = 32
TARGET_SPEEDUP = 1.5
TOLERANCE = 1e-5


def prebuilt_batches(model, graph):
    """Materialize one inference round's view batches ahead of timing,
    so every backend forwards the exact same inputs."""
    cfg = model.config
    round_bases, mask_seeds = inference_round_streams(cfg, 1, None)
    targets = np.arange(graph.num_nodes, dtype=np.int64)
    batches = []
    for offset in range(0, len(targets), BATCH_SIZE):
        chunk = targets[offset:offset + BATCH_SIZE]
        target_seeds = derive_target_seeds(round_bases[0], chunk)
        gviews, hviews = model.prepare_batch(
            graph, chunk, augment=cfg.augment_at_inference,
            target_seeds=target_seeds,
        )
        batches.append((gviews, hviews, int(mask_seeds[0])))
    return batches


def forward_all(backend, model, batches):
    """One full pass over the prebuilt batches; returns mean node scores.

    Runs under ``no_grad`` like every scoring forward, so the numpy
    reference records no autograd graph.
    """
    parts = []
    with no_grad():
        for gviews, hviews, mask_seed in batches:
            scores = backend.forward_batch(
                model, gviews, hviews, mask_seed=mask_seed
            )
            parts.append(np.asarray(scores.node_scores.data, dtype=np.float64))
    return np.concatenate(parts)


def time_backend(backend, model, batches, repeats):
    best = float("inf")
    scores = None
    for _ in range(repeats):
        start = time.perf_counter()
        scores = forward_all(backend, model, batches)
        best = min(best, time.perf_counter() - start)
    return best, scores


def max_relative_error(reference, candidate):
    return float(
        np.max(np.abs(candidate - reference) / (np.abs(reference) + 1e-12))
    )


def main() -> int:
    graph = harness.generated_graph(NODES, EDGES, "bench-kernel")
    print(f"benchmark graph: {graph}")

    config = BourneConfig(
        hidden_dim=HIDDEN,
        predictor_hidden=2 * HIDDEN,
        subgraph_size=SUBGRAPH_SIZE,
        eval_rounds=1,
        batch_size=BATCH_SIZE,
        seed=0,
        augment_at_inference=False,
    )
    model = Bourne(graph.num_features, config)
    batches = prebuilt_batches(model, graph)
    per_pass = graph.num_nodes
    print(f"prebuilt {len(batches)} batches of <= {BATCH_SIZE} targets")

    names = ["numpy", "fused"]
    seconds = {}
    throughput = {}
    errors = {}
    reference_scores = None
    for name in names:
        backend = resolve_backend(name)
        forward_all(backend, model, batches)  # warm caches and the heap
        best, scores = time_backend(backend, model, batches, REPEATS)
        seconds[name] = best
        throughput[name] = per_pass / best
        if name == "numpy":
            reference_scores = scores
            errors[name] = 0.0
        else:
            errors[name] = max_relative_error(reference_scores, scores)
        print(
            f"{name:8s}: {best * 1e3:8.1f} ms/pass "
            f"({throughput[name]:9.0f} targets/s, "
            f"max rel err {errors[name]:.2e})"
        )

    fused_speedup = seconds["numpy"] / seconds["fused"]
    within_tolerance = all(err <= TOLERANCE for err in errors.values())
    report = {
        "graph": {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "features": graph.num_features,
        },
        "config": {
            "subgraph_size": SUBGRAPH_SIZE,
            "hidden_dim": HIDDEN,
            "batch_size": BATCH_SIZE,
            "repeats": REPEATS,
        },
        "seconds_per_pass": seconds,
        "targets_per_second": {k: float(v) for k, v in throughput.items()},
        "max_relative_error": errors,
        "tolerance": TOLERANCE,
        "fused_speedup": fused_speedup,
        "target_speedup": TARGET_SPEEDUP,
        "pass": bool(fused_speedup >= TARGET_SPEEDUP and within_tolerance),
    }
    print(f"fused speedup {fused_speedup:.2f}x (target >= {TARGET_SPEEDUP:.1f}x)")
    failures = []
    if not within_tolerance:
        failures.append(f"fast-path scores exceed {TOLERANCE:.0e} rel tolerance")
    return harness.finish("kernel", report, failures)


if __name__ == "__main__":
    sys.exit(main())
