"""Shared setup and reporting for the gate benchmarks in ``benchmarks/``.

Every ``bench_<name>.py`` imports this module before numpy.  Importing it

* puts ``src/`` on the import path;
* pins the OpenMP, OpenBLAS and MKL pools to one thread unless the caller
  set them, so a serial timing uses one core and worker processes or
  replicas compete for cores instead of oversubscribing a shared pool.

It also holds the inputs several gates build the same way, and the
report writer: each gate writes ``BENCH_<name>.json`` at the repo root,
where ``scripts/check_bench.py`` compares it with the committed baseline.
"""

import json
import os
import sys

for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

from repro.core import Bourne
from repro.datasets import load_benchmark
from repro.eval import normalize_graph
from repro.graph import Graph
from repro.serving import GraphStore, ScoringService

CORES = os.cpu_count() or 1
#: Process-parallel bars (4 workers, replicas or a background retrain
#: beside serving) are judged only on machines with this many cores.
MIN_CORES = 4


def generated_graph(nodes, edges, name, seed=0):
    """Hub-heavy random graph with 16 features, generated vectorized.

    Its index is built before it is returned, so every timed run starts
    from the same warm state.
    """
    rng = np.random.default_rng(seed)
    surplus = edges * 3
    hubs = rng.integers(0, max(nodes // 20, 2), size=surplus)
    u = rng.integers(0, nodes, size=surplus)
    v = np.where(rng.random(surplus) < 0.5, hubs, rng.integers(0, nodes, size=surplus))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    features = rng.normal(size=(nodes, 16))
    graph = Graph(features, pairs[:edges], name=name)
    graph.index
    return graph


def cora(scale):
    """The normalized cora benchmark graph (seed 0) at ``scale``."""
    return normalize_graph(load_benchmark("cora", seed=0, scale=scale))


def build_service(graph, config):
    """A service over ``graph`` with an untrained model; it scores
    ``config.eval_rounds`` rounds."""
    store = GraphStore.from_graph(graph, influence_radius=config.hop_size)
    return ScoringService(Bourne(graph.num_features, config), store)


def gate_on_cores(report, passed, target):
    """Record ``passed`` as the verdict when the machine has enough cores.

    With fewer than :data:`MIN_CORES` the verdict is ``None`` and
    ``skipped_reason`` says why; the timings are still recorded and the
    bitwise checks still fail the run.
    """
    if CORES >= MIN_CORES:
        report["pass"] = bool(passed)
        return
    report["pass"] = None
    report["skipped_reason"] = (
        f"{target} needs >= {MIN_CORES} cores, machine has {CORES}; "
        "timings recorded, bitwise equality still enforced"
    )


def finish(name, report, failures=()):
    """Write ``BENCH_<name>.json`` and return the gate's exit code.

    Each of ``failures`` (a bitwise or tolerance check that did not
    hold) fails the run whatever the verdict.  Otherwise ``report["pass"]``
    decides: PASS and SKIP (``None``) exit 0, FAIL exits 1.
    """
    path = os.path.join(ROOT, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nreport written to {path}")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    if report["pass"] is None:
        print(f"SKIP: {report['skipped_reason']}")
        return 0
    print("PASS" if report["pass"] else "FAIL: below target")
    return 0 if report["pass"] else 1
