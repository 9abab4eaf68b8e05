#!/usr/bin/env python
"""Continual-learning lifecycle: serving latency during background
retrain, and retrain determinism.

Boots a gateway whose default service is watched by a
:class:`repro.lifecycle.LifecycleController`, measures score-request
p99 latency in steady state, then triggers a background retrain and
measures p99 again for requests issued *while the retrain runs*.  The
controller trains in a separate process, so serving latency must hold:
the report gates ``p99_retention_speedup = steady_p99 / retrain_p99``
(1.0 = no impact; the absolute bar tolerates modest cache/CPU
contention).  After the cycle completes, the published candidate is
compared parameter-by-parameter against an offline ``train_bourne`` on
the same snapshot — the retrain controller must be a pure function of
``(snapshot, config, epochs)``, bitwise.

Run standalone::

    python benchmarks/bench_lifecycle.py

The latency bar needs >= 4 cores, so the retrain process has its own.
Writes ``BENCH_lifecycle.json`` for the blocking CI regression gate
(``scripts/check_bench.py``).
"""

import asyncio
import sys
import tempfile
import time

import harness
import numpy as np

from repro.core import BourneConfig
from repro.core.trainer import train_bourne
from repro.gateway import Gateway
from repro.lifecycle import LifecycleController, TriggerPolicy
from repro.serving import GraphStore, ModelRegistry, ScoringService

SCALE = 0.1
ROUNDS = 8
REQUESTS = 150  # steady-state samples
EPOCHS = 1  # per retrain
#: retrain-window p99 may be at most 1/TARGET_RETENTION x steady p99.
TARGET_RETENTION = 0.33


def p99(samples):
    return float(np.percentile(np.asarray(samples, dtype=np.float64), 99))


def named_params(model):
    for name, param in model.online.named_parameters():
        yield "online." + name, param
    for name, param in model.target.named_parameters():
        yield "target." + name, param


async def measure(gateway, nodes, count, stop_when=None):
    """Issue score requests one at a time; returns per-request seconds.

    ``stop_when`` (callable) ends the loop early — used to sample for
    exactly as long as the background retrain runs.
    """
    latencies = []
    i = 0
    while len(latencies) < count:
        node = int(nodes[i % len(nodes)])
        start = time.perf_counter()
        response = await gateway.dispatch({"op": "score", "nodes": [node]},
                                          "bench")
        latencies.append(time.perf_counter() - start)
        if not response.get("ok"):
            raise RuntimeError(f"score request failed: {response}")
        i += 1
        if stop_when is not None and stop_when():
            break
    return latencies


async def run_bench(graph, config, registry_dir):
    model, _ = train_bourne(graph, config, epochs=EPOCHS)
    registry = ModelRegistry(registry_dir)
    registry.publish(model, "bench")
    store = GraphStore.from_graph(graph, influence_radius=config.hop_size)
    service = ScoringService(model, store, rounds=ROUNDS)
    controller = LifecycleController(
        service, registry, "bench",
        TriggerPolicy(drift_threshold=None, mutation_threshold=None),
        epochs=EPOCHS, probe_size=16)
    gateway = Gateway(service, registry=registry, model_name="bench",
                      model_version=1, poll_interval=0.1,
                      lifecycle=controller, lifecycle_interval=0.05,
                      tracing=False)
    await gateway.start("127.0.0.1", 0)
    try:
        nodes = list(range(min(64, graph.num_nodes)))
        # Warm the score table so both phases serve from the same
        # steady state.
        await measure(gateway, nodes, len(nodes))
        steady = await measure(gateway, nodes, REQUESTS)

        snapshot = store.snapshot()  # no mutations below: same snapshot
        trigger = await gateway.dispatch(
            {"op": "lifecycle", "action": "trigger"}, "bench")
        if not trigger.get("ok"):
            raise RuntimeError(f"trigger failed: {trigger}")
        # Sample latency only while the retrain is actually running.
        during = await measure(
            gateway, nodes, 100 * REQUESTS,
            stop_when=lambda: controller.state != "retraining")
        deadline = time.monotonic() + 600
        while time.monotonic() < deadline:
            status = await gateway.dispatch({"op": "lifecycle_status"},
                                            "bench")
            done = status["counters"]["retrains_completed"] >= 1
            if done and gateway.served_version == 2:
                break
            await asyncio.sleep(0.1)
        else:
            raise RuntimeError(f"retrain cycle never completed: {status}")
        counters = status["counters"]
    finally:
        await gateway.stop()
    candidate = registry.load("bench", 2)
    return steady, during, snapshot, candidate, counters


def main() -> int:
    graph = harness.cora(SCALE)
    print(f"benchmark graph: {graph}")
    config = BourneConfig(hidden_dim=32, predictor_hidden=64,
                          subgraph_size=8, eval_rounds=ROUNDS,
                          epochs=EPOCHS, seed=0)
    with tempfile.TemporaryDirectory(prefix="bench-lifecycle-") as tmp:
        steady, during, snapshot, candidate, counters = asyncio.run(
            run_bench(graph, config, tmp))

    steady_p99 = p99(steady)
    retrain_p99 = p99(during) if during else steady_p99
    retention = steady_p99 / retrain_p99 if retrain_p99 > 0 else 1.0
    print(f"steady-state p99: {steady_p99 * 1000:.2f} ms "
          f"({len(steady)} requests)")
    print(f"during-retrain p99: {retrain_p99 * 1000:.2f} ms "
          f"({len(during)} requests inside the retrain window)")
    print(f"p99 retention: {retention:.2f}x "
          f"(>= {TARGET_RETENTION}x required: retrain may cost at most "
          f"{1 / TARGET_RETENTION:.1f}x p99)")

    offline, _ = train_bourne(snapshot, config, epochs=EPOCHS)
    mismatched = [
        name
        for (name, cand), (_, ref) in zip(named_params(candidate),
                                          named_params(offline))
        if not np.array_equal(cand.data, ref.data)
    ]
    bitwise = not mismatched
    print("controller candidate vs offline train_bourne on the same "
          "snapshot: " + ("bitwise-identical" if bitwise
                          else f"DIVERGED on {mismatched[:5]}"))

    report = {
        "scale": SCALE,
        "rounds": ROUNDS,
        "epochs": EPOCHS,
        "cpu_count": harness.CORES,
        "steady_requests": len(steady),
        "retrain_window_requests": len(during),
        "steady_p99_ms": round(steady_p99 * 1000, 3),
        "retrain_p99_ms": round(retrain_p99 * 1000, 3),
        "p99_retention_speedup": round(retention, 3),
        "target_retention_speedup": TARGET_RETENTION,
        "bitwise_equal_offline": bitwise,
        "retrains_completed": counters["retrains_completed"],
        "validations_accepted": counters["validations_accepted"],
    }
    harness.gate_on_cores(report, bitwise and retention >= TARGET_RETENTION,
                          "latency-retention target")
    failures = ([] if bitwise else
                ["background retrain diverged from offline training"])
    return harness.finish("lifecycle", report, failures)


if __name__ == "__main__":
    sys.exit(main())
