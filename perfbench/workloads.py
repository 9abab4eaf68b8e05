"""The three workloads: set-up, load, correctness oracle, figures.

Every workload runs on the ``dgraph`` generator (16 features, planted
fraud node labels, injected edge anomalies) with the CLI's default
model configuration.  Load comes from this one process: two closed-loop
connections on the gateway's own event loop (``serve_*``) or the
offline pipeline called in-process (``offline``).  The program only
sees the generated inputs.

A run measures ``seconds`` of load.  With tracing on, untraced and
traced slices alternate (about a second each for serving, one pipeline
pass each offline) under :class:`layers.Tracer`, so the report carries
the wrappers' overhead next to the layer figures.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from figures import (failed_share, interquartile_mean, median,
                     supported_percentile)
from layers import Tracer, layer_table
from ledger import TARGETS, layer_metrics

HIDDEN = 64
SUBGRAPH_SIZE = 12
ROUNDS = 8
CACHE_SIZE = 4096
# Set-ups per run; setup_s is their median.  serve_mixed's warm-up
# takes seconds, the others' set-up milliseconds.
SETUPS = {"serve_miss": 9, "serve_mixed": 3, "offline": 9}
CONNECTIONS = 2
REL_TOL, ABS_TOL = 1e-5, 1e-7   # the fused backend's contract
ORACLE_NODES, ORACLE_EDGES = 12, 6
SERVE_SCALE = 0.2          # dgraph scale 0.2: 10k nodes
OFFLINE_SCALE = 0.01       # dgraph scale 0.01: 500 nodes
WORKING_SET = 256          # serve_mixed nodes; x8 rounds fits the cache
WORKING_EDGES = 48
WRITE_NOISE = 0.05
DATASET_SEED = 0           # the dgraph instance every workload runs on
SERVE_MODEL_SEED = 0       # the served model's weights and streams


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def build_graph(scale: float):
    """The fixed benchmark dataset; the workload seed drives traffic,
    working sets and model streams, not the graph."""
    from repro.datasets import load_benchmark
    from repro.eval import normalize_graph

    return normalize_graph(load_benchmark("dgraph", seed=DATASET_SEED,
                                          scale=scale))


def model_config(seed: int):
    from repro.core import BourneConfig

    return BourneConfig(hidden_dim=HIDDEN, predictor_hidden=2 * HIDDEN,
                        subgraph_size=SUBGRAPH_SIZE, alpha=0.8, beta=0.2,
                        eval_rounds=ROUNDS, epochs=1, seed=seed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def close_enough(served: float, reference: float) -> bool:
    return abs(served - reference) <= ABS_TOL + REL_TOL * abs(reference)


@dataclass
class Tally:
    """Operations attempted and how they ended."""

    attempted: int = 0
    errored: int = 0
    refused: int = 0
    check_failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.errored += 1
            self.check_failures.append(what)

    @property
    def failed(self) -> int:
        return self.errored + self.refused


@dataclass
class Result:
    """What one run reports."""

    tally: Tally
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    layer_rows: List[dict] = field(default_factory=list)
    calls: Dict[str, int] = field(default_factory=dict)
    absent: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
class NdjsonClient:
    """One NDJSON connection; one request in flight."""

    transport = "ndjson"

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)

    async def call(self, request: dict) -> dict:
        self.writer.write((json.dumps(request) + "\n").encode())
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class HttpClient(NdjsonClient):
    """One HTTP/1.1 keep-alive connection speaking the gateway's routes."""

    transport = "http"
    ROUTES = {"score": "/v1/score_node", "score_edge": "/v1/score_edge"}

    async def call(self, request: dict) -> dict:
        path = self.ROUTES.get(request["op"], "/v1/update")
        body = json.dumps(request).encode()
        head = (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        status = await self.reader.readline()
        if not status:
            raise ConnectionError("gateway closed the connection")
        length = 0
        while True:
            header = await self.reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return json.loads(await self.reader.readexactly(length))


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
READ_OPS = ("score", "score_edge")


@dataclass
class LoadLog:
    """Client-side record of one load phase."""

    read_s: List[float] = field(default_factory=list)
    write_s: List[float] = field(default_factory=list)
    done_at: List[float] = field(default_factory=list)
    completed: int = 0
    wall_s: float = 0.0
    started: float = 0.0

    def window_rate(self, width: float = 1.0) -> float:
        """Completions per second: the interquartile mean over whole
        ``width``-second windows, which slow episodes of a shared
        machine move less than the overall mean does.  A window's rate
        is its completions after the first over the time from its first
        to its last completion, so it is not rounded to whole counts."""
        slots: Dict[int, List[float]] = {}
        windows = int(self.wall_s // width)
        for when in self.done_at:
            slot = int((when - self.started) // width)
            if 0 <= slot < windows:
                slots.setdefault(slot, []).append(when)
        rates = [(len(times) - 1) / (max(times) - min(times))
                 for times in slots.values()
                 if len(times) > 1 and max(times) > min(times)]
        if len(rates) < 4:
            return self.completed / self.wall_s
        return interquartile_mean(rates)

    def window_counts(self, width: float = 1.0) -> List[int]:
        counts = [0] * int(self.wall_s // width)
        for when in self.done_at:
            slot = int((when - self.started) // width)
            if 0 <= slot < len(counts):
                counts[slot] += 1
        return counts

    @property
    def requests(self) -> int:
        return len(self.read_s) + len(self.write_s)

    @property
    def latency_s(self) -> float:
        return sum(self.read_s) + sum(self.write_s)


class ServeRun:
    """One gateway over one store, driven by two connections."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.tally = Tally()
        self.served_nodes: Dict[int, float] = {}
        self.served_edges: Dict[Tuple[int, int], float] = {}

    async def setup(self) -> None:
        """Store, model, gateway (the CLI's serve defaults), warm-up."""
        from repro.core import Bourne
        from repro.gateway import Gateway
        from repro.serving import GraphStore, ScoringService

        graph = build_graph(SERVE_SCALE)
        config = model_config(SERVE_MODEL_SEED)
        store = GraphStore.from_graph(graph, influence_radius=config.hop_size,
                                      compact_threshold=0.25)
        model = Bourne(graph.num_features, config)
        self.service = ScoringService(model, store, rounds=ROUNDS,
                                      cache_size=CACHE_SIZE, backend="fused")
        self.gateway = Gateway(self.service, max_batch=32, max_delay_ms=2.0,
                               max_queue=256, tracing=True,
                               trace_slow_ms=250.0)
        self.host, self.port = await self.gateway.start("127.0.0.1", 0)
        self.graph = graph
        if self.name == "serve_miss":
            self._plan_miss(graph)
        else:
            self._plan_mixed(graph)
        self.clients = [NdjsonClient(), (HttpClient() if self.name ==
                                         "serve_mixed" else NdjsonClient())]
        for client in self.clients:
            await client.open(self.host, self.port)
        for request in self.warmup:
            response = await self.clients[0].call(request)
            if not response.get("ok"):
                raise RuntimeError(f"warm-up failed: {response}")

    def _plan_miss(self, graph) -> None:
        order = np.random.default_rng([self.seed, 11]).permutation(
            graph.num_nodes)
        warm, rest = order[:8], order[8:]
        self.warmup = [{"op": "score", "nodes": [int(n) for n in warm[:4]]},
                       {"op": "score", "nodes": [int(n) for n in warm[4:]]}]
        self._miss_nodes = iter(int(n) for n in rest)
        self._miss_sizes = np.random.default_rng([self.seed, 12])
        self.streams = [self._miss_stream() for _ in range(CONNECTIONS)]

    def _plan_mixed(self, graph) -> None:
        # The working set, its edges and the write partners are part of
        # the workload's definition, fixed with the dataset; the seed
        # drives the request stream over them.
        rng = np.random.default_rng([DATASET_SEED, 11])
        order = rng.permutation(graph.num_nodes)
        degrees = np.bincount(graph.edges.ravel(), minlength=graph.num_nodes)
        connected = order[degrees[order] > 0]
        self.working = connected[:WORKING_SET]
        members = set(int(n) for n in self.working)
        edges = [(int(u), int(v)) for u, v in graph.edges
                 if int(u) in members or int(v) in members]
        picks = rng.choice(len(edges), size=min(WORKING_EDGES, len(edges)),
                           replace=False)
        self.edges = [edges[i] for i in sorted(picks)]
        self.base_features = graph.features
        # add_edge links a working-set node to a node outside the
        # working set's 2-hop ball, each partner used once per
        # connection, so writes never glue the working set together and
        # the hit rate stays steady however long the run.
        n = graph.num_nodes
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        adjacency = sp.csr_matrix((np.ones(2 * len(u)), (np.r_[u, v],
                                                         np.r_[v, u])),
                                  shape=(n, n))
        ball = np.zeros(n)
        ball[self.working] = 1.0
        for _ in range(2):
            ball = ball + adjacency @ ball
        outside = rng.permutation(np.flatnonzero(ball == 0))
        self.partners = [outside[conn::CONNECTIONS]
                         for conn in range(CONNECTIONS)]
        nodes = [int(n) for n in self.working]
        self.warmup = ([{"op": "score", "nodes": nodes[i:i + 32]}
                        for i in range(0, len(nodes), 32)]
                       + [{"op": "score_edge", "u": u, "v": v}
                          for u, v in self.edges])
        self.streams = [self._mixed_stream(conn) for conn in range(CONNECTIONS)]

    def _miss_stream(self):
        while True:
            size = int(self._miss_sizes.integers(1, 5))
            nodes = [n for _, n in zip(range(size), self._miss_nodes)]
            if not nodes:
                return
            yield {"op": "score", "nodes": nodes}

    def _mixed_stream(self, conn: int):
        """~80% score, 10% score_edge, 5% add_edge, 5% update_features."""
        rng = np.random.default_rng([self.seed, 13, conn])
        working = self.working
        partners = self.partners[conn]
        writes = 0
        while True:
            draw = rng.random()
            if draw < 0.8:
                size = int(rng.integers(1, 5))
                yield {"op": "score", "nodes": [
                    int(n) for n in rng.choice(working, size, replace=False)]}
            elif draw < 0.9:
                u, v = self.edges[int(rng.integers(len(self.edges)))]
                yield {"op": "score_edge", "u": u, "v": v}
            elif draw < 0.95:
                partner = partners[writes % len(partners)]
                writes += 1
                yield {"op": "add_edge", "u": int(rng.choice(working)),
                       "v": int(partner)}
            else:
                node = int(rng.choice(working))
                features = self.base_features[node] + rng.normal(
                    0.0, WRITE_NOISE, self.base_features.shape[1])
                yield {"op": "update_features", "node": node,
                       "features": [float(x) for x in features]}

    async def _drive(self, client, stream, deadline: float,
                     log: LoadLog) -> None:
        for request in stream:
            if time.perf_counter() >= deadline:
                return
            started = time.perf_counter()
            self.tally.attempted += 1
            try:
                response = await client.call(request)
            except (ConnectionError, ValueError, asyncio.IncompleteReadError):
                self.tally.errored += 1
                return
            elapsed = time.perf_counter() - started
            if not response.get("ok"):
                if response.get("error_type") == "AdmissionRejected":
                    self.tally.refused += 1
                else:
                    self.tally.errored += 1
                continue
            log.completed += 1
            log.done_at.append(started + elapsed)
            op = request["op"]
            if op in READ_OPS:
                log.read_s.append(elapsed)
            else:
                log.write_s.append(elapsed)
            if op == "score":
                for node, score in response["scores"].items():
                    self.served_nodes[int(node)] = float(score)
            elif op == "score_edge":
                self.served_edges[(request["u"], request["v"])] = \
                    float(response["score"])

    async def load(self, seconds: float, log: LoadLog) -> None:
        """Drive both connections for ``seconds``; every request in
        flight completes before this returns."""
        started = time.perf_counter()
        if not log.started:
            log.started = started
        deadline = started + seconds
        await asyncio.gather(*(self._drive(client, stream, deadline, log)
                               for client, stream in zip(self.clients,
                                                         self.streams)))
        log.wall_s += time.perf_counter() - started

    async def traced_load(self, seconds: float):
        """Alternate untraced and traced slices of about a second each,
        so both sides see the same drift in store state; returns the two
        logs, the tracer, the traced windows and the counter deltas
        summed over traced slices."""
        untraced, traced = LoadLog(), LoadLog()
        tracer = Tracer(TARGETS)
        windows, delta = [], {}
        slices = max(1, int(seconds // 2))
        width = seconds / (2 * slices)
        for _ in range(slices):
            await self.load(width, untraced)
            before = await self.counters()
            tracer.install()
            try:
                lo = time.perf_counter()
                await self.load(width, traced)
                windows.append((lo, time.perf_counter()))
            finally:
                tracer.uninstall()
            after = await self.counters()
            for key, value in after.items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    delta[key] = delta.get(key, 0) + value - before[key]
        return untraced, traced, tracer, windows, delta

    async def counters(self) -> dict:
        """Service stats plus gateway counters, read on the scoring
        thread so they never race a batch."""
        stats = await self.gateway.batcher.submit(self.service.stats)
        batch = self.gateway.metrics.get("gateway_batch_size")
        stats["batch_sum"] = batch.sum
        stats["batch_total"] = batch.total
        stats["shed"] = self.gateway.metrics.get("gateway_shed_total").value
        return stats

    async def oracle(self) -> dict:
        """Served scores vs the numpy span functions on a fresh snapshot.

        ``serve_miss`` checks a seeded sample of the scores served under
        load (no writes happen, so the final snapshot is the state they
        were served on).  ``serve_mixed`` re-requests a seeded sample of
        working-set nodes and edges over both transports once writes
        have stopped, and checks those served answers.
        """
        from repro.serving.service import score_edge_span, score_service_span

        rng = np.random.default_rng([self.seed, 17])
        if self.name == "serve_mixed":
            nodes = [int(n) for n in rng.choice(self.working, ORACLE_NODES,
                                                replace=False)]
            picks = rng.choice(len(self.edges), ORACLE_EDGES, replace=False)
            edges = [self.edges[int(i)] for i in picks]
            half = len(nodes) // 2
            for client, chunk in ((self.clients[0], nodes[:half]),
                                  (self.clients[1], nodes[half:])):
                response = await client.call({"op": "score", "nodes": chunk})
                self.tally.check(bool(response.get("ok")),
                                 f"oracle score request: {response}")
                for node, score in response.get("scores", {}).items():
                    self.served_nodes[int(node)] = float(score)
            for i, (u, v) in enumerate(edges):
                response = await self.clients[i % 2].call(
                    {"op": "score_edge", "u": u, "v": v})
                self.tally.check(bool(response.get("ok")),
                                 f"oracle edge request: {response}")
                if response.get("ok"):
                    self.served_edges[(u, v)] = float(response["score"])
        else:
            served = sorted(self.served_nodes)
            nodes = [served[int(i)] for i in rng.choice(
                len(served), min(ORACLE_NODES, len(served)), replace=False)]
            edges = []
        service = self.service
        store = service.store
        snapshot = await self.gateway.batcher.submit(store.snapshot)
        targets = np.asarray(nodes, dtype=np.int64)
        evidence = score_service_span(service.model, snapshot, targets,
                                      service.seed, service.rounds,
                                      service.max_batch)
        reference = evidence.node_sum / service.rounds
        for node, expected in zip(nodes, reference):
            got = self.served_nodes.get(node)
            self.tally.check(got is not None and close_enough(got, expected),
                             f"node {node}: served {got} vs {expected}")
        lo_ends = snapshot.edges.min(axis=1)
        hi_ends = snapshot.edges.max(axis=1)
        for u, v in edges:
            key = (min(u, v), max(u, v))
            # Edge ids are positions in the snapshot, which orders edges
            # its own way once edges were added.
            (edge_id,) = np.flatnonzero((lo_ends == key[0])
                                        & (hi_ends == key[1]))
            expected, _ = score_edge_span(
                service.model, snapshot, u, v, int(edge_id),
                service.seed, service.rounds, service.max_batch)
            got = self.served_edges.get((u, v))
            self.tally.check(got is not None and close_enough(got, expected),
                             f"edge {key}: served {got} vs {expected}")
        return {"nodes_checked": len(nodes), "edges_checked": len(edges)}

    async def close(self) -> None:
        for client in self.clients:
            try:
                await client.close()
            except (ConnectionError, OSError):
                pass
        await self.gateway.stop()


async def _serve(name: str, seed: int, seconds: float, trace: bool) -> Result:
    setups = []
    run = None
    for attempt in range(SETUPS[name]):
        if run is not None:
            await run.close()
        started = time.perf_counter()
        run = ServeRun(name, seed)
        await run.setup()
        setups.append(time.perf_counter() - started)
    try:
        info: Dict[str, object] = {"connections": CONNECTIONS,
                                   "loop": "closed",
                                   "transports": [c.transport
                                                  for c in run.clients],
                                   "num_nodes": run.graph.num_nodes,
                                   "num_edges": run.graph.num_edges}
        if not trace:
            log = LoadLog()
            await run.load(seconds, log)
            per_layer, rows, calls, absent = {}, [], {}, []
        else:
            untraced, log, tracer, windows, delta = \
                await run.traced_load(seconds)
            untraced_rate = untraced.completed / untraced.wall_s
            traced_rate = log.completed / log.wall_s
            context = {"requests": log.requests,
                       "client_latency_s": log.latency_s,
                       "shed": delta["shed"],
                       "batch_sum": delta["batch_sum"],
                       "batch_total": delta["batch_total"],
                       "service_stats": delta,
                       "overhead_ratio": untraced_rate / traced_rate}
            per_layer = layer_metrics(tracer, windows, context)
            rows = layer_table(tracer.spans, windows)
            calls, absent = tracer.calls(), tracer.absent
            info["untraced_rps"] = untraced_rate
            info["traced_rps"] = traced_rate
        info.update(await run.oracle())
    finally:
        await run.close()
    tally = run.tally
    if not log.read_s:
        raise RuntimeError("no read request completed")
    reads_ms = [1e3 * s for s in log.read_s]
    writes_ms = [1e3 * s for s in log.write_s]
    p99 = supported_percentile(reads_ms, 99)
    info.update({
        "read_samples": len(reads_ms),
        "write_samples": len(writes_ms),
        "latency_p99_ms": p99 if p99 is not None else "unsupported",
        "write_p50_ms": median(writes_ms) if writes_ms else "no writes",
        "throughput_rps": log.completed / log.wall_s,
        "failed_share": failed_share(tally.attempted, tally.errored,
                                     tally.refused),
        "setup_runs_s": setups,
    })
    if not trace:  # traced slices are not contiguous: no windows
        info["completions_per_second"] = log.window_counts()
    end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": (log.completed / log.wall_s if trace
                             else log.window_rate()),
        "latency_p50_ms": median(reads_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    return Result(tally, end_to_end, per_layer, info, rows, calls, absent)


def run_serve(name: str, seed: int, seconds: float, trace: bool) -> Result:
    return asyncio.run(_serve(name, seed, seconds, trace))


# ----------------------------------------------------------------------
# Offline workload
# ----------------------------------------------------------------------
WORKERS = 2


@dataclass
class Pass:
    train_s: float
    score_s: float
    sharded_s: float

    @property
    def total_s(self) -> float:
        return self.train_s + self.score_s + self.sharded_s


def _digest(scores) -> str:
    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(scores.node_scores).tobytes())
    sha.update(np.ascontiguousarray(scores.edge_scores).tobytes())
    return sha.hexdigest()


class OfflineRun:
    """train_bourne (1 serial epoch), serial numpy score_graph, and
    score_graph(workers=2) on a pool spawned during set-up."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tally = Tally()
        self.digest: Optional[str] = None
        self.losses: Optional[List[float]] = None
        self.aucs: Optional[Tuple[float, float]] = None

    def setup(self) -> None:
        from multiprocessing import resource_tracker

        from repro.parallel import WorkerPool

        self.graph = build_graph(OFFLINE_SCALE)
        self.config = model_config(self.seed)
        # Workers forked before this process has a resource tracker each
        # start their own when they attach shared memory, and those
        # outlive the run.  Started here, the one tracker is inherited
        # by every worker and stopped by run.reap_children.
        resource_tracker.ensure_running()
        self.pool = WorkerPool(WORKERS)
        # Start the worker processes now, not inside the first pass.
        self.pool.run(abs, list(range(WORKERS)))

    def close(self) -> None:
        self.pool.close()

    def one_pass(self) -> Pass:
        from repro.core import score_graph, train_bourne
        from repro.metrics import roc_auc_score

        graph = self.graph
        t0 = time.perf_counter()
        model, history = train_bourne(graph, self.config, epochs=1)
        t1 = time.perf_counter()
        serial = score_graph(model, graph)
        t2 = time.perf_counter()
        sharded = score_graph(model, graph, workers=WORKERS, pool=self.pool)
        t3 = time.perf_counter()
        self.tally.attempted += 3
        digest = _digest(serial)
        if self.digest is None:
            self.digest, self.losses = digest, list(history.losses)
            self.aucs = (
                float(roc_auc_score(graph.node_labels, serial.node_scores)),
                float(roc_auc_score(graph.edge_labels, serial.edge_scores)))
        self.tally.check(
            np.array_equal(serial.node_scores, sharded.node_scores)
            and np.array_equal(serial.edge_scores, sharded.edge_scores),
            "sharded scores differ from serial scores")
        self.tally.check(digest == self.digest,
                         "serial score digest changed between passes")
        self.tally.check(list(history.losses) == self.losses,
                         "training loss changed between passes")
        return Pass(t1 - t0, t2 - t1, t3 - t2)


def _passes(run: OfflineRun, seconds: float) -> Tuple[List[Pass], float]:
    passes = []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started < seconds):
        passes.append(run.one_pass())
    return passes, time.perf_counter() - started


def _traced_passes(run: OfflineRun, seconds: float):
    """Alternate untraced and traced passes (at least one of each)."""
    untraced, traced, windows = [], [], []
    tracer = Tracer(TARGETS)
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        untraced.append(run.one_pass())
        tracer.install()
        try:
            lo = time.perf_counter()
            traced.append(run.one_pass())
            windows.append((lo, time.perf_counter()))
        finally:
            tracer.uninstall()
    return untraced, traced, tracer, windows


def run_offline(_name: str, seed: int, seconds: float, trace: bool) -> Result:
    setups = []
    run = None
    for attempt in range(SETUPS["offline"]):
        if run is not None:
            run.close()
        started = time.perf_counter()
        run = OfflineRun(seed)
        run.setup()
        setups.append(time.perf_counter() - started)
    info: Dict[str, object] = {"workers": WORKERS,
                               "num_nodes": run.graph.num_nodes,
                               "num_edges": run.graph.num_edges}
    try:
        if not trace:
            passes, _ = _passes(run, seconds)
            per_layer, rows, calls, absent = {}, [], {}, []
        else:
            untraced, passes, tracer, windows = _traced_passes(run, seconds)
            ratio = (median([p.total_s for p in untraced])
                     / median([p.total_s for p in passes]))
            context = {"serial_s": [p.score_s for p in passes],
                       "sharded_s": [p.sharded_s for p in passes],
                       "workers": WORKERS,
                       "overhead_ratio": 1.0 / ratio}
            per_layer = layer_metrics(tracer, windows, context)
            rows = layer_table(tracer.spans, windows)
            calls, absent = tracer.calls(), tracer.absent
            info["untraced_pass_s"] = median([p.total_s for p in untraced])
            info["traced_pass_s"] = median([p.total_s for p in passes])
    finally:
        run.close()
    nodes = run.graph.num_nodes
    tally = run.tally
    pass_s = median([p.total_s for p in passes])
    info.update({
        "passes": len(passes),
        "pass_s": [round(p.total_s, 4) for p in passes],
        "train_targets_per_s": nodes / median([p.train_s for p in passes]),
        "score_nodes_per_s": nodes / median([p.score_s for p in passes]),
        "sharded_score_nodes_per_s":
            nodes / median([p.sharded_s for p in passes]),
        "node_auc": run.aucs[0],
        "edge_auc": run.aucs[1],
        "score_digest": run.digest,
        "failed_share": failed_share(tally.attempted, tally.errored,
                                     tally.refused),
        "setup_runs_s": setups,
    })
    end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": 3 * nodes / pass_s,
        "latency_p50_ms": 1e3 * pass_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return Result(tally, end_to_end, per_layer, info, rows, calls, absent)


WORKLOADS = {
    "serve_miss": run_serve,
    "serve_mixed": run_serve,
    "offline": run_offline,
}
