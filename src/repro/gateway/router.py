"""Routing layer: named services, replica pools, tenant stores.

The PR 5 gateway fronted exactly one
:class:`~repro.serving.service.ScoringService`.  This module is the
seam between the transports and the services that lifts that limit:

* **Named services** — a :class:`ServiceRouter` maps route keys (the
  NDJSON ``"service"`` field, the HTTP path prefix ``/v1/t/<name>/...``
  or the ``X-Repro-Service`` header) to independent
  :class:`ServiceEndpoint` instances, each with its own store, model,
  and backend.  Services attach at boot, through ``serve --tenants``,
  or dynamically via the ``{"op": "attach_service"}`` admin op.
* **Replica pools** — :class:`ReplicaPool` runs N batcher-wrapped
  replicas of one service, each on a one-worker
  :class:`~repro.parallel.engine.WorkerPool`.  The graph lives in POSIX
  shared memory once (:mod:`repro.parallel.shm` ships base + overlay),
  every replica's worker attaches it read-only, and reads go to the
  least-loaded replica.  Mutations fan in through a single
  writer: the pool closes its read gate, drains in-flight scores,
  applies the mutation on the primary service's scoring thread, resyncs
  shared memory, and reopens — so mutation ordering is exactly the
  single-service gateway's, and every score is bitwise what the
  in-process service returns (the replica workers run the engine's
  :func:`~repro.parallel.engine.score_task` on the same counter-based
  streams the service itself uses).
* **Tenant mode** — :class:`TenantSpec` describes how to build a
  tenant's store + model; the router boots specs lazily on first
  request and evicts idle spec-backed endpoints (they rebuild on the
  next request), which is the many-medium-graphs shape the ROADMAP
  aims at.
"""

from __future__ import annotations

import asyncio
import logging
import re
import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

import numpy as np

from ..core.scoring import RoundEvidence
from ..obs.metrics import MetricsRegistry
from ..parallel.engine import ScoreTask, WorkerPool, score_task
from ..serving.service import edge_mean_from_evidence
from ..utils.logging import get_logger, log_event
from ..utils.validation import check_int, check_number
from .batcher import MicroBatcher
from .protocol import MUTATION_PARSERS, dispatch_request

LOGGER = get_logger("repro.gateway", json_format=True)

#: Route key of the gateway's default (unnamed) service.
DEFAULT_SERVICE = "default"

_METRIC_SAFE = re.compile(r"[^a-zA-Z0-9_]")


class _ReplicaProxy:
    """Duck-types the slice of ``ScoringService`` a ``MicroBatcher``
    drives (``store`` for validation, ``score_nodes``/``score_edge``),
    forwarding the scoring to one replica's worker process.

    Runs on the replica batcher's scoring thread; every call happens
    inside a read slot the pool's write gate has admitted, so reading
    the primary store (edge lookups, seed/rounds) never races a
    mutation.  The worker runs the engine's :func:`score_task` — the
    span loop the in-process service runs — and edge means resolve
    here exactly as :func:`~repro.serving.service.score_edge_span`
    resolves them, so every answer is bitwise the single-service one.
    """

    def __init__(self, pool: "ReplicaPool", replica: "_Replica"):
        self._pool = pool
        self._replica = replica

    @property
    def store(self):
        return self._pool.service.store

    def _run(self, targets: List[int]) -> RoundEvidence:
        pool = self._pool
        service = pool.service
        task = ScoreTask(pool._graph_ref, pool._model_ref,
                         np.asarray(targets, dtype=np.int64), service.seed,
                         service.rounds, service.max_batch,
                         service.backend.name)
        self._replica.dispatched += 1
        evidence, _spans = self._replica.pool.run(score_task, [task])[0]
        return evidence

    def score_nodes(self, nodes) -> List[float]:
        evidence = self._run([int(n) for n in nodes])
        return [float(s) for s in evidence.node_sum / self._pool.service.rounds]

    def score_edge(self, u: int, v: int) -> float:
        key = (min(int(u), int(v)), max(int(u), int(v)))
        edge_id = self.store.edge_id(*key)
        mean, _imputed = edge_mean_from_evidence(
            self._run(list(key)), self._pool.service.rounds, edge_id)
        return mean


class _Replica:
    """Parent-side handle for one replica: a one-worker
    :class:`WorkerPool`, its micro-batcher, and the load bookkeeping."""

    __slots__ = ("pool", "batcher", "inflight", "dispatched")

    def __init__(self, pool: WorkerPool):
        self.pool = pool
        self.batcher: Optional[MicroBatcher] = None
        self.inflight = 0
        self.dispatched = 0


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------
class ServiceEndpoint:
    """One named service behind the router — the single-batcher path.

    One :class:`MicroBatcher` owns all service access on one scoring
    thread: score requests queue in it and dispatch, up to
    ``max_batch`` at a time, as soon as that thread is free.
    :class:`ReplicaPool` subclasses it for the fan-out path.
    """

    replicas = 1

    def __init__(self, name: str, service, *, max_batch: int = 32,
                 metrics: Optional[MetricsRegistry] = None,
                 registry=None, model_name: Optional[str] = None,
                 model_version: Optional[int] = None):
        self.name = name
        self.service = service
        self.registry = registry
        self.model_name = model_name
        self.served_version = model_version
        self.batcher = MicroBatcher(service, max_batch=max_batch, metrics=metrics)
        self.spec: Optional["TenantSpec"] = None
        self.last_used = time.monotonic()

    def touch(self) -> None:
        self.last_used = time.monotonic()

    # -- lifecycle -----------------------------------------------------
    async def start(self, inline: bool = False) -> None:
        await self.batcher.start(inline)

    async def stop(self) -> None:
        await self.batcher.stop()

    # -- request surface ----------------------------------------------
    async def score_node(self, node: int) -> float:
        return await self.batcher.score_node(node)

    async def score_edge(self, u: int, v: int) -> float:
        return await self.batcher.score_edge(u, v)

    async def run_op(self, request: dict,
                     refresh_workers: Optional[int] = None) -> dict:
        """Mutations / stats / refresh, serialized on the scoring
        thread FIFO with forward batches."""
        return await self.batcher.submit(
            dispatch_request, self.service, request, refresh_workers)

    async def submit(self, fn, *args):
        return await self.batcher.submit(fn, *args)

    async def swap_model(self, model) -> None:
        await self.batcher.swap_model(model)

    # -- introspection -------------------------------------------------
    def describe(self) -> dict:
        store = self.service.store
        return {"service": self.name, "replicas": self.replicas,
                "backend": self.service.backend.name,
                "num_nodes": store.num_nodes,
                "num_edges": store.num_edges,
                "model_version": self.served_version,
                "evictable": self.spec is not None}


class ReplicaPool(ServiceEndpoint):
    """N replicas of one service sharing the graph read-only via shm.

    Reads (``score_node`` / ``score_edge``) dispatch to the replica
    with the fewest in-flight requests; each replica is a one-worker
    :class:`~repro.parallel.engine.WorkerPool` wrapped in its own
    :class:`MicroBatcher`, so concurrent requests still coalesce into
    shared forward batches per replica.  A replica whose process dies
    is respawned by its pool, which reruns the lost batch on the fresh
    worker (counted in ``pool_stats()["respawns"]``).

    Every replica reads one shared export: the first replica's pool
    binds the graph and model, and every replica's tasks carry its
    refs.  The segments are owned parent-side, so they outlive any
    replica's worker.  Writes fan in through one path: the pool closes
    the read gate, waits for in-flight reads to drain, applies the
    mutation on the primary service (the inherited writer batcher
    thread), republishes shared memory — feature-only updates in place
    via :meth:`~repro.parallel.engine.WorkerPool.publish_features`,
    topology changes by rebinding a fresh export — and reopens the
    gate.  Single-writer fan-in keeps mutation ordering deterministic
    and means replicas never observe a half-applied store.
    """

    def __init__(self, name: str, service, *, replicas: int,
                 max_batch: int = 32, metrics: Optional[MetricsRegistry] = None,
                 registry=None, model_name: Optional[str] = None,
                 model_version: Optional[int] = None):
        if replicas < 2:
            raise ValueError("ReplicaPool needs replicas >= 2; use "
                             "ServiceEndpoint for a single replica")
        super().__init__(name, service, max_batch=max_batch,
                         metrics=metrics, registry=registry,
                         model_name=model_name, model_version=model_version)
        self.replicas = int(replicas)
        self._max_batch = int(max_batch)
        self._metrics = metrics
        self._replica_list: List[_Replica] = []
        self._graph_ref = None
        self._model_ref = None
        self._gate = asyncio.Event()
        self._drained = asyncio.Event()
        self._writer_lock = asyncio.Lock()
        self._reads = 0
        self._started = False

    # -- shared-memory binding (sync; called off the event loop) -------
    @property
    def _exports(self) -> WorkerPool:
        """The pool whose shared segments every replica reads."""
        return self._replica_list[0].pool

    def _bind_graph(self) -> None:
        store = self.service.store
        self._graph_ref = self._exports.bind_graph(store.features,
                                                   store.index)

    def _publish_features(self) -> None:
        store = self.service.store
        self._graph_ref = self._exports.publish_features(store.features,
                                                         store.index)

    def _publish_model(self) -> None:
        self._model_ref = self._exports.publish_model(self.service.model)

    # -- lifecycle -----------------------------------------------------
    async def start(self, inline: bool = False) -> None:
        if self._started:
            return
        self._started = True
        await self.batcher.start(inline)  # the writer path
        loop = asyncio.get_running_loop()

        def spawn() -> None:
            self._replica_list = [_Replica(WorkerPool(1))
                                  for _ in range(self.replicas)]
            self._bind_graph()
            self._publish_model()
            # Warm every worker now: process spawn happens before traffic.
            for replica in self._replica_list:
                replica.pool.run(abs, [0])

        await loop.run_in_executor(None, spawn)
        for replica in self._replica_list:
            replica.batcher = MicroBatcher(
                _ReplicaProxy(self, replica), max_batch=self._max_batch,
                metrics=self._metrics)
            await replica.batcher.start(inline)
        self._gate.set()
        self._drained.set()
        log_event(LOGGER, logging.INFO, "replica pool started",
                  service=self.name, replicas=self.replicas,
                  pids=self.pool_stats()["pids"])

    async def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        for replica in self._replica_list:
            if replica.batcher is not None:
                await replica.batcher.stop()
        await self.batcher.stop()

        def close_pools() -> None:
            # The exporting pool goes last, after every reader.
            for replica in reversed(self._replica_list):
                replica.pool.close()

        await asyncio.get_running_loop().run_in_executor(None, close_pools)
        self._replica_list = []

    # -- read path: least-loaded dispatch -------------------------------
    async def _read(self, kind: str, args: tuple) -> float:
        await self._gate.wait()
        replica = min(self._replica_list, key=lambda r: r.inflight)
        self._reads += 1
        self._drained.clear()
        replica.inflight += 1
        try:
            if kind == "node":
                return await replica.batcher.score_node(args[0])
            return await replica.batcher.score_edge(*args)
        finally:
            replica.inflight -= 1
            self._reads -= 1
            if self._reads == 0:
                self._drained.set()

    async def score_node(self, node: int) -> float:
        return await self._read("node", (int(node),))

    async def score_edge(self, u: int, v: int) -> float:
        return await self._read("edge", (int(u), int(v)))

    # -- write path: single-writer fan-in ------------------------------
    async def _write(self, fn, *args, resync=None):
        async with self._writer_lock:
            self._gate.clear()
            try:
                await self._drained.wait()
                result = await self.batcher.submit(fn, *args)
                if resync is not None:
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, resync)
                return result
            finally:
                self._gate.set()

    async def run_op(self, request: dict,
                     refresh_workers: Optional[int] = None) -> dict:
        op = request.get("op")
        # Writes and compaction change the store, so they take the
        # single-writer quiesce + shared-memory resync.  ``refresh`` and
        # ``stats`` only touch the primary's score tables, which
        # replicas do not share, so they run without a quiesce.
        if op in MUTATION_PARSERS or op == "compact":
            resync = (self._publish_features
                      if op == "update_features" else self._bind_graph)
            return await self._write(dispatch_request, self.service,
                                     request, refresh_workers,
                                     resync=resync)
        response = await self.batcher.submit(
            dispatch_request, self.service, request, refresh_workers)
        if op == "stats" and isinstance(response, dict) \
                and isinstance(response.get("stats"), dict):
            response["stats"]["replica_pool"] = self.pool_stats()
        return response

    async def swap_model(self, model) -> None:
        await self._write(self.service.swap_model, model,
                          resync=self._publish_model)

    # -- introspection -------------------------------------------------
    def pool_stats(self) -> dict:
        replicas = self._replica_list
        return {
            "replicas": self.replicas,
            "pids": [pid for r in replicas for pid in r.pool.pids],
            "inflight": [r.inflight for r in replicas],
            "dispatched": [r.dispatched for r in replicas],
            "respawns": sum(r.pool.respawns for r in replicas),
        }


# ----------------------------------------------------------------------
# Tenant specs
# ----------------------------------------------------------------------
@dataclass
class TenantSpec:
    """Recipe for building one tenant's service (store + model).

    Exactly one model source is required: ``model`` (a checkpoint path)
    or ``registry`` (a registry root; ``model_name`` defaults to the
    tenant name).  The graph comes from the dataset registry — each
    tenant gets its own :class:`~repro.serving.store.GraphStore`, so
    tenants never share mutable state.
    """

    name: str
    dataset: str = "cora"
    scale: float = 0.15
    seed: int = 0
    rounds: Optional[int] = None
    model: Optional[str] = None
    registry: Optional[str] = None
    model_name: Optional[str] = None
    model_version: Optional[int] = None
    backend: Optional[str] = None
    replicas: int = 1
    compact_threshold: Optional[float] = 0.25

    def validate(self) -> "TenantSpec":
        if not self.name or not isinstance(self.name, str):
            raise ValueError("tenant spec needs a non-empty 'name'")
        if (self.model is None) == (self.registry is None):
            raise ValueError(
                f"tenant {self.name!r}: exactly one of 'model' (checkpoint "
                "path) or 'registry' (registry root) is required")
        # JSON integers only: int() would turn replicas 2.5 into 2.
        prefix = f"tenant {self.name!r}: "
        check_int(self.seed, prefix + "seed")
        if self.model_version is not None:
            check_int(self.model_version, prefix + "model_version")
        for field, value in (("replicas", self.replicas),
                             ("rounds", self.rounds)):
            if value is not None and check_int(value, prefix + field) < 1:
                raise ValueError(f"{prefix}{field} must be >= 1")
        if not check_number(self.scale, prefix + "scale") > 0:
            raise ValueError(
                f"{prefix}scale must be a positive number, got {self.scale!r}")
        if (self.compact_threshold is not None
                and not check_number(self.compact_threshold,
                                     prefix + "compact_threshold") >= 0):
            raise ValueError(f"{prefix}compact_threshold must be >= 0 or "
                             f"null, got {self.compact_threshold!r}")
        return self


_SPEC_FIELDS = {f.name for f in fields(TenantSpec)} - {"name"}


def parse_tenant_spec(name: str, payload: dict) -> TenantSpec:
    """Build a validated :class:`TenantSpec` from a JSON payload."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"tenant spec for {name!r} must be a JSON object, "
            f"got {type(payload).__name__}")
    unknown = set(payload) - _SPEC_FIELDS
    if unknown:
        raise ValueError(f"tenant spec for {name!r} has unknown keys "
                         f"{sorted(unknown)}; allowed: "
                         f"{sorted(_SPEC_FIELDS)}")
    return TenantSpec(name=name, **payload).validate()


def load_tenant_specs(path: str) -> List[TenantSpec]:
    """Parse a ``serve --tenants`` spec file.

    Accepts either a bare JSON list of tenant objects (each carrying
    its ``name``) or ``{"tenants": [...]}``.
    """
    import json

    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from error
    if isinstance(payload, dict):
        payload = payload.get("tenants")
    if not isinstance(payload, list):
        raise ValueError(
            f"{path}: expected a JSON list of tenant specs "
            "(or an object with a 'tenants' list)")
    specs = []
    for entry in payload:
        if not isinstance(entry, dict) or not entry.get("name"):
            raise ValueError(f"{path}: every tenant spec needs a 'name'")
        entry = dict(entry)
        specs.append(parse_tenant_spec(entry.pop("name"), entry))
    return specs


def build_tenant_service(spec: TenantSpec):
    """Build ``(service, registry, model_version)`` for one tenant.

    The one service recipe: ``serve`` describes its default service as
    a spec too.  CPU-bound (dataset generation + store build); the
    router runs it in an executor so lazy boots never stall the event
    loop.
    """
    from ..core import load_model
    from ..datasets import load_benchmark
    from ..eval import normalize_graph
    from ..serving import GraphStore, ModelRegistry, ScoringService

    registry = None
    version = None
    if spec.registry is not None:
        registry = ModelRegistry(spec.registry)
        model_name = spec.model_name or spec.name
        version = (spec.model_version if spec.model_version is not None
                   else registry.latest(model_name))
        model = registry.load(model_name, version)
    else:
        model = load_model(spec.model)
    graph = normalize_graph(load_benchmark(spec.dataset, seed=spec.seed,
                                           scale=spec.scale))
    if model.num_features != graph.num_features:
        raise ValueError(
            f"service {spec.name!r}: model expects {model.num_features} "
            f"features but {spec.dataset}@{spec.scale} has "
            f"{graph.num_features}; match dataset, scale and seed with "
            "the training run")
    store = GraphStore.from_graph(
        graph, influence_radius=model.config.hop_size,
        compact_threshold=spec.compact_threshold)
    service = ScoringService(model, store, rounds=spec.rounds,
                             backend=spec.backend)
    return service, registry, version


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class ServiceRouter:
    """Name → endpoint map with lazy tenant boot and idle eviction.

    Resolution order: a live endpoint wins; otherwise a registered
    :class:`TenantSpec` boots on first request (serialized per name, so
    concurrent first requests share one boot); otherwise the name is
    unknown.  Spec-backed endpoints are the only evictable ones — an
    evicted tenant's spec stays registered and the next request
    rebuilds it from scratch, bitwise-identically (stores are pure
    functions of the spec).
    """

    def __init__(self, *, metrics: Optional[MetricsRegistry] = None,
                 max_batch: int = 32):
        if max_batch < 1:  # checked here too: tenants build batchers late
            raise ValueError("max_batch must be >= 1")
        self._endpoints: Dict[str, ServiceEndpoint] = {}
        self._specs: Dict[str, TenantSpec] = {}
        self._boot_locks: Dict[str, asyncio.Lock] = {}
        self._metrics = metrics
        self._max_batch = int(max_batch)
        self.default_name = DEFAULT_SERVICE
        self.inline = False  # endpoints start inline (see MicroBatcher)
        self.attaches = 0
        self.detaches = 0
        self.evictions = 0

    # -- construction --------------------------------------------------
    def make_endpoint(self, name: str, service, *, replicas: int = 1,
                      registry=None, model_name: Optional[str] = None,
                      model_version: Optional[int] = None,
                      spec: Optional[TenantSpec] = None) -> ServiceEndpoint:
        kwargs = dict(max_batch=self._max_batch,
                      metrics=self._metrics, registry=registry,
                      model_name=model_name, model_version=model_version)
        if int(replicas) > 1:
            endpoint: ServiceEndpoint = ReplicaPool(
                name, service, replicas=int(replicas), **kwargs)
        else:
            endpoint = ServiceEndpoint(name, service, **kwargs)
        endpoint.spec = spec
        return endpoint

    # -- registration --------------------------------------------------
    def register_spec(self, spec: TenantSpec, replace: bool = False) -> None:
        if not replace and (spec.name in self._specs
                            or spec.name in self._endpoints):
            raise ValueError(f"service {spec.name!r} is already attached")
        self._specs[spec.name] = spec

    def has_spec(self, name: str) -> bool:
        return name in self._specs

    def spec_names(self) -> List[str]:
        return sorted(self._specs)

    def add(self, endpoint: ServiceEndpoint) -> ServiceEndpoint:
        """Register an endpoint without starting it (pre-event-loop
        construction; the gateway starts registered endpoints in
        ``start()``)."""
        if endpoint.name in self._endpoints:
            raise ValueError(f"service {endpoint.name!r} is already attached")
        self._endpoints[endpoint.name] = endpoint
        self.attaches += 1
        if self._metrics is not None:
            safe = _METRIC_SAFE.sub("_", endpoint.name)
            self._metrics.gauge(
                f"gateway_service_up_{safe}",
                f"replica count while service {endpoint.name!r} is "
                "attached").set(endpoint.replicas)
        log_event(LOGGER, logging.INFO, "service attached",
                  service=endpoint.name, replicas=endpoint.replicas)
        return endpoint

    async def attach(self, endpoint: ServiceEndpoint) -> ServiceEndpoint:
        self.add(endpoint)
        await endpoint.start(self.inline)
        return endpoint

    async def detach(self, name: str,
                     keep_spec: bool = False) -> ServiceEndpoint:
        endpoint = self._endpoints.pop(name, None)
        if endpoint is None:
            raise KeyError(f"unknown service {name!r}")
        if not keep_spec:
            self._specs.pop(name, None)
        if self._metrics is not None:
            self._metrics.unregister(
                f"gateway_service_up_{_METRIC_SAFE.sub('_', name)}")
        self.detaches += 1
        await endpoint.stop()
        log_event(LOGGER, logging.INFO, "service detached", service=name)
        return endpoint

    # -- resolution ----------------------------------------------------
    def get(self, name: str) -> Optional[ServiceEndpoint]:
        return self._endpoints.get(name)

    async def resolve(self, name: Optional[str] = None) -> ServiceEndpoint:
        key = name if name is not None else self.default_name
        endpoint = self._endpoints.get(key)
        if endpoint is not None:
            return endpoint
        if key in self._specs:
            return await self._boot(key)
        if name is None:
            raise ValueError("no default service is attached; requests "
                             "must name a 'service'")
        raise KeyError(f"unknown service {name!r}")

    async def _boot(self, name: str) -> ServiceEndpoint:
        lock = self._boot_locks.setdefault(name, asyncio.Lock())
        async with lock:
            endpoint = self._endpoints.get(name)
            if endpoint is not None:
                return endpoint  # a concurrent request already booted it
            spec = self._specs[name]
            loop = asyncio.get_running_loop()
            started = loop.time()
            service, registry, version = await loop.run_in_executor(
                None, build_tenant_service, spec)
            endpoint = self.make_endpoint(
                name, service, replicas=spec.replicas, registry=registry,
                model_name=spec.model_name or spec.name,
                model_version=version, spec=spec)
            await self.attach(endpoint)
            log_event(LOGGER, logging.INFO, "tenant booted", service=name,
                      boot_ms=round((loop.time() - started) * 1000.0, 1))
            return endpoint

    # -- lifecycle -----------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._endpoints)

    def endpoints(self) -> List[ServiceEndpoint]:
        return [self._endpoints[name] for name in sorted(self._endpoints)]

    async def stop_all(self) -> None:
        for name in list(self._endpoints):
            endpoint = self._endpoints.pop(name)
            try:
                await endpoint.stop()
            except Exception as error:  # teardown must not mask teardown
                log_event(LOGGER, logging.WARNING, "endpoint stop failed",
                          service=name, error=str(error),
                          error_type=type(error).__name__)

    async def evict_idle(self, idle_ttl: float,
                         inflight_for) -> List[str]:
        """Detach spec-backed endpoints idle for ``idle_ttl`` seconds
        with no in-flight requests; their specs stay registered, so the
        next request lazily reboots them."""
        now = time.monotonic()
        evicted: List[str] = []
        for name, endpoint in list(self._endpoints.items()):
            if endpoint.spec is None:
                continue
            if inflight_for(name):
                continue
            if now - endpoint.last_used < idle_ttl:
                continue
            await self.detach(name, keep_spec=True)
            self.evictions += 1
            evicted.append(name)
        if evicted:
            log_event(LOGGER, logging.INFO, "idle tenants evicted",
                      services=evicted)
        return evicted

    def describe(self) -> dict:
        return {
            "services": [endpoint.describe()
                         for endpoint in self.endpoints()],
            "lazy": sorted(set(self._specs) - set(self._endpoints)),
            "attaches": self.attaches,
            "detaches": self.detaches,
            "evictions": self.evictions,
        }
