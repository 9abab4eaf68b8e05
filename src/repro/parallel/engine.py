"""Sharded multi-process engine: worker pool + scoring entry points.

Scoring and training are embarrassingly parallel over target nodes once
every draw is counter-based: sampling, Γ1/Γ2 view augmentation, and the
``node_only`` forward mask each depend on ``(seed, round/step, target)``
and never on batch layout, so contiguous shards of a target range can
be processed in any process and the results merged afterwards.  This
module provides the shared infrastructure — a persistent
:class:`WorkerPool` whose workers attach the graph and model from
shared memory (:mod:`repro.parallel.shm`) and cache them across tasks —
plus the sharded *scoring* entry points; sharded *training* lives in
:mod:`repro.parallel.training` on the same pool.

Bitwise-identical merging
-------------------------
Floating-point accumulation is order-sensitive, so the merge does not
sum per-shard partial sums.  Workers return their raw per-round edge
contributions in target order; the parent replays them — rounds
outermost, shards in ascending target order — reproducing the exact
serial accumulation sequence.  Node evidence needs no replay: each
target lives in exactly one shard and accumulates round-major inside
the worker, just as the serial loop does.  Because the view
augmentation is counter-based, the merged output is bit-for-bit equal
to :func:`repro.core.score_graph` and ``ScoringService.refresh`` with
augmentation *on or off*.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.model import Bourne
from ..core.scoring import (
    AnomalyScores,
    RoundEvidence,
    finalize_scores,
    inference_round_streams,
    mean_edge_rounds,
    offline_view_builder,
    replay_edge_rounds,
    score_target_span,
)
from ..graph.index import index_of
from ..obs import trace as obs_trace
from ..serving import service as serving_service
from ..tensor.backend import resolve_backend
from .planner import ContiguousShardPlanner, ShardPlanner, validate_plan
from .shm import (
    SharedGraphExport,
    SharedGraphSpec,
    SharedModelExport,
    SharedModelSpec,
    attach_shared_graph,
    attach_shared_model,
)

#: Worker-process caches, keyed by the pool's monotonically increasing
#: graph/model tokens so rebinding (a mutated store, a new model)
#: invalidates exactly the stale attachment.
_WORKER_STATE: Dict[str, object] = {}


@dataclass(frozen=True)
class GraphRef:
    """Picklable handle to the pool's currently bound graph."""

    token: int
    spec: SharedGraphSpec


@dataclass(frozen=True)
class ModelRef:
    """Picklable handle to the pool's bound model at one version."""

    token: int
    version: int
    spec: SharedModelSpec


def _ensure_graph(ref: GraphRef):
    """Attach (or reuse) the shared graph named by ``ref`` (worker side)."""
    if _WORKER_STATE.get("graph_token") != ref.token:
        old = _WORKER_STATE.pop("graph", None)
        if old is not None:
            old.close()
        _WORKER_STATE["graph"] = attach_shared_graph(ref.spec)
        _WORKER_STATE["graph_token"] = ref.token
    return _WORKER_STATE["graph"]


def _ensure_model(ref: ModelRef) -> Bourne:
    """Rebuild (or refresh) the shared model named by ``ref`` (worker side).

    The model object is rebuilt only when the pool bound a *new* export
    (token change); version bumps refresh parameter values in place
    with one copy per array.
    """
    if _WORKER_STATE.get("model_token") != ref.token:
        old = _WORKER_STATE.pop("model", None)
        if old is not None:
            old.close()
        _WORKER_STATE["model"] = attach_shared_model(ref.spec)
        _WORKER_STATE["model_token"] = ref.token
    return _WORKER_STATE["model"].load(ref.version).model


def _mp_context(start_method: Optional[str]):
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    if "fork" in multiprocessing.get_all_start_methods():
        # Fastest start on POSIX, and workers inherit sys.path setup.
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerPool:
    """Persistent process pool bound to shared-memory graph/model slots.

    One pool serves every sharded engine in the repository: offline
    scoring, service refreshes, and data-parallel training all submit
    their shard tasks here, so a long-lived pool amortizes process
    spawn, graph export, and model rebuild across calls — the reason
    repeated training epochs and small-batch refreshes are profitable.

    ``bind_graph`` / ``publish_model`` may only be called while no
    tasks are outstanding (every engine collects a full task wave
    before rebinding); each returns a picklable ref that tasks carry,
    and workers lazily attach/refresh from the ref's token/version.
    """

    def __init__(self, workers: int, start_method: Optional[str] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        # Workers forked before the parent has a resource tracker would
        # each start their own on first shm attach, outliving the pool
        # and warning about segments the parent already unlinked.
        # Started here, the one tracker is inherited by every worker.
        resource_tracker.ensure_running()
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_mp_context(start_method),
        )
        self._graph_export: Optional[SharedGraphExport] = None
        self._graph_token = 0
        self._graph_ref: Optional[GraphRef] = None
        self._model_export: Optional[SharedModelExport] = None
        self._model_token = 0
        self._model_version = 0
        self._bound_model: Optional[Bourne] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind_graph(self, features: np.ndarray, index) -> GraphRef:
        """Export ``(features, index)``, replacing any previous graph."""
        self._check_open()
        export = SharedGraphExport.create(features, index)
        if self._graph_export is not None:
            self._graph_export.destroy()
        self._graph_export = export
        self._graph_token += 1
        self._graph_ref = GraphRef(self._graph_token, export.spec)
        return self._graph_ref

    @property
    def graph_ref(self) -> Optional[GraphRef]:
        return self._graph_ref

    @property
    def bound_model(self) -> Optional[Bourne]:
        """The model currently occupying the pool's parameter slot."""
        return self._bound_model

    def publish_model(self, model: Bourne, changed=None) -> ModelRef:
        """Bind ``model`` (first call / model change) or republish its
        current parameter values; returns the ref tasks should carry.

        ``changed`` (qualified parameter names) limits a republish to
        the parameters the last step rewrote — workers then memcpy only
        those deltas.  It is ignored on a fresh bind, which always
        exports everything.
        """
        self._check_open()
        if self._bound_model is not model or self._model_export is None:
            export = SharedModelExport.create(model)
            if self._model_export is not None:
                self._model_export.destroy()
            self._model_export = export
            self._model_token += 1
            self._model_version = 0
            self._bound_model = model
        else:
            self._model_version += 1
            self._model_export.publish(model, self._model_version,
                                       changed=changed)
        return ModelRef(
            self._model_token, self._model_version, self._model_export.spec
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, fn, tasks: List[tuple], label: str = "sharded run") -> List:
        """Fan ``tasks`` out; results come back in task (= shard) order.

        A worker exception is re-raised in the parent as
        ``RuntimeError`` naming the shard; pending tasks are cancelled
        but the pool itself stays usable (worker processes survive an
        ordinary task exception).
        """
        self._check_open()
        futures = [self._executor.submit(fn, task) for task in tasks]
        results: List = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except Exception as error:
                for pending in futures[index + 1 :]:
                    pending.cancel()
                raise RuntimeError(
                    f"{label} failed in shard {index} (of {len(tasks)}): {error}"
                ) from error
        return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("worker pool is closed")

    def close(self) -> None:
        """Shut the executor down and unlink every shared segment."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True, cancel_futures=True)
        if self._graph_export is not None:
            self._graph_export.destroy()
            self._graph_export = None
        if self._model_export is not None:
            self._model_export.destroy()
            self._model_export = None
        self._bound_model = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


@dataclass
class ShardScore(RoundEvidence):
    """One worker's :class:`RoundEvidence` plus its shard placement.

    Both worker kinds run the *same* ``score_target_span`` loop the
    serial scorer and the in-process service run — bitwise equivalence
    is structural, not mirrored code.

    ``spans`` carries the worker's exported trace records when the
    submitting parent was inside a live trace (the ``want_spans`` task
    flag); the parent re-parents them with
    :func:`repro.obs.trace.adopt_spans` so ``workers > 1`` refreshes
    still produce one request tree spanning both processes.
    """

    start: int = 0
    stop: int = 0
    spans: List[dict] = field(default_factory=list)


def _as_shard_score(
    evidence: RoundEvidence,
    start: int,
    stop: int,
    spans: Optional[List[dict]] = None,
) -> ShardScore:
    return ShardScore(
        node_sum=evidence.node_sum,
        node_count=evidence.node_count,
        edge_ids=evidence.edge_ids,
        edge_vals=evidence.edge_vals,
        forward_batches=evidence.forward_batches,
        start=start,
        stop=stop,
        spans=spans if spans is not None else [],
    )


def _score_shard(task: tuple) -> ShardScore:
    """Score one contiguous target shard (runs in a worker process).

    Runs the shared span loop with the offline view builder: identical
    per-round bases, identical per-target seeds (which drive sampling
    *and* view augmentation), identical per-round forward mask seeds —
    only the batch boundaries are shard-local, which the
    batch-invariant pipeline makes unobservable.
    """
    graph_ref, model_ref = task[0], task[1]
    (
        start,
        stop,
        round_bases,
        mask_seeds,
        batch_size,
        fail,
        want_spans,
        backend_name,
    ) = task[2:]
    if fail:
        raise RuntimeError(f"injected failure in shard [{start}, {stop})")
    graph = _ensure_graph(graph_ref)
    model = _ensure_model(model_ref)
    model.eval_mode()

    def run() -> RoundEvidence:
        return score_target_span(
            model,
            np.arange(start, stop, dtype=np.int64),
            round_bases,
            mask_seeds,
            batch_size,
            offline_view_builder(model, graph),
            backend=resolve_backend(backend_name),
        )

    if want_spans:
        with obs_trace.capture_spans(
            "parallel.score_shard", start=int(start), stop=int(stop)
        ) as shipped:
            evidence = run()
        return _as_shard_score(evidence, start, stop, spans=shipped)
    with obs_trace.clear_context():
        evidence = run()
    return _as_shard_score(evidence, start, stop)


def _service_score_shard(task: tuple) -> ShardScore:
    """Score one shard of a service miss queue (runs in a worker).

    Runs ``ScoringService``'s own span scorer
    (:func:`repro.serving.service.score_service_span`, minus the cache),
    so every score is bitwise what the in-process service would produce.
    """
    (
        graph_ref,
        model_ref,
        targets,
        seed,
        rounds,
        max_batch,
        fail,
        want_spans,
        backend_name,
    ) = task
    if fail:
        raise RuntimeError("injected failure in service shard")
    graph = _ensure_graph(graph_ref)
    model = _ensure_model(model_ref)
    model.eval_mode()
    backend = resolve_backend(backend_name)
    if want_spans:
        with obs_trace.capture_spans(
            "parallel.refresh_shard", targets=len(targets)
        ) as shipped:
            evidence = serving_service.score_service_span(
                model, graph, targets, seed, rounds, max_batch, backend=backend
            )
        return _as_shard_score(evidence, 0, len(targets), spans=shipped)
    with obs_trace.clear_context():
        evidence = serving_service.score_service_span(
            model, graph, targets, seed, rounds, max_batch, backend=backend
        )
    return _as_shard_score(evidence, 0, len(targets))


def _plan_shards(
    num_targets: int,
    workers: int,
    shards: Optional[int],
    planner: Optional[ShardPlanner],
    costs: Optional[np.ndarray],
) -> List[Tuple[int, int]]:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if shards is None:
        shards = max(workers * 4, 1)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    planner = planner if planner is not None else ContiguousShardPlanner()
    plan = planner.plan(num_targets, shards, costs=costs)
    return validate_plan(plan, num_targets)


def score_graph_sharded(
    model: Bourne,
    graph,
    rounds: Optional[int] = None,
    batch_size: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 2,
    shards: Optional[int] = None,
    planner: Optional[ShardPlanner] = None,
    start_method: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    backend=None,
    _fail_shard: Optional[int] = None,
) -> AnomalyScores:
    """Multi-process counterpart of :func:`repro.core.score_graph`.

    Partitions the target range into contiguous shards, scores them in
    ``workers`` processes, and merges the evidence in serial
    accumulation order.  The result is bitwise-identical to the serial
    batched path for every shard/worker count, with view augmentation
    on or off (all inference randomness is counter-based).

    ``pool`` reuses an existing :class:`WorkerPool` (it is left open);
    otherwise an ephemeral pool is created and torn down.  ``backend``
    names the tensor backend each worker resolves locally (backends
    cross the process boundary by name, never by instance).
    ``_fail_shard`` is a test hook: the worker handling that shard
    raises, exercising crash propagation.
    """
    cfg = model.config
    rounds = rounds if rounds is not None else cfg.eval_rounds
    batch_size = batch_size if batch_size is not None else cfg.batch_size
    backend_name = resolve_backend(backend).name
    round_bases, mask_seeds = inference_round_streams(cfg, rounds, seed)

    index = index_of(graph)
    num_nodes = index.num_nodes
    degrees = index.degrees.astype(np.float64) + 1.0
    plan = _plan_shards(num_nodes, workers, shards, planner, degrees)

    own_pool = pool is None
    pool = pool if pool is not None else WorkerPool(workers, start_method)
    want_spans = obs_trace.active()
    try:
        with obs_trace.span("parallel.scoring") as sp:
            sp.set(shards=len(plan), workers=pool.workers)
            graph_ref = pool.bind_graph(graph.features, index)
            model_ref = pool.publish_model(model)
            tasks = [
                (
                    graph_ref,
                    model_ref,
                    start,
                    stop,
                    round_bases,
                    mask_seeds,
                    batch_size,
                    shard_index == _fail_shard,
                    want_spans,
                    backend_name,
                )
                for shard_index, (start, stop) in enumerate(plan)
            ]
            results = pool.run(_score_shard, tasks, label="sharded scoring")
            for result in results:
                obs_trace.adopt_spans(result.spans)
    finally:
        if own_pool:
            pool.close()

    node_sum = np.zeros(num_nodes)
    node_count = np.zeros(num_nodes)
    edge_sum = np.zeros(index.num_edges)
    edge_count = np.zeros(index.num_edges)
    for result in results:
        start, stop = result.start, result.stop
        node_sum[start:stop] = result.node_sum
        node_count[start:stop] = result.node_count
    # Replay edge evidence in serial order: rounds outermost, then
    # shards ascending — exactly the sequence the serial loop adds in.
    replay_edge_rounds(edge_sum, edge_count, rounds, results)
    return finalize_scores(node_sum, node_count, edge_sum, edge_count)


def service_refresh_scores(
    service,
    targets: np.ndarray,
    workers: int = 2,
    shards: Optional[int] = None,
    planner: Optional[ShardPlanner] = None,
    start_method: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    _fail_shard: Optional[int] = None,
) -> Tuple[np.ndarray, Dict[int, float], int]:
    """Drain a service miss queue through the sharded engine.

    Returns ``(node_scores, edge_means, forward_batches)``: per-target
    mean scores aligned with ``targets``, the per-edge-id mean evidence
    to fold into the service's edge table, and the number of forward
    batches the workers ran.  Node scores and edge means are
    bitwise-identical to ``ScoringService._score_targets`` on the same
    store state.  ``pool`` reuses an existing :class:`WorkerPool` — for
    example a trainer's — rebinding its graph slot to the store's
    current snapshot.
    """
    targets = np.asarray(targets, dtype=np.int64)
    store = service.store
    index = store.index
    degrees = index.degrees.astype(np.float64)
    costs = degrees[targets] + 1.0
    plan = _plan_shards(len(targets), workers, shards, planner, costs)

    own_pool = pool is None
    pool = pool if pool is not None else WorkerPool(workers, start_method)
    want_spans = obs_trace.active()
    try:
        with obs_trace.span("parallel.refresh") as sp:
            sp.set(shards=len(plan), workers=pool.workers, targets=len(targets))
            graph_ref = pool.bind_graph(store.features, index)
            model_ref = pool.publish_model(service.model)
            tasks = [
                (
                    graph_ref,
                    model_ref,
                    targets[start:stop],
                    service.seed,
                    service.rounds,
                    service.max_batch,
                    shard_index == _fail_shard,
                    want_spans,
                    service.backend.name,
                )
                for shard_index, (start, stop) in enumerate(plan)
            ]
            results = pool.run(_service_score_shard, tasks, label="sharded refresh")
            for result in results:
                obs_trace.adopt_spans(result.spans)
    finally:
        if own_pool:
            pool.close()

    sums = np.concatenate([result.node_sum for result in results])
    scores = sums / service.rounds
    edge_means = mean_edge_rounds(service.rounds, results)
    forward_batches = sum(result.forward_batches for result in results)
    return scores, edge_means, forward_batches
