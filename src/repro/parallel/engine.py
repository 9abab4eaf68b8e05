"""The worker runtime, its two tasks and the sharded scoring entry points.

Scoring and training are embarrassingly parallel over target nodes once
every draw is counter-based: sampling, Γ1/Γ2 view augmentation, and the
``node_only`` forward mask each depend on ``(seed, round/step, target)``
and never on batch layout, so contiguous shards of a target range can
be processed in any process and the results merged afterwards.  This
module holds the repository's one worker runtime — a persistent
:class:`WorkerPool` whose workers attach the graph and model from
shared memory (:mod:`repro.parallel.shm`) and cache them across tasks —
the two tasks its workers run (:func:`score_task`, :func:`train_task`)
and the sharded *scoring* entry points.  Sharded training
(:class:`repro.core.trainer.BourneTrainer`), the gateway's replica pool
and the lifecycle retrainer are clients of the same pool.  Every
sharded client splits its work into ``SHARDS_PER_WORKER × workers``
even shards.

Bitwise-identical merging
-------------------------
Floating-point accumulation is order-sensitive, so no merge sums
per-shard partial sums.  Training tasks return per-chunk ``(loss,
gradients)`` pairs, which the trainer merges in chunk order
(:func:`repro.core.trainer.merge_chunk_grads`).  Scoring workers
return their raw per-round edge contributions in target order; the
parent replays them — rounds outermost, shards in ascending target
order — reproducing the exact serial accumulation sequence.  Node evidence needs no replay: each
target lives in exactly one shard and accumulates round-major inside
the worker, just as the serial loop does.  Because the view
augmentation is counter-based, the merged output is bit-for-bit equal
to :func:`repro.core.score_graph` and ``ScoringService.refresh`` with
augmentation *on or off*.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.model import Bourne
from ..core.scoring import (
    AnomalyScores,
    RoundEvidence,
    finalize_scores,
    replay_edge_rounds,
)
from ..core.trainer import train_chunk
from ..graph.index import index_of
from ..obs import trace as obs_trace
from ..serving.service import score_service_span
from ..tensor.backend import resolve_backend
from .shm import (
    SharedGraphExport,
    SharedGraphSpec,
    SharedModelExport,
    SharedModelSpec,
    attach_shared_graph,
    attach_shared_model,
)

#: Fork where available: the fastest start on POSIX, and workers
#: inherit the parent's ``sys.path`` setup.
_MP_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)

#: Even work shards per worker in every sharded client: more tasks than
#: workers lets a fast worker pick up the next shard.
SHARDS_PER_WORKER = 4

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


def _attached(slot: str, ref, attach):
    """Attach (or reuse) the shared ``slot`` named by ``ref`` (worker side)."""
    if _WORKER_STATE.get(f"{slot}_token") != ref.token:
        old = _WORKER_STATE.pop(slot, None)
        if old is not None:
            old.close()
        _WORKER_STATE[slot] = attach(ref.spec)
        _WORKER_STATE[f"{slot}_token"] = ref.token
    return _WORKER_STATE[slot]


def _ensure_model(ref: ModelRef) -> Bourne:
    """Rebuild (or refresh) the shared model named by ``ref`` (worker side).

    The model object is rebuilt only when the pool bound a *new* export
    (token change); version bumps refresh parameter values in place
    with one copy per array.
    """
    return _attached("model", ref, attach_shared_model).load(ref.version).model


class WorkerPool:
    """Persistent process pool bound to shared-memory graph/model slots.

    The one worker runtime in the repository: offline scoring, service
    refreshes and data-parallel training fan their shard tasks out
    here, each gateway replica is a one-worker pool, and the lifecycle
    controller retrains on one.  A long-lived pool amortizes process
    spawn, graph export, and model rebuild across calls — the reason
    repeated training epochs and small-batch refreshes are profitable.

    ``bind_graph`` / ``publish_features`` / ``publish_model`` may only
    be called while no task reads the slot they rewrite (every engine
    collects a full task wave before rebinding); each returns a
    picklable ref that tasks carry, and workers lazily attach/refresh
    from the ref's token/version.  The refs name parent-owned segments,
    so tasks submitted to *other* pools may carry them too.

    A worker that dies breaks its executor: the next :meth:`submit`
    swaps in fresh workers and :meth:`run` reruns the tasks it lost, so
    every client heals with no code of its own.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        # Workers forked before the parent has a resource tracker would
        # each start their own on first shm attach, outliving the pool
        # and warning about segments the parent already unlinked.
        # Started here, the one tracker is inherited by every worker.
        resource_tracker.ensure_running()
        self._executor = ProcessPoolExecutor(self.workers, _MP_CONTEXT)
        self._graph_export: Optional[SharedGraphExport] = None
        self._graph_token = 0
        self._graph_ref: Optional[GraphRef] = None
        self._model_export: Optional[SharedModelExport] = None
        self._model_token = 0
        self._model_version = 0
        self._bound_model: Optional[Bourne] = None
        self._respawns = 0
        self._submit_lock = threading.Lock()  # one swap per broken executor
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

    def publish_features(self, features: np.ndarray, index) -> GraphRef:
        """Republish a feature-only change of the bound graph.

        The values go into the existing segment in place: attached
        workers see them through the shared pages under the same token,
        so the write costs one ``memcpy`` instead of a re-export.  Falls
        back to :meth:`bind_graph` when no graph is bound or the matrix
        shape moved (``add_node`` grows it).
        """
        self._check_open()
        export = self._graph_export
        if export is not None and export.publish_features(features):
            return self._graph_ref
        return self.bind_graph(features, index)

    def publish_model(self, model: Bourne) -> ModelRef:
        """Bind ``model`` (first call / model change) or republish all
        its current parameter values; returns the ref tasks should
        carry.  Workers copy the whole model when the ref's version
        moved.
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
            self._model_export.publish(model)
        return ModelRef(self._model_token, self._model_version, self._model_export.spec)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pids(self) -> List[int]:
        """Pids of the worker processes (empty until the first task)."""
        return sorted(self._executor._processes or ())

    @property
    def respawns(self) -> int:
        """How many times a dead worker's executor was replaced."""
        return self._respawns

    def submit(self, fn, task) -> Future:
        """Run ``fn(task)`` on one worker, first replacing an executor
        that a dead worker broke; returns its future, which fails with
        ``BrokenExecutor`` if its worker dies mid-task.
        """
        self._check_open()
        with self._submit_lock:
            try:
                return self._executor.submit(fn, task)
            except BrokenExecutor:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = ProcessPoolExecutor(self.workers, _MP_CONTEXT)
                self._respawns += 1
                return self._executor.submit(fn, task)

    def run(self, fn, tasks: List[tuple], label: str = "sharded run") -> List:
        """Fan ``tasks`` out; results come back in task (= shard) order.

        Tasks lost with a dead worker rerun once on fresh workers; tasks
        are pure and their refs name parent-owned segments, so a rerun
        returns the same bits.  A second loss, or any other worker
        exception, is re-raised as ``RuntimeError`` naming the shard;
        pending tasks are cancelled but the pool stays usable.
        """
        results: List = [None] * len(tasks)
        lost = list(range(len(tasks)))
        for rerun in (False, True):
            futures = [(shard, self.submit(fn, tasks[shard])) for shard in lost]
            lost = []
            for position, (shard, future) in enumerate(futures):
                try:
                    results[shard] = future.result()
                except Exception as error:
                    if isinstance(error, BrokenExecutor) and not rerun:
                        lost.append(shard)
                        continue
                    for _, pending in futures[position + 1 :]:
                        pending.cancel()
                    raise RuntimeError(
                        f"{label} failed in shard {shard} (of {len(tasks)}): {error}"
                    ) from error
        return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("worker pool is closed")

    def close(self, wait: bool = True) -> None:
        """Shut the workers down and unlink every shared segment.

        Queued tasks are cancelled.  ``wait=False`` returns at once: a
        task already running finishes in its worker, which then exits.
        """
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=True)
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


def even_shards(num_targets: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``num_targets`` into ``shards`` contiguous ``[start, stop)``
    ranges whose sizes differ by at most one.

    The ranges ascend and cover every target exactly once, so merging
    shard results in shard order replays the serial accumulation order.
    More shards than targets leaves some shards empty.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    bounds = [(num_targets * i) // shards for i in range(shards + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


class ScoreTask(NamedTuple):
    """Arguments of :func:`score_task`: refs, targets and the streams.

    ``seed``/``rounds``/``max_batch`` are
    :func:`~repro.serving.service.score_service_span`'s; ``backend``
    names the tensor backend (backends cross the process boundary by
    name, never by instance).
    """

    graph: GraphRef
    model: ModelRef
    targets: np.ndarray
    seed: Optional[int]
    rounds: int
    max_batch: int
    backend: str
    span_name: Optional[str] = None


def score_task(task: ScoreTask) -> Tuple[RoundEvidence, List[dict]]:
    """Score one target array on the shared graph (runs in a worker).

    The one scoring task of every client — sharded ``score_graph``,
    sharded service refreshes and the gateway's replica reads.  It runs
    :func:`~repro.serving.service.score_service_span`, the span loop
    the serial scorer and the in-process service run, so bitwise
    equivalence is structural, not mirrored code.

    With ``span_name`` set (the submitting parent is inside a live
    trace) the work runs under that span and its records ship back as
    the second result; the parent re-parents them with
    :func:`repro.obs.trace.adopt_spans`, so ``workers > 1`` calls still
    produce one trace spanning both processes.
    """
    model = _ensure_model(task.model)
    graph = _attached("graph", task.graph, attach_shared_graph)
    backend = resolve_backend(task.backend)
    args = (model, graph, task.targets, task.seed, task.rounds, task.max_batch)
    if task.span_name is None:
        with obs_trace.clear_context():
            return score_service_span(*args, backend=backend), []
    with obs_trace.capture_spans(task.span_name, targets=len(task.targets)) as spans:
        evidence = score_service_span(*args, backend=backend)
    return evidence, spans


class TrainTask(NamedTuple):
    """Arguments of :func:`train_task`: refs, one shard's chunks and the
    step's loss scales.

    ``chunks`` holds ``(targets, target_seeds)`` per accumulation chunk
    in ascending chunk order; ``node_scale``/``edge_scale``/``mask_seed``
    are :func:`~repro.core.trainer.train_chunk`'s.
    """

    graph: GraphRef
    model: ModelRef
    chunks: List[Tuple[np.ndarray, np.ndarray]]
    node_scale: Optional[float]
    edge_scale: Optional[float]
    mask_seed: int


def train_task(task: TrainTask) -> List[Tuple[float, List[Optional[np.ndarray]]]]:
    """Run one shard's training chunks (runs in a worker).

    Executes :func:`~repro.core.trainer.train_chunk`, the function the
    serial trainer runs, once per chunk in order, and returns the
    per-chunk ``(loss, gradients)`` pairs; concatenated in shard order
    they are the step's results in global chunk order.
    """
    model = _ensure_model(task.model)
    graph = _attached("graph", task.graph, attach_shared_graph)
    scales = (task.node_scale, task.edge_scale, task.mask_seed)
    return [
        train_chunk(model, graph, targets, seeds, *scales)
        for targets, seeds in task.chunks
    ]


def _score_shards(
    model: Bourne,
    features: np.ndarray,
    index,
    targets: np.ndarray,
    stream: Tuple[Optional[int], int, int, str],
    workers: int,
    pool: Optional[WorkerPool],
    name: str,
    shard_span: str,
) -> List[RoundEvidence]:
    """Score ``targets`` as ``4 × workers`` even shards on a worker pool.

    The fan-out both sharded entry points share.  ``stream`` is
    ``(seed, rounds, max_batch, backend name)``; ``name`` labels the
    parent's ``parallel.<name>`` span and its errors, ``shard_span``
    each worker's span.  Returns the per-shard evidence in shard (=
    target) order.  ``pool=None`` spins an ephemeral pool up and down;
    a given pool is left open with its graph and model slots rebound.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    plan = even_shards(len(targets), SHARDS_PER_WORKER * workers)
    own_pool = pool is None
    pool = pool if pool is not None else WorkerPool(workers)
    traced = obs_trace.active()
    try:
        with obs_trace.span(f"parallel.{name}") as sp:
            sp.set(tasks=len(plan), workers=pool.workers, targets=len(targets))
            graph_ref = pool.bind_graph(features, index)
            model_ref = pool.publish_model(model)
            tasks = [
                ScoreTask(
                    graph_ref,
                    model_ref,
                    targets[start:stop],
                    *stream,
                    span_name=shard_span if traced else None,
                )
                for start, stop in plan
            ]
            results = pool.run(score_task, tasks, label=f"sharded {name}")
            for _, spans in results:
                obs_trace.adopt_spans(spans)
    finally:
        if own_pool:
            pool.close()
    return [evidence for evidence, _ in results]


def score_graph_sharded(
    model: Bourne,
    graph,
    rounds: Optional[int] = None,
    batch_size: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 2,
    pool: Optional[WorkerPool] = None,
    backend=None,
) -> AnomalyScores:
    """Multi-process counterpart of :func:`repro.core.score_graph`.

    Partitions the target range into ``4 × workers`` even contiguous
    shards, scores them in ``workers`` processes, and merges the
    evidence in serial accumulation order.  The result is
    bitwise-identical to the serial batched path for every worker
    count, with view augmentation on or off (all inference randomness
    is counter-based).

    ``pool`` reuses an existing :class:`WorkerPool` (it is left open);
    otherwise an ephemeral pool is created and torn down.  ``backend``
    names the tensor backend each worker resolves locally.
    """
    cfg = model.config
    rounds = rounds if rounds is not None else cfg.eval_rounds
    batch_size = batch_size if batch_size is not None else cfg.batch_size
    index = index_of(graph)
    results = _score_shards(
        model,
        graph.features,
        index,
        np.arange(index.num_nodes, dtype=np.int64),
        (seed, rounds, batch_size, resolve_backend(backend).name),
        workers,
        pool,
        "scoring",
        "parallel.score_shard",
    )
    node_sum = np.concatenate([result.node_sum for result in results])
    node_count = np.concatenate([result.node_count for result in results])
    edge_sum = np.zeros(index.num_edges)
    edge_count = np.zeros(index.num_edges)
    # Replay edge evidence in serial order: rounds outermost, then
    # shards ascending — exactly the sequence the serial loop adds in.
    replay_edge_rounds(edge_sum, edge_count, rounds, results)
    return finalize_scores(node_sum, node_count, edge_sum, edge_count)


def service_refresh_scores(
    service,
    targets: np.ndarray,
    workers: int = 2,
    pool: Optional[WorkerPool] = None,
) -> Tuple[np.ndarray, int]:
    """Drain a service miss queue through the sharded engine.

    Returns ``(node_scores, forward_batches)``: per-target mean scores
    aligned with ``targets``, bitwise-identical to the service's serial
    scoring on the same store state, and the number of forward batches
    the workers ran.  ``pool`` reuses an existing :class:`WorkerPool` — for
    example a trainer's — rebinding its graph slot to the store's
    current snapshot.
    """
    store = service.store
    results = _score_shards(
        service.model,
        store.features,
        store.index,
        np.asarray(targets, dtype=np.int64),
        (service.seed, service.rounds, service.max_batch, service.backend.name),
        workers,
        pool,
        "refresh",
        "parallel.refresh_shard",
    )
    sums = np.concatenate([result.node_sum for result in results])
    forward_batches = sum(result.forward_batches for result in results)
    return sums / service.rounds, forward_batches
