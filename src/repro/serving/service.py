"""Online scoring service: batched, score-tabled, incrementally refreshed.

:class:`ScoringService` turns a trained :class:`repro.core.Bourne`
checkpoint into a long-lived scorer over a mutable
:class:`~repro.serving.store.GraphStore`:

* **One request entry** — :meth:`ScoringService.score_nodes` answers
  fresh score-table entries and scores the misses in one call of the
  span loop, which runs a chunk of targets across all ``R`` rounds in
  one ``forward_batch`` call.  The gateway's batcher hands it every
  request queued while the previous batch ran, so concurrent requests
  share one sampler call, one view build and one forward.
* **Offline streams** — the service draws from the same counter-based
  streams as :func:`repro.core.score_graph`: one sampling base and one
  ``node_only`` mask seed per round from
  :func:`~repro.core.scoring.inference_round_streams`, and per-``(round,
  target)`` seeds for sampling and Γ1/Γ2 augmentation.  A node's score
  is therefore bitwise what ``score_graph`` gives it for the same seed,
  and never depends on which other requests shared its batch or on the
  mutation history that produced the store.
* **One scoring path** — a miss runs
  :func:`~repro.core.scoring.score_target_span` with
  :func:`~repro.core.scoring.offline_view_builder` over the store, the
  two calls :func:`score_service_span` makes.  The replica workers,
  the sharded refresh and lifecycle validation call that function, so
  every topology serves the same computation by construction.
* **Score tables** — node and edge scores are kept version-aware; the
  store's dirty-region tracking invalidates exactly the entries a
  mutation could have changed.
* **Incremental refresh** — :meth:`refresh` maintains a full score
  table and re-scores only nodes whose region changed since they were
  last scored, which is what makes per-mutation rescoring cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.model import Bourne
from ..core.scoring import (
    RoundEvidence,
    inference_round_streams,
    mean_edge_rounds,
    offline_view_builder,
    score_target_span,
)
from ..graph.graph import Graph
from ..obs import trace as obs_trace
from ..tensor.backend import resolve_backend
from .store import GraphStore


def score_service_span(model: Bourne, graph_like, targets: np.ndarray,
                       seed: int, rounds: int, max_batch: int,
                       backend=None) -> RoundEvidence:
    """Score one target span on the serving streams.

    The shared :func:`repro.core.scoring.score_target_span` loop with
    the offline view builder, on the streams ``score_graph(seed=seed)``
    draws — the computation ``ScoringService`` with the same ``seed``
    runs for its misses.  The sharded refresh workers, the replica
    workers and lifecycle validation call this.
    ``backend`` names the compute backend (workers receive the parent
    service's backend name and resolve it locally).
    """
    round_bases, mask_seeds = inference_round_streams(
        model.config, rounds, seed)
    return score_target_span(
        model, targets, round_bases, mask_seeds, max_batch,
        offline_view_builder(model, graph_like), backend=backend)


def edge_mean_from_evidence(evidence: RoundEvidence, rounds: int,
                            edge_id: int) -> Tuple[float, bool]:
    """Resolve one edge's score from its two endpoints' round evidence.

    ``(mean, imputed)``: the edge's mean contribution across rounds
    when the sampler realized it, else the endpoint-score mean
    (``imputed=True``) — the offline scorer's treatment of unsampled
    edges.  The service, the replica workers' proxy and
    :func:`score_edge_span` all resolve through here, bit for bit alike.
    """
    mean = mean_edge_rounds(rounds, [evidence]).get(edge_id)
    if mean is None:
        return float((evidence.node_sum / rounds).mean()), True
    return float(mean), False


def score_edge_span(model: Bourne, graph_like, u: int, v: int, edge_id: int,
                    seed: int, rounds: int, max_batch: int,
                    backend=None) -> Tuple[float, bool]:
    """Pure counterpart of :meth:`ScoringService.score_edge`.

    Scores the canonical ``(min, max)`` endpoint pair through
    :func:`score_service_span` and resolves the edge mean with
    :func:`edge_mean_from_evidence`.  ``edge_id`` is the store's id for
    the edge (computed by the caller, which owns the store — replica
    workers only hold the shared read-only graph).  Returns ``(mean,
    imputed)``, bitwise what the in-process service computes on the
    same store state.
    """
    key = (min(int(u), int(v)), max(int(u), int(v)))
    evidence = score_service_span(
        model, graph_like, np.asarray(key, dtype=np.int64),
        seed, rounds, max_batch, backend=backend)
    return edge_mean_from_evidence(evidence, rounds, int(edge_id))


@dataclass
class RefreshResult:
    """Outcome of one incremental refresh pass."""

    scores: np.ndarray          # (N,) current score table
    rescored: np.ndarray        # node ids actually recomputed this pass
    version: int                # store version the table now reflects

    @property
    def num_rescored(self) -> int:
        return len(self.rescored)


class ScoringService:
    """Serve anomaly scores for a mutable graph from a trained model.

    Parameters
    ----------
    model:
        Trained :class:`Bourne`; must be a node-scoring mode
        (``unified`` or ``node_only``).
    store:
        The mutable graph; a plain :class:`Graph` is wrapped
        automatically.
    rounds:
        Evaluation rounds ``R`` per score (default: model config).
    seed:
        Inference seed, with ``score_graph``'s meaning (default: the
        model seed), so served scores equal ``score_graph(seed=seed)``.
    cache_size:
        Accepted and ignored: the service keeps no subgraph cache.  The
        keyword stays so callers written against the earlier cached
        service, such as ``perfbench/workloads.py``, still construct it.
    max_batch:
        Cap on views — ``(target, round)`` pairs — per forward call
        (default: model batch size).
    backend:
        Compute backend for the forward passes — a backend name
        (``"numpy"``/``"fused"``) or a backend instance; ``None`` is
        the bitwise-pinned numpy reference.  Sharded refreshes ship the
        backend *name* to the worker processes.
    """

    def __init__(
        self,
        model: Bourne,
        store,
        rounds: Optional[int] = None,
        seed: Optional[int] = None,
        cache_size: int = 4096,
        max_batch: Optional[int] = None,
        backend=None,
    ):
        if isinstance(store, Graph):
            store = GraphStore.from_graph(
                store, influence_radius=max(2, model.config.hop_size))
        self.store: GraphStore = store
        self.model = model
        self._check_model(model)
        cfg = model.config
        self.rounds = rounds if rounds is not None else cfg.eval_rounds
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        self._explicit_seed = seed is not None
        self._set_seed(cfg.seed if seed is None else seed)
        self.max_batch = max_batch if max_batch is not None else cfg.batch_size
        self.backend = resolve_backend(backend)

        self._node_table: Dict[int, Tuple[float, int]] = {}
        self._edge_scores: Dict[Tuple[int, int], Tuple[float, int]] = {}
        self._requests = 0
        self._flushes = 0
        self._forward_batches = 0
        self._nodes_scored = 0
        self._table_hits = 0
        self._table_misses = 0
        self._edge_requests = 0
        self._edge_table_hits = 0
        self._edge_imputations = 0
        self._refreshes = 0
        self._swaps = 0

    def _check_model(self, model: Bourne) -> None:
        cfg = model.config
        if cfg.mode == "edge_only":
            raise ValueError(
                "ScoringService requires a node-scoring mode "
                "('unified' or 'node_only'); got mode='edge_only'")
        if model.num_features != self.store.num_features:
            raise ValueError(
                f"model expects {model.num_features} features but the "
                f"store has {self.store.num_features}")
        if self.store.influence_radius < cfg.hop_size:
            raise ValueError(
                f"store influence_radius={self.store.influence_radius} is "
                f"smaller than the model hop_size={cfg.hop_size}; dirty "
                "regions would under-invalidate the score tables")

    def _set_seed(self, seed: int) -> None:
        self.seed = seed
        self._round_bases, self._mask_seeds = inference_round_streams(
            self.model.config, self.rounds, seed)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def score_nodes(self, nodes: Sequence[int],
                    _force: bool = False) -> np.ndarray:
        """Scores of ``nodes``, in order; the one request entry.

        The whole list is validated before anything is counted or
        scored.  Fresh table entries answer directly; the distinct
        misses are scored in one span call.  ``_force`` treats every
        node as a miss so the forward passes actually run even for
        already-tabled nodes.
        """
        nodes = [int(node) for node in nodes]
        for node in nodes:
            if not 0 <= node < self.store.num_nodes:
                raise IndexError(f"node {node} not in store "
                                 f"(num_nodes={self.store.num_nodes})")
        self._requests += len(nodes)
        self._flushes += 1
        stale: List[int] = []
        for node in dict.fromkeys(nodes):
            cached = self._node_table.get(node)
            if (not _force and cached is not None
                    and cached[1] >= self.store.region_version(node)):
                self._table_hits += 1
            else:
                stale.append(node)
        if stale:
            self._table_misses += len(stale)
            evidence = self._score_span(np.asarray(stale, dtype=np.int64))
            self._tabulate(stale, evidence.node_sum / self.rounds)
        return np.asarray([self._node_table[node][0] for node in nodes])

    def score_node(self, node: int) -> float:
        return float(self.score_nodes([node])[0])

    def score_edge(self, u: int, v: int) -> float:
        """Score edge ``(u, v)`` from its endpoints' fresh evidence.

        The score is the mean of the edge's contributions across one
        forced scoring of *both endpoints together* — a pure function
        of ``(u, v, store state, serving seed)``, never of request
        history or batch layout.  That purity is what lets the gateway
        coalesce concurrent ``score_edge`` requests freely: any
        interleaving returns bitwise the sequential answer (the gateway
        pin tests assert it).  Canonical values are kept in a
        version-aware table, so repeats are table hits until a nearby
        mutation invalidates them.  If the sampler never realizes the
        edge in any round (possible for high-degree endpoints), the
        endpoint mean is imputed, matching the offline scorer's
        treatment of unsampled edges.
        """
        key = (min(int(u), int(v)), max(int(u), int(v)))
        edge_id = self.store.edge_id(*key)
        self._edge_requests += 1
        needed = max(self.store.region_version(key[0]),
                     self.store.region_version(key[1]))
        cached = self._edge_scores.get(key)
        if cached is not None and cached[1] >= needed:
            self._edge_table_hits += 1
            return cached[0]
        with obs_trace.span("service.score_edge") as sp:
            sp.set(u=key[0], v=key[1])
            evidence = self._score_span(np.asarray(key, dtype=np.int64))
        self._tabulate(key, evidence.node_sum / self.rounds)
        mean, imputed = edge_mean_from_evidence(evidence, self.rounds, edge_id)
        if imputed:
            self._edge_imputations += 1
        self._edge_scores[key] = (mean, self.store.version)
        return mean

    # ------------------------------------------------------------------
    # Incremental refresh
    # ------------------------------------------------------------------
    def refresh(self, workers: Optional[int] = None,
                pool=None) -> RefreshResult:
        """Bring the full score table up to date, re-scoring only nodes
        whose neighbourhood changed since their last score.

        ``workers > 1`` drains the stale set through the sharded scoring
        engine (:mod:`repro.parallel`): the store's features and index
        go into shared memory once, worker processes score the miss
        queue as ``4 × workers`` contiguous shards with the *same*
        per-``(seed, round, target)`` streams the in-process path uses,
        and the merged score table is bitwise-identical to a serial
        refresh.
        ``pool`` reuses a persistent :class:`repro.parallel.WorkerPool`
        — for example one kept warm by a sharded trainer — instead of
        spinning processes up per refresh.
        """
        n = self.store.num_nodes
        self._refreshes += 1
        with obs_trace.span("service.refresh") as sp:
            stale = [node for node in range(n)
                     if (entry := self._node_table.get(node)) is None
                     or entry[1] < self.store.region_version(node)]
            sp.set(stale=len(stale), num_nodes=n,
                   workers=workers if workers is not None else 1)
            if stale and workers is not None and workers > 1:
                self._refresh_sharded(np.asarray(stale, dtype=np.int64),
                                      workers, pool)
            elif stale:
                evidence = self._score_span(np.asarray(stale, dtype=np.int64))
                self._tabulate(stale, evidence.node_sum / self.rounds)
        table = np.asarray([self._node_table[node][0] for node in range(n)])
        return RefreshResult(scores=table,
                             rescored=np.asarray(stale, dtype=np.int64),
                             version=self.store.version)

    def _refresh_sharded(self, targets: np.ndarray, workers: int,
                         pool=None) -> None:
        """Score ``targets`` through the multi-process engine and fold
        the scores into the node table exactly like :meth:`_score_span`
        would."""
        from ..parallel import service_refresh_scores

        scores, forward_batches = service_refresh_scores(
            self, targets, workers=workers, pool=pool)
        self._tabulate(targets, scores)
        self._forward_batches += forward_batches
        self._nodes_scored += len(targets)

    # ------------------------------------------------------------------
    # Model hot-swap
    # ------------------------------------------------------------------
    def swap_model(self, model: Bourne) -> None:
        """Replace the served model in place.

        Score tables are dropped: different weights, different scores.
        """
        self._check_model(model)
        self.model = model
        self._set_seed(self.seed if self._explicit_seed else model.config.seed)
        self._node_table.clear()
        self._edge_scores.clear()
        self._swaps += 1

    # ------------------------------------------------------------------
    # Scoring internals
    # ------------------------------------------------------------------
    def _score_span(self, targets: np.ndarray) -> RoundEvidence:
        """Round evidence of ``targets`` on the serving streams.

        The two calls :func:`score_service_span` makes, with the round
        streams derived once per seed instead of once per call.
        """
        with obs_trace.span("service.score_span") as sp:
            sp.set(targets=len(targets), rounds=self.rounds)
            evidence = score_target_span(
                self.model, targets, self._round_bases, self._mask_seeds,
                self.max_batch, offline_view_builder(self.model, self.store),
                backend=self.backend,
            )
        self._forward_batches += evidence.forward_batches
        self._nodes_scored += len(targets)
        return evidence

    def _tabulate(self, nodes, scores) -> None:
        """Record ``scores`` in the node table at the current version."""
        version = self.store.version
        for node, score in zip(nodes, scores):
            self._node_table[int(node)] = (float(score), version)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters for monitoring and tests.

        ``table_hits``/``table_misses`` tally *request-path* score-table
        answers vs. recomputations (refresh rescans and edge-endpoint
        scorings count toward ``nodes_scored``, not misses);
        ``flushes`` counts :meth:`score_nodes` calls.  The gateway's
        ``/metrics`` endpoint re-exports all of these in Prometheus text
        format.
        """
        return {
            "requests": self._requests,
            "flushes": self._flushes,
            "forward_batches": self._forward_batches,
            "nodes_scored": self._nodes_scored,
            "table_hits": self._table_hits,
            "table_misses": self._table_misses,
            "table_size": len(self._node_table),
            "edge_requests": self._edge_requests,
            "edge_table_hits": self._edge_table_hits,
            "edge_imputations": self._edge_imputations,
            "edge_table_size": len(self._edge_scores),
            "refreshes": self._refreshes,
            "model_swaps": self._swaps,
            "backend": self.backend.name,
            "store_version": self.store.version,
            "store_pending_edges": getattr(self.store, "pending_edges", 0),
            "store_compactions": getattr(self.store, "compactions", 0),
            "store_drift_total": float(getattr(self.store, "drift_total", 0.0)),
            "store_mutations": getattr(self.store, "mutations", 0),
            "store_nodes_added": getattr(self.store, "nodes_added", 0),
            "store_edges_added": getattr(self.store, "edges_added", 0),
            "store_features_updated": getattr(self.store,
                                              "features_updated", 0),
            "rounds": self.rounds,
        }
