"""Inference: multi-round anomaly scoring (Algorithm 1, inference stage).

Every node is visited as a target ``R`` times; each visit scores the
node and its sampled target edges.  Per-object scores are averaged over
all visits — edges accumulate evidence from both endpoints.

Scoring draws one *base* per round up front and derives every
target's sampling seed from ``(base, target id)``, so scores never
depend on batch layout; :func:`score_graph` exposes the same
computation sharded over worker processes (``workers=``) with
bitwise-identical output (see :mod:`repro.parallel`).

Shared accumulation loop
------------------------
:func:`score_target_span` is THE inner scoring loop: the serial
:func:`score_graph`, the sharded workers
(:mod:`repro.parallel.engine`), and the serving layer
(:class:`repro.serving.ScoringService`) all run it, and it builds every
view through ``Bourne.prepare_batch`` on the same counter-based
streams (:func:`inference_round_streams`); they differ only in the
targets they pass and in how the graph is held (a :class:`Graph`, a
shared-memory export, or the serving store).  Bitwise equivalence
between the serial, sharded, and served paths is therefore structural:
there is exactly one accumulation order to drift from.
The helper returns :class:`RoundEvidence` — raw
per-round edge contributions in target order — and
:func:`replay_edge_rounds` / :func:`mean_edge_rounds` fold spans of
evidence back together by replaying the serial accumulation sequence
(rounds outermost, spans in ascending target order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..graph.graph import Graph
from ..graph.index import derive_stream_seed, derive_target_seeds
from ..obs import trace as obs_trace
from ..tensor.autograd import no_grad
from ..tensor.backend import resolve_backend
from ..utils.seed import rng_from_seed
from .model import Bourne

#: Offset keeping inference RNG streams disjoint from training draws.
INFERENCE_SEED_OFFSET = 104729

#: Stream tag folding a round base into the per-round forward mask seed
#: (``node_only`` mode); distinct from the sampler's tags 1/2 and the
#: views' mask tag 3 so no stream ever collides.
_ROUND_MASK_TAG = 11


@dataclass
class AnomalyScores:
    """Final anomaly scores for a graph.

    Attributes
    ----------
    node_scores:
        ``(N,)`` — higher means more anomalous; NaN-free (degenerate
        targets inherit the mean score).
    edge_scores:
        ``(M,)`` aligned with ``graph.edges``; edges never sampled in
        any round inherit the mean edge score.
    node_rounds / edge_rounds:
        How many score samples were accumulated per object.
    """

    node_scores: np.ndarray
    edge_scores: np.ndarray
    node_rounds: np.ndarray
    edge_rounds: np.ndarray

    @property
    def edge_coverage(self) -> float:
        """Fraction of edges that received at least one score sample."""
        if len(self.edge_rounds) == 0:
            return 1.0
        return float((self.edge_rounds > 0).mean())


def inference_round_streams(config, rounds: int, seed: Optional[int]):
    """Derive the per-round streams of inference.

    Returns ``(round_bases, mask_seeds)``: one ``uint64`` sampling base
    per round, drawn up front from the inference seed, and one
    ``node_only`` forward-mask seed per round derived from each base.
    Every scoring surface — serial, sharded, served — calls this with
    identical arguments, which is what makes their outputs
    bitwise-identical.
    """
    rng = rng_from_seed((config.seed if seed is None else seed)
                        + INFERENCE_SEED_OFFSET)
    round_bases = rng.integers(0, 2 ** 64, size=rounds, dtype=np.uint64)
    mask_seeds = np.array(
        [derive_stream_seed(int(base), _ROUND_MASK_TAG) for base in round_bases],
        dtype=np.uint64,
    )
    return round_bases, mask_seeds


def finalize_scores(node_sum: np.ndarray, node_count: np.ndarray,
                    edge_sum: np.ndarray, edge_count: np.ndarray) -> AnomalyScores:
    """Average accumulated evidence; impute never-scored objects with
    the mean of the scored ones (shared by the serial and sharded
    engines so both finalize identically)."""
    node_scores = np.divide(node_sum, node_count,
                            out=np.zeros_like(node_sum), where=node_count > 0)
    if (node_count == 0).any() and (node_count > 0).any():
        node_scores[node_count == 0] = node_scores[node_count > 0].mean()
    edge_scores = np.divide(edge_sum, edge_count,
                            out=np.zeros_like(edge_sum), where=edge_count > 0)
    if (edge_count == 0).any() and (edge_count > 0).any():
        edge_scores[edge_count == 0] = edge_scores[edge_count > 0].mean()
    return AnomalyScores(
        node_scores=node_scores,
        edge_scores=edge_scores,
        node_rounds=node_count,
        edge_rounds=edge_count,
    )


@dataclass
class RoundEvidence:
    """Raw evidence accumulated over one contiguous span of targets.

    ``node_sum``/``node_count`` align with the span's targets; edge
    contributions are kept *per round and in target order* so callers
    can replay the serial accumulation sequence exactly (floating-point
    addition is order-sensitive — summing per-span partials would not
    be bitwise-reproducible).
    """

    node_sum: np.ndarray
    node_count: np.ndarray
    edge_ids: List[np.ndarray] = field(default_factory=list)
    edge_vals: List[np.ndarray] = field(default_factory=list)
    forward_batches: int = 0


def concat_round_parts(parts_ids: List[np.ndarray],
                       parts_vals: List[np.ndarray]):
    """Concatenate one round's per-batch edge evidence (empty-safe)."""
    if parts_ids:
        return np.concatenate(parts_ids), np.concatenate(parts_vals)
    return np.zeros(0, dtype=np.int64), np.zeros(0)


def score_target_span(
    model: Bourne,
    targets: np.ndarray,
    graph,
    round_bases: np.ndarray,
    mask_seeds: np.ndarray,
    batch_size: int,
    backend=None,
) -> RoundEvidence:
    """Run the multi-round scoring loop over one span of ``graph``'s targets.

    This is the single inner loop shared by the serial scorer, the
    sharded workers, and the serving layer.  One forward covers a chunk
    of targets across every round — views laid out round-major, never
    more than ``batch_size`` of them; when the rounds alone exceed
    ``batch_size``, each target's rounds are split into groups.
    ``model.prepare_batch`` samples and builds those views from
    ``graph`` (a :class:`Graph`, a shared-memory export or the serving
    store), keyed by each ``(round, target)``'s sampling seed derived
    from ``round_bases`` and augmented when
    ``model.config.augment_at_inference`` is set; the forward masks each
    view with its round's entry of ``mask_seeds`` (``node_only`` mode).
    Every draw is a pure function of ``(round, target)``, and node sums
    add each target's rounds in round order while edge evidence is split
    back per round, so the result is bitwise what a per-round loop over
    micro-batches of any size produces.

    ``backend`` selects the compute backend for the forward pass (a
    name from :data:`repro.tensor.BACKENDS`, a
    :class:`repro.tensor.TensorBackend` instance, or ``None`` for the
    numpy reference) — this call site is the single seam every scoring
    surface inherits it through.  The ``numpy`` reference is the
    model's own forward, bitwise-unchanged.
    """
    backend = resolve_backend(backend)
    augment = model.config.augment_at_inference
    targets = np.asarray(targets, dtype=np.int64)
    round_bases = np.asarray(round_bases, dtype=np.uint64)
    mask_seeds = np.asarray(mask_seeds, dtype=np.uint64)
    rounds, width = len(round_bases), len(targets)
    evidence = RoundEvidence(node_sum=np.zeros(width),
                             node_count=np.zeros(width))
    parts_ids: List[List[np.ndarray]] = [[] for _ in range(rounds)]
    parts_vals: List[List[np.ndarray]] = [[] for _ in range(rounds)]
    group_size = max(1, min(rounds, batch_size))
    chunk_size = max(1, batch_size // group_size)
    for offset in range(0, width, chunk_size):
        chunk = targets[offset:offset + chunk_size]
        rows = slice(offset, offset + len(chunk))
        for first in range(0, rounds, group_size):
            group = np.arange(first, min(first + group_size, rounds))
            view_rounds = np.repeat(group, len(chunk))
            view_targets = np.tile(chunk, len(group))
            view_seeds = derive_target_seeds(round_bases[view_rounds],
                                             view_targets)
            # Tracing stages, not draws: span ids are counter-based, so
            # scores stay bitwise-equal with tracing on (the obs pin
            # tests assert it).
            with obs_trace.span("scoring.prepare_batch") as sp:
                sp.set(rounds=len(group), chunk=len(chunk))
                gviews, hviews = model.prepare_batch(
                    graph, view_targets, target_seeds=view_seeds,
                    augment=augment)
            # Inference records no autograd graph on any backend.
            with obs_trace.span("scoring.forward") as sp, no_grad():
                sp.set(views=len(view_targets), backend=backend.name)
                scores = backend.forward_batch(
                    model, gviews, hviews, mask_seed=mask_seeds[view_rounds])
            evidence.forward_batches += 1
            if scores.node_scores is not None:
                per_round = scores.node_scores.data.reshape(len(group), -1)
                for values in per_round:
                    evidence.node_sum[rows] += values
                    evidence.node_count[rows] += 1
            if scores.edge_scores is not None and len(scores.edge_orig_ids):
                # Edges come ordered by owner view, so each round's
                # edges are one contiguous run.
                cuts = np.searchsorted(scores.edge_owner,
                                       np.arange(1, len(group)) * len(chunk))
                ids = np.split(np.asarray(scores.edge_orig_ids,
                                          dtype=np.int64), cuts)
                vals = np.split(scores.edge_scores.data, cuts)
                for round_index, round_ids, round_vals in zip(group, ids, vals):
                    parts_ids[round_index].append(round_ids)
                    parts_vals[round_index].append(round_vals)
    for round_ids, round_vals in zip(parts_ids, parts_vals):
        ids, vals = concat_round_parts(round_ids, round_vals)
        evidence.edge_ids.append(ids)
        evidence.edge_vals.append(vals)
    return evidence


def replay_edge_rounds(edge_sum: np.ndarray, edge_count: np.ndarray,
                       rounds: int, spans: Sequence[RoundEvidence]) -> None:
    """Fold edge evidence into dense accumulators in serial order:
    rounds outermost, spans in ascending target order — exactly the
    sequence a single-process pass over the whole range adds in."""
    for round_index in range(rounds):
        for span in spans:
            ids = span.edge_ids[round_index]
            if len(ids):
                np.add.at(edge_sum, ids, span.edge_vals[round_index])
                np.add.at(edge_count, ids, 1)


def mean_edge_rounds(rounds: int,
                     spans: Sequence[RoundEvidence]) -> Dict[int, float]:
    """Per-edge-id mean evidence, replayed in serial accumulation order
    (the sparse counterpart of :func:`replay_edge_rounds`, used by the
    serving layer's edge scores).  ``bincount`` adds the weights in array
    order, so each edge's sum runs in that same replay sequence."""
    ids = [span.edge_ids[r] for r in range(rounds) for span in spans]
    vals = [span.edge_vals[r] for r in range(rounds) for span in spans]
    ids, vals = concat_round_parts(ids, vals)
    if not len(ids):
        return {}
    edges, slot = np.unique(ids, return_inverse=True)
    sums = np.bincount(slot, weights=vals, minlength=len(edges))
    means = sums / np.bincount(slot, minlength=len(edges))
    return dict(zip(edges.tolist(), means.tolist()))


def score_graph(
    model: Bourne,
    graph: Graph,
    rounds: Optional[int] = None,
    batch_size: Optional[int] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    pool=None,
    backend=None,
) -> AnomalyScores:
    """Score every node and edge of ``graph`` with ``rounds`` evaluations.

    Parameters
    ----------
    rounds:
        Evaluation rounds ``R`` (default from the model config).
    batch_size:
        Views — ``(target, round)`` pairs — per forward (default from
        the model config).  Every draw is keyed by its ``(round,
        target)`` seed, so a node's subgraphs do not depend on it.
    seed:
        Seed for inference-time sampling/augmentation; defaults to the
        model seed shifted so inference never replays training draws.
    workers:
        When > 1, fan the target range out as ``4 × workers`` even
        shards to that many worker processes via
        :func:`repro.parallel.score_graph_sharded`.  The merged output
        is bitwise-identical to the serial path with view augmentation
        on or off — Γ1/Γ2 draws are counter-based, keyed by the same
        per-``(round, target)`` seeds as sampling.
    pool:
        An optional persistent :class:`repro.parallel.WorkerPool` for
        the sharded engine to reuse.
    backend:
        Compute backend for the forward pass — a backend name
        (``"numpy"``/``"fused"``), a backend instance, or ``None`` for
        the numpy reference.  The ``numpy`` reference is the bitwise
        pin; the ``fused`` backend stays within ``1e-5`` relative
        tolerance (workers > 1 ship the backend's name, which worker
        processes resolve locally).
    """
    cfg = model.config
    rounds = rounds if rounds is not None else cfg.eval_rounds
    batch_size = batch_size if batch_size is not None else cfg.batch_size
    if workers is not None and workers > 1:
        from ..parallel import score_graph_sharded
        return score_graph_sharded(
            model, graph, rounds=rounds, batch_size=batch_size, seed=seed,
            workers=workers, pool=pool, backend=backend,
        )
    edge_sum = np.zeros(graph.num_edges)
    edge_count = np.zeros(graph.num_edges)

    # One base per round, drawn up front: per-target seeds derive from
    # (round base, target id) — never from batch layout.  The
    # accumulation loop itself is score_target_span, shared with the
    # sharded workers and the serving layer.
    round_bases, mask_seeds = inference_round_streams(cfg, rounds, seed)
    evidence = score_target_span(
        model, np.arange(graph.num_nodes), graph, round_bases, mask_seeds,
        batch_size, backend=backend,
    )
    replay_edge_rounds(edge_sum, edge_count, rounds, [evidence])
    return finalize_scores(evidence.node_sum, evidence.node_count,
                           edge_sum, edge_count)
