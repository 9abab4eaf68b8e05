"""Sharded data-parallel training engine.

BOURNE's training loss is a sum over target nodes (Algorithm 1), so
gradient accumulation over target shards is order-free — the same
property the scoring engine exploits.  The trainer splits each
minibatch into fixed ``grain``-target chunks
(:func:`repro.core.trainer.chunk_bounds`); this module fans whole
chunks out to a persistent :class:`~repro.parallel.engine.WorkerPool`,
collects the per-chunk ``(loss, gradients)`` pairs, and hands them back
in ascending chunk order for
:func:`repro.core.trainer.merge_chunk_grads` + one Adam step + EMA
update in the parent.

Bitwise contract
----------------
The chunk — not the shard — is the accumulation unit.  Workers execute
the *same* :func:`repro.core.trainer.train_chunk` the serial loop runs
(counter-based sampling, Γ1/Γ2 augmentation, and forward mask, all
keyed by ``(seed, epoch, step, target)``), and the parent merges chunk
results in the same fixed order, so the loss history and every
parameter update are bit-for-bit equal to serial ``BourneTrainer.fit``
for **any** workers/shards combination — shards merely group whole
chunks onto processes.

After each optimizer step the parent republishes the new parameters
into the pool's shared-memory model slot
(:meth:`ShardedTrainingRunner.publish`); workers refresh their private
copies when the version stamp in the next task moves.  The pool is
persistent and shareable: repeated epochs, repeated ``fit`` calls, and
``ScoringService.refresh(workers=..., pool=...)`` all amortize the
same worker processes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.model import Bourne
from ..core.trainer import train_chunk
from ..graph.index import index_of
from .engine import (
    GraphRef,
    ModelRef,
    WorkerPool,
    _ensure_graph,
    _ensure_model,
    even_shards,
)
from .shm import changed_parameter_names


def _train_shard(task: tuple) -> List[Tuple[float, List[Optional[np.ndarray]]]]:
    """Run one shard's chunks (in a worker); returns per-chunk results.

    Chunks are processed in ascending order within the shard, and the
    parent concatenates shard results in ascending shard order, so the
    flat result list is in global chunk order.
    """
    graph_ref, model_ref, chunks, node_scale, edge_scale, mask_seed, fail = task
    if fail:
        raise RuntimeError("injected failure in training shard")
    graph = _ensure_graph(graph_ref)
    model = _ensure_model(model_ref)
    model.train_mode()
    return [
        train_chunk(model, graph, targets, seeds, node_scale, edge_scale, mask_seed)
        for targets, seeds in chunks
    ]


class ShardedTrainingRunner:
    """Per-trainer façade over a :class:`WorkerPool` for chunk fan-out.

    Owns (or borrows) the pool, keeps the graph and model bound, and
    re-binds defensively when another engine — say a service refresh
    sharing the pool — replaced the slots in between steps.
    """

    def __init__(
        self,
        model: Bourne,
        graph,
        workers: int,
        shards: Optional[int] = None,
        pool: Optional[WorkerPool] = None,
        _fail_shard: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.model = model
        self.workers = int(workers)
        self.shards = shards if shards is not None else self.workers * 4
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else WorkerPool(self.workers)
        self._fail_shard = _fail_shard
        self._graph = None
        self._graph_ref: Optional[GraphRef] = None
        self._bound_index = None
        self._model_ref: Optional[ModelRef] = None
        self.bind(graph)
        self.publish()

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, graph) -> None:
        """Export ``graph`` into the pool (no-op when already bound).

        Comparing the *index object* — not just the graph — catches
        in-place mutation: a ``GraphStore`` rebuilds its index when its
        version moves, so training after a mutation re-exports instead
        of silently shipping workers the stale topology.
        """
        index = index_of(graph)
        if (
            graph is self._graph
            and index is self._bound_index
            and self._graph_ref is self.pool.graph_ref
        ):
            return
        self._graph_ref = self.pool.bind_graph(graph.features, index)
        self._graph = graph
        self._bound_index = index

    def publish(self, changed=None) -> None:
        """Republish the model's current parameters to the workers."""
        self._model_ref = self.pool.publish_model(self.model, changed=changed)

    def publish_step(self, grads) -> None:
        """Republish after one optimizer step, shipping only the delta.

        ``grads`` is the merged gradient list the step consumed;
        :func:`~repro.parallel.shm.changed_parameter_names` turns it
        into the exact set of parameters Adam/EMA rewrote, so the
        mailbox copies (and stamps) just those — workers pull the same
        subset on their next task.
        """
        if self.pool.bound_model is not self.model:
            # Slot was stolen between steps; a delta against someone
            # else's baseline would be wrong — full re-export instead.
            self.publish()
            return
        self.publish(changed=changed_parameter_names(self.model, grads))

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------
    def run_step(
        self,
        batch: np.ndarray,
        target_seeds: np.ndarray,
        bounds: List[Tuple[int, int]],
        node_scale: Optional[float],
        edge_scale: Optional[float],
        mask_seed: int,
    ) -> List[Tuple[float, list]]:
        """Compute the chunk results of one optimization step.

        ``bounds`` are the trainer's fixed accumulation-chunk ranges;
        an even split of the chunk sequence groups whole chunks onto
        tasks.  Returns the flat per-chunk result list in ascending
        chunk order — exactly what the serial loop produces.
        """
        # A sibling engine may have rebound the shared slots — or the
        # bound store may have mutated — since the previous step;
        # re-export before submitting in either case.
        self.bind(self._graph)
        if self.pool.bound_model is not self.model:
            self.publish()
        chunks = [
            (batch[start:stop], target_seeds[start:stop]) for start, stop in bounds
        ]
        plan = even_shards(len(chunks), self.shards)
        tasks = [
            (
                self._graph_ref,
                self._model_ref,
                chunks[shard_start:shard_stop],
                node_scale,
                edge_scale,
                mask_seed,
                shard_index == self._fail_shard,
            )
            for shard_index, (shard_start, shard_stop) in enumerate(plan)
        ]
        shard_results = self.pool.run(_train_shard, tasks, label="sharded training")
        results: List[Tuple[float, list]] = []
        for shard in shard_results:
            results.extend(shard)
        return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the pool (only when this runner created it)."""
        if self._owns_pool:
            self.pool.close()
        self._graph = None
        self._graph_ref = None
        self._model_ref = None

    def __enter__(self) -> "ShardedTrainingRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
