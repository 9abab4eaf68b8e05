"""Training loop for BOURNE (Algorithm 1, training stage).

The trainer is built around a deterministic, shard-invariant step:

* every stochastic draw of a step — subgraph sampling, Γ1/Γ2 view
  augmentation, the ``node_only`` forward mask — is counter-based,
  keyed by ``(seed, epoch, step, target)`` through the splitmix64
  streams of :mod:`repro.graph.index`, never by batch layout;
* each minibatch's gradient is accumulated over fixed ``grain``-target
  **chunks**: every chunk runs :func:`train_chunk` (forward, scaled
  chunk loss, backward) in isolation, and :func:`merge_chunk_grads`
  replays the per-chunk losses and gradients in ascending chunk order
  before one Adam step + EMA target update.

Because the chunk boundaries depend only on ``(batch length, grain)``
and the merge order is fixed, distributing the chunks of a step over
worker processes (``workers > 1``) produces bitwise-identical loss
histories and final parameters to the serial path for *any* worker
count — the serial loop and the workers'
:func:`repro.parallel.engine.train_task` execute the very same two
functions.  Sharded training is a thin client of
:class:`repro.parallel.engine.WorkerPool`: each :meth:`BourneTrainer.fit`
binds the graph once, each step publishes the whole model and fans its
chunks out with ``pool.run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph.graph import Graph
from ..graph.index import derive_stream_seed, derive_target_seeds, index_of
from ..graph.sampling import count_target_edge_owners
from ..obs import trace as obs_trace
from ..optim.adam import Adam
from ..utils.logging import get_logger
from ..utils.seed import rng_from_seed
from .config import BourneConfig
from .model import Bourne

LOGGER = get_logger("repro.core.trainer")

#: Named stream tags of the trainer (the sampler owns 1/2, the views
#: 3/4/5, inference 11).  Folding the tag through ``derive_stream_seed``
#: gives every component its own seed *space*: unlike the historical
#: ``config.seed + 7`` offset, ``seed=s`` here can never collide with
#: another component's stream for a nearby base seed (for example the
#: model-init stream of ``seed=s+7``).
_EPOCH_PERM_TAG = 17
_BATCH_AUG_TAG = 19
_BATCH_MASK_TAG = 23


def epoch_permutation_rng(seed: int) -> np.random.Generator:
    """The trainer's epoch-permutation stream for a base ``seed``.

    A named ``derive_stream_seed`` stream (replacing the old
    ``seed + 7`` offset) so target orders are decoupled from every
    other consumer of the base seed; serial and sharded training draw
    epoch permutations from exactly this generator.
    """
    return rng_from_seed(int(derive_stream_seed(seed, _EPOCH_PERM_TAG)))


def training_batch_streams(
    seed: int, epoch: int, step: int, targets: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Counter-based randomness of one optimization step.

    Returns ``(target_seeds, mask_seed)``: one ``uint64`` seed per
    target driving its sampling *and* Γ1/Γ2 view augmentation, plus the
    step's ``node_only`` forward-mask seed.  Pure function of
    ``(seed, epoch, step, target)`` — chunking or sharding the step
    cannot change any draw.
    """
    base = derive_stream_seed(seed, _BATCH_AUG_TAG, epoch, step)
    target_seeds = derive_target_seeds(int(base), np.asarray(targets, dtype=np.int64))
    mask_seed = int(derive_stream_seed(int(base), _BATCH_MASK_TAG))
    return target_seeds, mask_seed


def chunk_bounds(num_targets: int, grain: int) -> List[Tuple[int, int]]:
    """Fixed accumulation-chunk boundaries of one minibatch.

    ``[start, stop)`` ranges of ``grain`` targets (last chunk ragged).
    Depends only on ``(num_targets, grain)`` — never on workers or
    shards — which is what makes the merged gradients identical for
    every distribution of chunks over processes.
    """
    if grain < 1:
        raise ValueError("grain must be >= 1")
    return [
        (start, min(start + grain, num_targets))
        for start in range(0, num_targets, grain)
    ]


def batch_loss_scales(
    mode: str, batch_size: int, num_edge_owners: int
) -> Tuple[Optional[float], Optional[float]]:
    """Per-chunk loss scales of one minibatch (Eq. 15/19/20 weights).

    ``node_scale`` multiplies node-score sums (``weight / B``) and
    ``edge_scale`` sums of per-target edge means (``weight / U``);
    ``weight`` is ½ when both terms exist, 1 otherwise: the combined
    objective ``L = ½(L_node + L_edge)``, or the one defined term in an
    ablation mode.  Raises when the batch can produce no loss term at
    all (edge-only mode, every target degenerate).
    """
    node = mode != "edge_only"
    edge = mode != "node_only" and num_edge_owners > 0
    if not node and not edge:
        raise RuntimeError("batch produced no loss terms (all targets degenerate)")
    weight = 0.5 if (node and edge) else 1.0
    node_scale = weight / batch_size if node else None
    edge_scale = weight / num_edge_owners if edge else None
    return node_scale, edge_scale


def train_chunk(
    model: Bourne,
    graph,
    targets: np.ndarray,
    target_seeds: np.ndarray,
    node_scale: Optional[float],
    edge_scale: Optional[float],
    mask_seed: int,
) -> Tuple[float, List[Optional[np.ndarray]]]:
    """Forward + backward one gradient-accumulation chunk.

    Returns ``(chunk loss, per-parameter gradients)`` in
    ``trainable_parameters()`` order (``None`` entries for parameters
    the chunk did not touch).  This is *the* unit of sharded training:
    the serial loop calls it in-process, the worker processes call the
    identical function on the shared-memory graph, so per-chunk floats
    agree bit-for-bit by construction.
    """
    params = model.trainable_parameters()
    for param in params:
        param.grad = None
    gviews, hviews = model.prepare_batch(
        graph, targets, augment=True, target_seeds=target_seeds
    )
    with obs_trace.span("train.forward") as sp:
        sp.set(chunk=len(targets))
        scores = model.forward_batch(gviews, hviews, mask_seed=mask_seed)
        loss = model.chunk_loss(scores, node_scale, edge_scale)
    if loss is None:
        return 0.0, [None] * len(params)
    with obs_trace.span("train.backward"):
        loss.backward()
    grads = [param.grad for param in params]
    for param in params:
        param.grad = None
    return float(loss.item()), grads


def merge_chunk_grads(
    chunk_results: Sequence[Tuple[float, List[Optional[np.ndarray]]]],
    num_params: int,
) -> Tuple[float, List[Optional[np.ndarray]]]:
    """Replay per-chunk losses and gradients in ascending chunk order.

    The single accumulation-order authority: serial training merges its
    in-process chunk results through this function, and the sharded
    trainer feeds it the worker results in the same chunk order, so the
    summed floats are identical however the chunks were computed.
    """
    total = 0.0
    grads: List[Optional[np.ndarray]] = [None] * num_params
    for loss_value, chunk_grads in chunk_results:
        total += loss_value
        for i, grad in enumerate(chunk_grads):
            if grad is None:
                continue
            grads[i] = grad if grads[i] is None else grads[i] + grad
    return total, grads


@dataclass
class TrainingHistory:
    """Per-epoch loss trace."""

    losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> Optional[float]:
        return self.losses[-1] if self.losses else None


class BourneTrainer:
    """Minibatch trainer: Adam on θ, EMA on φ.

    Parameters
    ----------
    model / config:
        The model to train and its hyper-parameters.
    grain:
        Targets per gradient-accumulation chunk (default
        ``max(1, batch_size // 8)``).  The chunk layout is part of the
        training semantics — changing ``grain`` changes float rounding
        and therefore the trajectory — while ``workers`` never is: any
        distribution of the same chunks is bitwise-identical.
    workers:
        When > 1, fan each step's chunks out as ``4 × workers`` even
        shards to a persistent :class:`repro.parallel.WorkerPool`,
        created by the first sharded :meth:`fit`.  It lives until
        :meth:`close` (or the ``with`` block ends), so repeated epochs
        and ``fit`` calls amortize worker spin-up.
    pool:
        An existing :class:`repro.parallel.WorkerPool` to share (for
        example with ``ScoringService.refresh``); the trainer will not
        close a borrowed pool.
    """

    def __init__(
        self,
        model: Bourne,
        config: Optional[BourneConfig] = None,
        grain: Optional[int] = None,
        workers: Optional[int] = None,
        pool=None,
    ):
        self.model = model
        self.config = config or model.config
        self.optimizer = Adam(
            model.trainable_parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self._epoch_rng = epoch_permutation_rng(self.config.seed)
        self.grain = (
            int(grain) if grain is not None else max(1, self.config.batch_size // 8)
        )
        if self.grain < 1:
            raise ValueError("grain must be >= 1")
        self.workers = workers
        #: The worker pool backing sharded training (``None`` until the
        #: first sharded fit, unless one was borrowed).
        self.pool = pool
        self._owns_pool = pool is None
        self._epochs_trained = 0

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the trainer's own pool (a borrowed pool stays alive)."""
        if self._owns_pool and self.pool is not None:
            self.pool.close()
            self.pool = None

    def __enter__(self) -> "BourneTrainer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _bind_graph(self, graph):
        """Export ``graph`` into the pool; ``None`` when training serially.

        Bound afresh by every :meth:`fit`, so a ``GraphStore`` whose
        features or topology moved since the last fit is never trained
        on stale values.
        """
        if self.workers is None or self.workers <= 1:
            return None
        from ..parallel.engine import WorkerPool

        if self.pool is None:
            self.pool = WorkerPool(self.workers)
        return self.pool.bind_graph(graph.features, index_of(graph))

    def _run_chunks(
        self, graph_ref, chunks, node_scale, edge_scale, mask_seed
    ) -> List[Tuple[float, List[Optional[np.ndarray]]]]:
        """One step's chunk results from the pool, in ascending chunk order.

        Publishes the whole model first, so every worker trains on this
        step's parameters, then groups whole chunks into ``4 × workers``
        even shards, one :func:`~repro.parallel.engine.train_task` each.
        """
        from ..parallel.engine import (
            SHARDS_PER_WORKER,
            TrainTask,
            even_shards,
            train_task,
        )

        with obs_trace.span("train.publish"):
            model_ref = self.pool.publish_model(self.model)
        with obs_trace.span("train.shard_fanout") as sp:
            sp.set(chunks=len(chunks))
            plan = even_shards(len(chunks), SHARDS_PER_WORKER * self.workers)
            tasks = [
                TrainTask(
                    graph_ref,
                    model_ref,
                    chunks[start:stop],
                    node_scale,
                    edge_scale,
                    mask_seed,
                )
                for start, stop in plan
            ]
            per_shard = self.pool.run(train_task, tasks, label="sharded training")
        return [result for shard in per_shard for result in shard]

    # ------------------------------------------------------------------
    # Optimization
    # ------------------------------------------------------------------
    def _loss_scales(self, graph, targets: np.ndarray, target_seeds: np.ndarray):
        cfg = self.config
        if cfg.mode == "node_only":
            owners = 0
        else:
            owners = count_target_edge_owners(
                graph, targets, target_seeds, cfg.hop_size, cfg.subgraph_size
            )
        return batch_loss_scales(cfg.mode, len(targets), owners)

    def _optimize_batch(
        self, graph, epoch: int, step: int, batch: np.ndarray, graph_ref
    ) -> float:
        """One chunked optimization step; returns the batch loss.

        ``graph_ref`` is the pool's binding of ``graph`` when training
        is sharded, ``None`` when the chunks run in this process.
        """
        cfg = self.config
        with obs_trace.trace("train.step") as root:
            root.set(epoch=epoch, step=step, batch=len(batch))
            target_seeds, mask_seed = training_batch_streams(
                cfg.seed, epoch, step, batch
            )
            node_scale, edge_scale = self._loss_scales(graph, batch, target_seeds)
            chunks = [
                (batch[start:stop], target_seeds[start:stop])
                for start, stop in chunk_bounds(len(batch), self.grain)
            ]
            scales = (node_scale, edge_scale, mask_seed)
            if graph_ref is None:
                results = [
                    train_chunk(self.model, graph, targets, seeds, *scales)
                    for targets, seeds in chunks
                ]
            else:
                results = self._run_chunks(graph_ref, chunks, *scales)
            with obs_trace.span("train.optimize"):
                loss_value, grads = merge_chunk_grads(
                    results, len(self.optimizer.params)
                )
                self.optimizer.step(grads)
                self.model.update_target()
        return loss_value

    def fit(
        self, graph: Graph, epochs: Optional[int] = None, verbose: bool = False
    ) -> TrainingHistory:
        """Train for ``epochs`` (default from config); returns the history.

        Each epoch covers every node (or a ``targets_per_epoch``
        subsample) in random order, split into ``batch_size`` batches;
        each batch gradient is accumulated over ``grain``-target chunks
        (in worker processes when ``workers > 1``, bitwise-identically).
        """
        cfg = self.config
        epochs = epochs if epochs is not None else cfg.epochs
        history = TrainingHistory()
        graph_ref = self._bind_graph(graph)
        for epoch_in_call in range(epochs):
            epoch = self._epochs_trained
            order = self._epoch_rng.permutation(graph.num_nodes)
            if cfg.targets_per_epoch is not None:
                order = order[: cfg.targets_per_epoch]
            epoch_losses = []
            for step, start in enumerate(range(0, len(order), cfg.batch_size)):
                batch = order[start : start + cfg.batch_size]
                epoch_losses.append(
                    self._optimize_batch(graph, epoch, step, batch, graph_ref)
                )
            mean_loss = float(np.mean(epoch_losses))
            history.losses.append(mean_loss)
            self._epochs_trained += 1
            if verbose:
                LOGGER.info(
                    "epoch %d/%d loss %.4f", epoch_in_call + 1, epochs, mean_loss
                )
        return history


def train_bourne(
    graph: Graph,
    config: Optional[BourneConfig] = None,
    epochs: Optional[int] = None,
    verbose: bool = False,
    workers: Optional[int] = None,
    grain: Optional[int] = None,
) -> tuple:
    """Convenience: build a model for ``graph``, train it, return both.

    ``workers > 1`` trains on a worker pool (bitwise-identical to
    serial for the same ``grain``); the pool is torn down before
    returning.  Returns ``(model, history)``.
    """
    config = config or BourneConfig()
    model = Bourne(graph.num_features, config)
    with BourneTrainer(model, config, grain=grain, workers=workers) as trainer:
        history = trainer.fit(graph, epochs=epochs, verbose=verbose)
    return model, history
