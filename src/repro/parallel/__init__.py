"""Sharded multi-process scoring and training.

One persistent worker pool whose processes attach the graph and model
from shared memory runs two tasks: :func:`score_task` scores a shard of
targets, :func:`train_task` computes the gradients of a shard of
training chunks.  Clients split their work into even contiguous shards
and merge the per-shard results in serial accumulation order, so the
output is bitwise-identical to single-process execution — for scoring
*and* for gradient computation (training, driven by
:class:`repro.core.trainer.BourneTrainer`).
"""

from .engine import (
    GraphRef,
    ModelRef,
    ScoreTask,
    TrainTask,
    WorkerPool,
    even_shards,
    score_graph_sharded,
    score_task,
    service_refresh_scores,
    train_task,
)
from .shm import (
    AttachedModel,
    SharedGraph,
    SharedGraphExport,
    SharedGraphSpec,
    SharedModelExport,
    SharedModelSpec,
    attach_shared_graph,
    attach_shared_model,
)

__all__ = [
    "GraphRef",
    "ModelRef",
    "ScoreTask",
    "TrainTask",
    "WorkerPool",
    "even_shards",
    "score_graph_sharded",
    "score_task",
    "service_refresh_scores",
    "train_task",
    "AttachedModel",
    "SharedGraph",
    "SharedGraphExport",
    "SharedGraphSpec",
    "SharedModelExport",
    "SharedModelSpec",
    "attach_shared_graph",
    "attach_shared_model",
]
