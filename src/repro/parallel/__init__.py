"""Sharded multi-process scoring and training.

Partitions target ranges into even contiguous shards, fans them out to
a persistent worker pool whose processes attach the graph and model
from shared memory, and merges per-shard evidence in serial
accumulation order so the output is bitwise-identical to
single-process execution — for scoring *and* for gradient computation
(training).
"""

from .engine import (
    GraphRef,
    ModelRef,
    ScoreTask,
    WorkerPool,
    even_shards,
    score_graph_sharded,
    score_task,
    service_refresh_scores,
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
from .training import ShardedTrainingRunner

__all__ = [
    "GraphRef",
    "ModelRef",
    "ScoreTask",
    "WorkerPool",
    "even_shards",
    "score_graph_sharded",
    "score_task",
    "service_refresh_scores",
    "ShardedTrainingRunner",
    "AttachedModel",
    "SharedGraph",
    "SharedGraphExport",
    "SharedGraphSpec",
    "SharedModelExport",
    "SharedModelSpec",
    "attach_shared_graph",
    "attach_shared_model",
]
