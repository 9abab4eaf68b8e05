"""Graph substrate: storage, streaming deltas, sampling, GCN operators."""

from .delta import DeltaOverlay, OverlayIndex
from .graph import Graph, canonical_edges
from .index import (
    GraphIndex,
    derive_stream_seed,
    derive_target_seeds,
    index_of,
    seeded_uniform,
)
from .normalize import gcn_operator
from .sampling import (
    SampledSubgraph,
    SampledSubgraphBatch,
    induce_slot_edges,
    random_walk_subgraphs,
    sample_enclosing_subgraphs,
)

__all__ = [
    "DeltaOverlay",
    "Graph",
    "GraphIndex",
    "OverlayIndex",
    "canonical_edges",
    "derive_stream_seed",
    "derive_target_seeds",
    "index_of",
    "gcn_operator",
    "seeded_uniform",
    "SampledSubgraph",
    "SampledSubgraphBatch",
    "induce_slot_edges",
    "random_walk_subgraphs",
    "sample_enclosing_subgraphs",
]
