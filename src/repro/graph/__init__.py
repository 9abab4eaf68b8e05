"""Graph and hypergraph substrate."""

from .delta import DeltaOverlay, OverlayIndex
from .dual import dual_hypergraph, edge_features, incidence_from_edges
from .graph import Graph, canonical_edges
from .hypergraph import Hypergraph
from .index import (
    GraphIndex,
    derive_stream_seed,
    derive_target_seeds,
    index_of,
    seeded_uniform,
)
from .normalize import gcn_operator, hgnn_operator, row_normalize
from .sampling import (
    SampledSubgraph,
    SampledSubgraphBatch,
    induce_slot_edges,
    random_walk_subgraph,
    random_walk_subgraphs,
    sample_enclosing_subgraphs,
)

__all__ = [
    "DeltaOverlay",
    "Graph",
    "GraphIndex",
    "Hypergraph",
    "OverlayIndex",
    "canonical_edges",
    "derive_stream_seed",
    "derive_target_seeds",
    "dual_hypergraph",
    "edge_features",
    "incidence_from_edges",
    "index_of",
    "gcn_operator",
    "hgnn_operator",
    "row_normalize",
    "seeded_uniform",
    "SampledSubgraph",
    "SampledSubgraphBatch",
    "induce_slot_edges",
    "random_walk_subgraph",
    "random_walk_subgraphs",
    "sample_enclosing_subgraphs",
]
