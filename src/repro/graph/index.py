"""Array-native graph index for batched subgraph sampling.

:class:`GraphIndex` packages the two lookups every sampler needs into
flat NumPy arrays so whole target batches can be processed without
per-target Python loops:

* **CSR adjacency** (``indptr`` / ``indices``) — neighbour lists of all
  nodes in one pair of arrays, enabling frontier expansion for an
  entire batch with ``np.repeat`` + fancy indexing.
* **Sorted edge keys** — every canonical edge ``(u, v)`` (``u < v``)
  encoded as ``u * N + v`` in one sorted ``uint64`` array, so edge
  induction over *all* candidate node pairs of a batch is a single
  ``np.searchsorted`` instead of ``O(K^2 B)`` dict lookups.

The module also hosts the counter-based RNG used by the batch sampler:
``splitmix64`` hashes turn ``(seed, stream, draw index)`` tuples into
uniforms, which makes every target's draws independent of batch
composition — the property the serving layer's bitwise determinism
tests rely on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_INV_2_53 = float(2.0 ** -53)


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over ``uint64`` values.

    Always computes on ndarrays (scalar inputs are lifted to 1-d and
    lowered back) because NumPy warns on scalar — but not array —
    unsigned wraparound, and wraparound is the point of the mix.
    """
    x = np.asarray(values, dtype=np.uint64)
    scalar = x.ndim == 0
    if scalar:
        x = x.reshape(1)
    x = x + _GOLDEN
    x = (x ^ (x >> _U64(30))) * _MIX1
    x = (x ^ (x >> _U64(27))) * _MIX2
    x = x ^ (x >> _U64(31))
    return x[0] if scalar else x


def derive_stream_seed(*components: int) -> np.uint64:
    """Fold integer components into one ``uint64`` stream seed.

    Deterministic and order-sensitive: ``(seed, round)`` and
    ``(round, seed)`` yield different streams.
    """
    state = np.uint64(0)
    for component in components:
        value = _U64(int(component) & 0xFFFFFFFFFFFFFFFF)
        state = splitmix64(state ^ splitmix64(value))
    return np.uint64(state)


def derive_target_seeds(base, targets: np.ndarray) -> np.ndarray:
    """Per-target ``uint64`` seeds from one base seed (or a ``uint64``
    array of bases, one per target).

    Depends only on ``(base, target id)`` — never on the position of a
    target inside its batch — so sampling a node alone or inside any
    batch draws identically.
    """
    ids = np.asarray(targets, dtype=np.uint64)
    if np.ndim(base) == 0:
        base = _U64(int(base) & 0xFFFFFFFFFFFFFFFF)
    return splitmix64(np.asarray(base, dtype=np.uint64) ^ splitmix64(ids))


def seeded_uniform(seeds: np.ndarray, stream: int,
                   draw_index: np.ndarray) -> np.ndarray:
    """Uniforms in ``[0, 1)`` from ``(seed, stream, draw index)`` triples.

    ``seeds`` and ``draw_index`` broadcast against each other; each
    triple maps to one deterministic double with 53 random bits.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    idx = np.atleast_1d(np.asarray(draw_index, dtype=np.uint64))
    stream_key = splitmix64(_U64(stream))
    h = splitmix64(seeds ^ splitmix64(idx ^ stream_key))
    return (h >> _U64(11)).astype(np.float64) * _INV_2_53


class GraphIndex:
    """Immutable sampling index over one topology snapshot.

    Parameters are produced by :meth:`build`; edge ids follow whatever
    numbering the caller supplies (canonical order for
    :class:`~repro.graph.graph.Graph`, insertion order for
    :class:`~repro.serving.store.GraphStore`) — lookups translate sorted
    key positions back to the caller's ids.
    """

    __slots__ = ("num_nodes", "num_edges", "indptr", "indices",
                 "edge_keys", "edge_key_ids")

    def __init__(self, num_nodes: int, indptr: np.ndarray,
                 indices: np.ndarray, edge_keys: np.ndarray,
                 edge_key_ids: np.ndarray):
        self.num_nodes = int(num_nodes)
        self.num_edges = len(edge_keys)
        self.indptr = indptr
        self.indices = indices
        self.edge_keys = edge_keys
        self.edge_key_ids = edge_key_ids

    @classmethod
    def build(cls, num_nodes: int, edges: np.ndarray) -> "GraphIndex":
        """Index ``edges`` (``(M, 2)``, endpoints already ``u < v``).

        Edge ids are the row positions of ``edges``; the keys are sorted
        but the id mapping preserves the caller's numbering.
        """
        num_nodes = int(num_nodes)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges) == 0:
            return cls(num_nodes,
                       np.zeros(num_nodes + 1, dtype=np.int64),
                       np.zeros(0, dtype=np.int64),
                       np.zeros(0, dtype=np.uint64),
                       np.zeros(0, dtype=np.int64))
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((cols, rows))
        indices = cols[order]
        counts = np.bincount(rows, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        keys = (edges[:, 0].astype(np.uint64) * _U64(num_nodes)
                + edges[:, 1].astype(np.uint64))
        key_order = np.argsort(keys, kind="stable")
        return cls(num_nodes, indptr, indices,
                   keys[key_order], key_order.astype(np.int64))

    # ------------------------------------------------------------------
    # Export / import (multi-process scoring)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        """The index as a dict of flat arrays plus ``num_nodes``.

        Everything a worker process needs to reconstruct the index
        without re-sorting: the CSR pair and the *already sorted* edge
        keys with their id mapping.  The arrays are returned by
        reference (no copy) so they can be placed into shared memory.
        """
        return {
            "num_nodes": self.num_nodes,
            "indptr": self.indptr,
            "indices": self.indices,
            "edge_keys": self.edge_keys,
            "edge_key_ids": self.edge_key_ids,
        }

    @classmethod
    def from_arrays(cls, num_nodes: int, indptr: np.ndarray,
                    indices: np.ndarray, edge_keys: np.ndarray,
                    edge_key_ids: np.ndarray) -> "GraphIndex":
        """Rebuild an index from :meth:`to_arrays` output (zero work:
        the arrays are adopted as-is, no re-sort, no copy)."""
        return cls(num_nodes, indptr, indices, edge_keys, edge_key_ids)

    # ------------------------------------------------------------------
    # Neighbour access
    # ------------------------------------------------------------------
    @property
    def degrees(self) -> np.ndarray:
        """Node degrees (``(N,)``)."""
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted 1-hop neighbours of ``node`` (zero-copy CSR slice)."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    # ------------------------------------------------------------------
    # Batched edge lookup
    # ------------------------------------------------------------------
    def _keys_of(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return (np.asarray(lo).astype(np.uint64) * _U64(self.num_nodes)
                + np.asarray(hi).astype(np.uint64))

    def lookup_edge_ids(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Edge ids of the pairs ``(lo, hi)`` (``lo < hi``); ``-1`` where
        the pair is not an edge.  One ``searchsorted`` for any batch."""
        lo = np.asarray(lo, dtype=np.int64)
        out = np.full(lo.shape, -1, dtype=np.int64)
        if self.num_edges == 0 or lo.size == 0:
            return out
        queries = self._keys_of(lo, hi)
        pos = np.searchsorted(self.edge_keys, queries)
        clipped = np.minimum(pos, self.num_edges - 1)
        hit = (pos < self.num_edges) & (self.edge_keys[clipped] == queries)
        out[hit] = self.edge_key_ids[clipped[hit]]
        return out

    def contains_edges(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Boolean membership mask for the pairs ``(lo, hi)``."""
        lo = np.asarray(lo, dtype=np.int64)
        if self.num_edges == 0 or lo.size == 0:
            return np.zeros(lo.shape, dtype=bool)
        queries = self._keys_of(lo, hi)
        pos = np.searchsorted(self.edge_keys, queries)
        clipped = np.minimum(pos, self.num_edges - 1)
        return (pos < self.num_edges) & (self.edge_keys[clipped] == queries)

    # ------------------------------------------------------------------
    # Batched frontier expansion
    # ------------------------------------------------------------------
    def gather_neighbors(self, nodes: np.ndarray) -> np.ndarray:
        """All neighbours of ``nodes`` as one flat array (with repeats)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return gather_csr_rows(self.indptr, self.indices, nodes)

    def expand_ball(self, seeds: np.ndarray, radius: int) -> np.ndarray:
        """Sorted node ids within ``radius`` hops of ``seeds`` (inclusive).

        Layered CSR frontier expansion — one ``gather`` + ``unique`` per
        layer instead of a per-node Python BFS.
        """
        return expand_ball_via(self.gather_neighbors, self.num_nodes,
                               seeds, radius)


def gather_csr_rows(indptr: np.ndarray, indices: np.ndarray,
                    nodes: np.ndarray) -> np.ndarray:
    """Concatenated CSR rows of ``nodes`` via ``np.repeat`` + fancy
    indexing (no per-node slicing)."""
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=indices.dtype)
    starts = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    seg = np.repeat(np.arange(len(nodes), dtype=np.int64), counts)
    pos = np.arange(total, dtype=np.int64) - starts[seg]
    return indices[indptr[nodes][seg] + pos]


def expand_ball_via(gather, num_nodes: int, seeds: np.ndarray,
                    radius: int) -> np.ndarray:
    """Hop-``radius`` ball around ``seeds`` under a neighbour ``gather``
    callback (flat array in, flat array out).  Shared by
    :class:`GraphIndex` and the delta-overlay index so dirty-region
    tracking works identically on either representation."""
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    seen = np.zeros(num_nodes, dtype=bool)
    seen[seeds] = True
    frontier = seeds
    for _ in range(radius):
        if len(frontier) == 0:
            break
        neighbors = gather(frontier)
        if len(neighbors) == 0:
            break
        fresh = np.unique(neighbors[~seen[neighbors]])
        if len(fresh) == 0:
            break
        seen[fresh] = True
        frontier = fresh
    return np.nonzero(seen)[0].astype(np.int64)


def index_of(graph) -> GraphIndex:
    """The sampling index of ``graph``.

    Uses the cached ``.index`` property that :class:`Graph` and
    :class:`GraphStore` expose — duck-typed, so a store may answer with
    either a compacted :class:`GraphIndex` or a delta-overlay index
    (:class:`repro.graph.delta.OverlayIndex`) implementing the same read
    protocol; falls back to an ad-hoc build for other objects
    implementing the sampler protocol with an ``edges`` array.
    """
    index: Optional[GraphIndex] = getattr(graph, "index", None)
    if index is not None and hasattr(index, "lookup_edge_ids"):
        return index
    return GraphIndex.build(graph.num_nodes, np.asarray(graph.edges))
