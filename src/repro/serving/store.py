"""Mutable graph store for online serving — write-optimized, LSM-style.

A :class:`GraphStore` is the serving-side counterpart of the immutable
:class:`repro.graph.Graph`: it supports ``add_nodes`` / ``add_edges`` /
``update_features`` between score requests and tracks which *regions*
of the graph a mutation can influence so the scoring layer only
re-samples neighbourhoods that actually changed.

Storage is a **compacted base index plus a delta overlay**
(:mod:`repro.graph.delta`): edges live in one insertion-order array
(the delta log); a :class:`~repro.graph.index.GraphIndex` is compacted
over a prefix of it, and edges appended since are served through an
:class:`~repro.graph.delta.OverlayIndex` that merges base + overlay on
read.  Mutation bursts therefore cost one amortized append + sort of
the *burst* (never ``np.insert`` per edge, never a full index rebuild),
and a threshold-triggered — or explicit :meth:`compact` — compaction
folds the overlay into a fresh base.  Compaction changes the
representation, never the content: edge ids are insertion order either
way, so it does **not** bump ``version`` and invalidates nothing.

The store implements the sampler protocol used by
:mod:`repro.graph.sampling` (``features``, ``num_nodes`` and an
``index`` whose CSR rows are sorted ascending, exactly like
``Graph``'s), so a store and a freshly built ``Graph`` with the same
topology drive the sampler through *identical* random draws.  That is
the invariant the serving-equivalence tests pin down to the bit.

Dirty-region tracking
---------------------
Every mutation bumps ``version``.  A mutation that touches node ``w``
can change the sampled enclosing subgraph of any target within
``influence_radius`` hops of ``w`` (the sampler's candidate pool has hop
radius ``k``, so ``influence_radius`` must be ≥ the model's
``hop_size``): the store expands that ball once per mutation — a
layered CSR frontier expansion on the current (overlay-merged) index —
and records ``region_version[t] = version`` for each node ``t`` inside
it.  A cached artifact for target ``t`` computed at version ``v`` is
stale iff ``region_version(t) > v``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from ..graph.delta import OverlayIndex
from ..graph.graph import Graph
from ..graph.index import GraphIndex

_EMPTY_EDGES = np.zeros((0, 2), dtype=np.int64)


class GraphStore:
    """Mutable attributed graph with version/dirty-region bookkeeping.

    Parameters
    ----------
    features:
        Initial node feature matrix ``(N, D)``.
    edges:
        Optional initial edge array ``(M, 2)``; deduplicated and stored
        with canonical ``u < v`` endpoints.
    node_labels:
        Optional binary anomaly labels carried through to snapshots
        (streaming evaluation uses them; scoring never reads them).
    influence_radius:
        Hop radius of the region a mutation invalidates.  Must be at
        least the ``hop_size`` of any model served against this store.
    compact_threshold:
        Overlay compaction trigger, as a fraction of the base edge
        count: the overlay is folded into a fresh base once
        ``pending_edges >= max(1, threshold * base_edges)``.  ``0``
        compacts after every mutation burst (the rebuild-per-burst
        behaviour of the pre-overlay store); ``None`` never compacts
        automatically (call :meth:`compact` explicitly).
    """

    def __init__(
        self,
        features: np.ndarray,
        edges: Optional[np.ndarray] = None,
        node_labels: Optional[np.ndarray] = None,
        name: str = "stream",
        influence_radius: int = 2,
        compact_threshold: Optional[float] = 0.25,
    ):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if influence_radius < 1:
            raise ValueError("influence_radius must be >= 1")
        self.name = name
        self.influence_radius = int(influence_radius)
        self.compact_threshold = compact_threshold
        self._dim = features.shape[1]
        self._num_nodes = 0
        self._features = np.zeros((0, self._dim))
        self._node_labels: List[int] = []

        # Insertion-order delta log (capacity-grown, canonical u < v).
        self._edges = _EMPTY_EDGES
        self._edge_labels = np.zeros(0, dtype=np.int64)
        self._edge_count = 0
        # Compacted base covers the log prefix [:_base_edge_count].
        self._base = GraphIndex.build(0, _EMPTY_EDGES)
        self._base_edge_count = 0
        #: Number of overlay folds performed (monitoring).
        self.compactions = 0

        #: Monotone mutation counter; 0 for a freshly constructed store.
        self.version = 0
        # Churn counters: cumulative mutation volume since construction
        # (the initial load does not count).  ``drift_total`` accumulates
        # the L2 norm of every feature overwrite — the drift signal the
        # lifecycle controller's trigger policies watch.
        self.nodes_added = 0
        self.edges_added = 0
        self.features_updated = 0
        self.drift_total = 0.0
        self._region_version = np.zeros(0, dtype=np.int64)
        self._index: Optional[Union[GraphIndex, OverlayIndex]] = None

        if features.shape[0]:
            self._append_nodes(features, node_labels)
        if edges is not None and len(edges):
            self._insert_edges(np.asarray(edges), None)
        self.compact()
        self.compactions = 0

    @classmethod
    def from_graph(cls, graph: Graph, influence_radius: int = 2,
                   compact_threshold: Optional[float] = 0.25) -> "GraphStore":
        """Wrap an existing :class:`Graph` (labels included) in a store."""
        store = cls(graph.features, graph.edges, node_labels=graph.node_labels,
                    name=graph.name, influence_radius=influence_radius,
                    compact_threshold=compact_threshold)
        if store._edge_count:
            store._edge_labels[:store._edge_count] = np.asarray(
                graph.edge_labels, dtype=np.int64)
        return store

    # ------------------------------------------------------------------
    # Sampler protocol (matches Graph)
    # ------------------------------------------------------------------
    @property
    def features(self) -> np.ndarray:
        """Node feature matrix ``(N, D)`` (live view; do not mutate)."""
        return self._features[: self._num_nodes]

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._edge_count

    @property
    def num_features(self) -> int:
        return self._dim

    @property
    def pending_edges(self) -> int:
        """Edges in the delta overlay (appended since the last compaction)."""
        return self._edge_count - self._base_edge_count

    @property
    def mutations(self) -> int:
        """Total mutation churn: nodes added + edges added + feature
        rows overwritten since construction (never resets — consumers
        diff against a baseline, like the lifecycle trigger policies)."""
        return self.nodes_added + self.edges_added + self.features_updated

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted 1-hop neighbours — same order as ``Graph.neighbors``."""
        return self.index.neighbors(node)

    @property
    def index(self) -> Union[GraphIndex, OverlayIndex]:
        """Sampling index of the current topology (edge ids are
        insertion order).  The compacted base is returned directly when
        nothing is pending; otherwise an :class:`OverlayIndex` merges
        base + overlay on read.  Cached until the next topology change,
        so between mutations every batch shares one merge."""
        if self._index is None:
            if (self._base_edge_count == self._edge_count
                    and self._base.num_nodes == self._num_nodes):
                self._index = self._base
            else:
                self._index = OverlayIndex(
                    self._base,
                    self._edges[self._base_edge_count:self._edge_count],
                    self._num_nodes)
        return self._index

    def compact(self) -> int:
        """Fold the overlay into a fresh compacted base; returns the
        number of pending edges folded.

        Rebuilds with :meth:`GraphIndex.build` over the insertion-order
        edge log, so the folded index is bitwise the one a fresh build
        would produce — edge ids, CSR rows, and key order included.
        Compaction therefore does **not** bump ``version``: dirty
        regions and score tables stay valid.  Also refreshes the base when only nodes arrived (the
        key width tracks the node count)."""
        folded = self.pending_edges
        if folded == 0 and self._base.num_nodes == self._num_nodes:
            return 0
        self._base = GraphIndex.build(self._num_nodes,
                                      self._edges[:self._edge_count])
        self._base_edge_count = self._edge_count
        self._index = None
        self.compactions += 1
        return folded

    def _maybe_compact(self) -> None:
        threshold = self.compact_threshold
        if threshold is None:
            return
        if self.pending_edges >= max(1, int(threshold * self._base_edge_count)):
            self.compact()

    def has_edge(self, u: int, v: int) -> bool:
        u, v = int(u), int(v)
        lo, hi = (u, v) if u < v else (v, u)
        if lo < 0 or hi >= self._num_nodes or lo == hi:
            return False
        return bool(self.index.contains_edges(
            np.array([lo], dtype=np.int64), np.array([hi], dtype=np.int64))[0])

    def edge_id(self, u: int, v: int) -> int:
        u, v = int(u), int(v)
        key = (min(u, v), max(u, v))
        if 0 <= key[0] and key[1] < self._num_nodes and key[0] != key[1]:
            eid = self.index.lookup_edge_ids(
                np.array([key[0]], dtype=np.int64),
                np.array([key[1]], dtype=np.int64))[0]
            if eid >= 0:
                return int(eid)
        raise KeyError(f"edge {key} not in store")

    def edge_key(self, edge_id: int) -> Tuple[int, int]:
        """Canonical ``(u, v)`` endpoints of a store edge id."""
        if not 0 <= edge_id < self._edge_count:
            raise IndexError(
                f"edge id {edge_id} out of range (num_edges={self._edge_count})")
        return (int(self._edges[edge_id, 0]), int(self._edges[edge_id, 1]))

    @property
    def node_labels(self) -> np.ndarray:
        return np.asarray(self._node_labels, dtype=np.int64)

    @property
    def edge_labels(self) -> np.ndarray:
        return self._edge_labels[: self._edge_count]

    def set_node_label(self, node: int, label: int) -> None:
        """Annotate a node's anomaly label (evaluation only — labels
        never feed scoring, so no region is dirtied)."""
        self._node_labels[node] = int(label)

    def __repr__(self) -> str:
        return (f"GraphStore(name={self.name!r}, nodes={self.num_nodes}, "
                f"edges={self.num_edges}, version={self.version}, "
                f"pending={self.pending_edges})")

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_nodes(self, features: np.ndarray,
                  labels: Optional[Iterable[int]] = None) -> np.ndarray:
        """Append isolated nodes; returns their new ids."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self._dim:
            raise ValueError(
                f"expected {self._dim} features per node, got {features.shape[1]}")
        self.version += 1
        self.nodes_added += features.shape[0]
        return self._append_nodes(features, labels)

    def add_edges(self, edges: np.ndarray,
                  labels: Optional[Iterable[int]] = None) -> int:
        """Insert edges (canonicalized, duplicates skipped); returns the
        number actually added.  Bumps the region version of every node
        within ``influence_radius`` hops of a new edge's endpoints, then
        compacts the overlay if it crossed ``compact_threshold``."""
        edges = np.atleast_2d(np.asarray(edges, dtype=np.int64))
        if edges.size == 0:
            return 0
        if edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (M, 2), got {edges.shape}")
        self.version += 1
        added = self._insert_edges(edges, labels)
        self.edges_added += added
        self._maybe_compact()
        return added

    def add_edge(self, u: int, v: int, label: int = 0) -> bool:
        """Insert one edge; returns whether it was new."""
        return self.add_edges(np.array([[u, v]]), labels=[label]) == 1

    def update_features(self, nodes, features: np.ndarray) -> float:
        """Overwrite feature rows; dirties the surrounding region.

        Returns the drift magnitude of this update — the L2 norm of
        the delta against the rows being replaced (computed before the
        overwrite) — and folds it into :attr:`drift_total`."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape != (len(nodes), self._dim):
            raise ValueError(
                f"features must have shape ({len(nodes)}, {self._dim}), "
                f"got {features.shape}")
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self._num_nodes):
            raise IndexError("node id out of range")
        self.version += 1
        magnitude = float(np.linalg.norm(features - self._features[nodes]))
        self.drift_total += magnitude
        self.features_updated += len(nodes)
        self._features[nodes] = features
        self._touch_region(nodes)
        return magnitude

    # ------------------------------------------------------------------
    # Dirty-region bookkeeping
    # ------------------------------------------------------------------
    def region_version(self, node: int) -> int:
        """Version of the last mutation that could affect ``node``'s
        sampled enclosing subgraph."""
        return int(self._region_version[node])

    def dirty_nodes(self, since_version: int) -> np.ndarray:
        """Nodes whose region changed strictly after ``since_version``."""
        live = self._region_version[: self._num_nodes]
        return np.where(live > since_version)[0].astype(np.int64)

    def _touch_region(self, seeds: np.ndarray) -> None:
        """Bump region_version over the ``influence_radius``-hop ball
        around ``seeds`` — one layered CSR frontier expansion on the
        *current* (overlay-merged) index, never a fold."""
        region = self.index.expand_ball(seeds, self.influence_radius)
        self._region_version[region] = self.version

    # ------------------------------------------------------------------
    # Internal mutation plumbing
    # ------------------------------------------------------------------
    def _append_nodes(self, features: np.ndarray, labels) -> np.ndarray:
        count = features.shape[0]
        start = self._num_nodes
        capacity = self._features.shape[0]
        if start + count > capacity:
            new_capacity = max(start + count, 2 * capacity, 16)
            grown = np.zeros((new_capacity, self._dim))
            grown[:start] = self._features[:start]
            self._features = grown
            grown_versions = np.zeros(new_capacity, dtype=np.int64)
            grown_versions[:start] = self._region_version[:start]
            self._region_version = grown_versions
        self._features[start:start + count] = features
        if labels is None:
            self._node_labels.extend([0] * count)
        else:
            labels = [int(label) for label in labels]
            if len(labels) != count:
                raise ValueError("labels length must match number of new nodes")
            self._node_labels.extend(labels)
        self._region_version[start:start + count] = self.version
        self._num_nodes = start + count
        self._index = None
        return np.arange(start, start + count, dtype=np.int64)

    def _insert_edges(self, edges: np.ndarray, labels) -> int:
        """Append one mutation burst to the delta log.

        One canonicalize + sort/dedup + membership probe for the whole
        burst (first occurrence wins, exactly like the old per-edge
        loop), then a single amortized append — no per-edge
        ``np.insert``, no index rebuild."""
        if edges.min(initial=0) < 0 or edges.max(initial=-1) >= self._num_nodes:
            raise IndexError("edge endpoint out of range")
        if (edges[:, 0] == edges[:, 1]).any():
            raise ValueError("self-loops are not allowed")
        if labels is not None:
            labels = np.asarray([int(label) for label in labels],
                                dtype=np.int64)
            if len(labels) != len(edges):
                raise ValueError("labels length must match number of edges")
        else:
            labels = np.zeros(len(edges), dtype=np.int64)
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keys = (lo.astype(np.uint64) * np.uint64(self._num_nodes)
                + hi.astype(np.uint64))
        _, first = np.unique(keys, return_index=True)
        first = np.sort(first)              # in-burst dedup, insertion order
        fresh = ~self.index.contains_edges(lo[first], hi[first])
        rows = first[fresh]
        if len(rows) == 0:
            return 0
        self._append_edge_rows(lo[rows], hi[rows], labels[rows])
        self._index = None                  # next read merges the grown log
        self._touch_region(np.concatenate([lo[rows], hi[rows]]))
        return len(rows)

    def _append_edge_rows(self, lo: np.ndarray, hi: np.ndarray,
                          labels: np.ndarray) -> None:
        count = len(lo)
        start = self._edge_count
        capacity = self._edges.shape[0]
        if start + count > capacity:
            new_capacity = max(start + count, 2 * capacity, 16)
            grown = np.zeros((new_capacity, 2), dtype=np.int64)
            grown[:start] = self._edges[:start]
            self._edges = grown
            grown_labels = np.zeros(new_capacity, dtype=np.int64)
            grown_labels[:start] = self._edge_labels[:start]
            self._edge_labels = grown_labels
        self._edges[start:start + count, 0] = lo
        self._edges[start:start + count, 1] = hi
        self._edge_labels[start:start + count] = labels
        self._edge_count = start + count

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> Graph:
        """An immutable :class:`Graph` copy of the current state
        (canonical edge order; labels carried over)."""
        edges = self._edges[: self._edge_count].copy()
        edge_labels = (self._edge_labels[: self._edge_count].copy()
                       if self._edge_count else None)
        return Graph(self.features.copy(), edges,
                     node_labels=self.node_labels,
                     edge_labels=edge_labels, name=self.name)
