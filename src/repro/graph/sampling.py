"""Subgraph samplers.

* :func:`sample_enclosing_subgraphs` — BOURNE's sampler (Section IV-A
  of the paper) over a whole target batch: ``K`` context nodes per
  target drawn from its k-hop neighbourhood **with replacement**, with
  1-hop neighbours prioritized so as many target edges as possible
  survive into the subgraph.  One array program does it: hashed-key
  prioritized 1-hop choice, layered CSR-frontier k-hop pool expansion,
  and a single ``searchsorted`` edge induction over every candidate
  slot pair, returning a flat ragged :class:`SampledSubgraphBatch`.
* :func:`random_walk_subgraphs` — random walk with restart, the
  sampler used by the CoLA and SL-GAD baselines; it advances all walks
  in lock-step, so its only Python loop is over walk *steps*, never
  over targets.

BOURNE's sampling randomness is counter-based (:mod:`repro.graph.index`):
each target draws from a stream keyed by its own ``uint64`` seed, so a
node's subgraph never depends on which other targets share its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..obs import trace as obs_trace
from .index import GraphIndex, index_of, seeded_uniform

#: Stream tags of the batch sampler's per-target draws.
_STREAM_ONE_HOP = 1
_STREAM_FILLER = 2


@dataclass
class SampledSubgraph:
    """An enclosing subgraph centred on a target node.

    Slots index the subgraph's node positions; slot 0 is always the
    target node.  Because sampling is with replacement, several slots may
    refer to the same original node.

    Attributes
    ----------
    target:
        Original id of the target node ``v_t``.
    node_ids:
        ``(Ns,)`` original node id per slot.
    features:
        ``(Ns, D)`` feature rows per slot.
    edges:
        ``(Ms, 2)`` slot-level edges (``a < b``), induced from the parent
        graph's adjacency; **ordered with target edges first**.
    edge_orig_ids:
        ``(Ms,)`` id of the parent-graph edge each slot edge realizes.
    num_target_edges:
        Number of leading rows of ``edges`` incident to slot 0 (``M_tar``).
    """

    target: int
    node_ids: np.ndarray
    features: np.ndarray
    edges: np.ndarray
    edge_orig_ids: np.ndarray
    num_target_edges: int

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def target_edge_orig_ids(self) -> np.ndarray:
        """Parent-graph edge ids of the target edges."""
        return self.edge_orig_ids[: self.num_target_edges]


@dataclass
class SampledSubgraphBatch:
    """Enclosing subgraphs of a whole target batch, flat ragged layout.

    Every subgraph has the same slot count ``S = K + 1`` (slot 0 is the
    target), so node arrays are sliced by fixed stride while edge arrays
    use explicit offsets.  :meth:`view` recovers the familiar
    per-target :class:`SampledSubgraph` without recomputation.

    Attributes
    ----------
    targets:
        ``(B,)`` target node ids.
    node_ids / features:
        ``(B * S,)`` and ``(B * S, D)`` — concatenated per-slot node ids
        and feature rows.
    node_offsets:
        ``(B + 1,)`` slice boundaries into the node arrays.
    edges / edge_orig_ids:
        ``(ΣMs, 2)`` slot-local edges (target edges of each subgraph
        first) and the parent edge id each realizes.
    edge_offsets:
        ``(B + 1,)`` slice boundaries into the edge arrays.
    num_target_edges:
        ``(B,)`` leading target-edge counts per subgraph.
    """

    targets: np.ndarray
    node_ids: np.ndarray
    node_offsets: np.ndarray
    features: np.ndarray
    edges: np.ndarray
    edge_orig_ids: np.ndarray
    edge_offsets: np.ndarray
    num_target_edges: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def slots(self) -> int:
        """Slots per subgraph (uniform across the batch; 0 when empty)."""
        if len(self.targets) == 0:
            return 0
        return int(self.node_offsets[1] - self.node_offsets[0])

    def view(self, i: int) -> SampledSubgraph:
        """Per-target :class:`SampledSubgraph` slice (no recompute)."""
        n0, n1 = self.node_offsets[i], self.node_offsets[i + 1]
        e0, e1 = self.edge_offsets[i], self.edge_offsets[i + 1]
        return SampledSubgraph(
            target=int(self.targets[i]),
            node_ids=self.node_ids[n0:n1],
            features=self.features[n0:n1],
            edges=self.edges[e0:e1],
            edge_orig_ids=self.edge_orig_ids[e0:e1],
            num_target_edges=int(self.num_target_edges[i]),
        )

    def views(self) -> Iterator[SampledSubgraph]:
        """Iterate the per-target views in batch order."""
        for i in range(len(self)):
            yield self.view(i)


def _segment_positions(counts: np.ndarray) -> tuple:
    """``(segment id, position within segment, segment starts)`` for a
    ragged layout described by per-segment ``counts``."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    total = int(starts[-1])
    seg = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pos = np.arange(total, dtype=np.int64) - starts[seg]
    return seg, pos, starts


def _khop_pools(index: GraphIndex, seeds: np.ndarray, k: int,
                max_pool: int) -> tuple:
    """Batched k-hop candidate pools around ``seeds`` (excluding them).

    Layered frontier expansion over the CSR arrays; every owner's pool
    is ordered by ``(depth, node id)`` and truncated to ``max_pool``.
    Owners that reached ``max_pool`` stop expanding.  Returns flat
    ``(pool nodes, pool starts, pool counts)`` with one segment per
    seed.
    """
    num_seeds = len(seeds)
    width = np.uint64(index.num_nodes)
    owner_ids = np.arange(num_seeds, dtype=np.uint64)
    seen = np.sort(owner_ids * width + seeds.astype(np.uint64))
    frontier_owner = np.arange(num_seeds, dtype=np.int64)
    frontier_node = seeds.astype(np.int64).copy()
    collected = np.zeros(num_seeds, dtype=np.int64)
    layer_owners: List[np.ndarray] = []
    layer_nodes: List[np.ndarray] = []
    for _ in range(k):
        if len(frontier_node) == 0:
            break
        active = collected[frontier_owner] < max_pool
        frontier_owner = frontier_owner[active]
        frontier_node = frontier_node[active]
        if len(frontier_node) == 0:
            break
        degs = index.degrees[frontier_node]
        seg, pos, _ = _segment_positions(degs)
        if len(seg) == 0:
            break
        neighbor = index.indices[index.indptr[frontier_node][seg] + pos]
        keys = np.unique(
            frontier_owner[seg].astype(np.uint64) * width
            + neighbor.astype(np.uint64))
        loc = np.searchsorted(seen, keys)
        clipped = np.minimum(loc, len(seen) - 1)
        known = (loc < len(seen)) & (seen[clipped] == keys)
        fresh = keys[~known]
        if len(fresh) == 0:
            break
        seen = np.sort(np.concatenate([seen, fresh]))
        frontier_owner = (fresh // width).astype(np.int64)
        frontier_node = (fresh % width).astype(np.int64)
        layer_owners.append(frontier_owner)
        layer_nodes.append(frontier_node)
        collected += np.bincount(frontier_owner, minlength=num_seeds)
    if not layer_owners:
        return (np.zeros(0, dtype=np.int64),
                np.zeros(num_seeds, dtype=np.int64),
                np.zeros(num_seeds, dtype=np.int64))
    owners = np.concatenate(layer_owners)
    nodes = np.concatenate(layer_nodes)
    # Stable sort by owner keeps (depth, node id) order inside segments.
    order = np.argsort(owners, kind="stable")
    owners, nodes = owners[order], nodes[order]
    seg_counts = np.bincount(owners, minlength=num_seeds)
    _, rank, _ = _segment_positions(seg_counts)
    keep = rank < max_pool
    nodes = nodes[keep]
    pool_counts = np.bincount(owners[keep], minlength=num_seeds)
    pool_starts = np.zeros(num_seeds, dtype=np.int64)
    np.cumsum(pool_counts[:-1], out=pool_starts[1:])
    return nodes, pool_starts, pool_counts


def _choose_context_slots(index: GraphIndex, targets: np.ndarray,
                          target_seeds: np.ndarray, k: int,
                          size: int) -> np.ndarray:
    """Batched prioritized choice of ``size`` context nodes per target.

    Targets with ≥ ``size`` neighbours draw that many *distinct* 1-hop
    neighbours (smallest hashed key wins — a weighted-shuffle
    equivalent of ``rng.choice(..., replace=False)``); the rest keep
    all 1-hop neighbours and fill remaining slots with replacement from
    their k-hop pool, falling back to the target itself when the pool
    is empty (isolated nodes).
    """
    batch = len(targets)
    degrees = index.degrees[targets]
    chosen = np.empty((batch, size), dtype=np.int64)

    rich = degrees >= size
    if rich.any():
        rows = np.nonzero(rich)[0]
        seg, pos, starts = _segment_positions(degrees[rows])
        neighbor = index.indices[index.indptr[targets[rows]][seg] + pos]
        keys = seeded_uniform(target_seeds[rows][seg], _STREAM_ONE_HOP, pos)
        order = np.lexsort((keys, seg))
        # Segments stay contiguous under the sort, so the old in-segment
        # position doubles as the post-sort rank.
        winners = order[pos < size]
        chosen[rows] = neighbor[winners].reshape(len(rows), size)

    poor = ~rich
    if poor.any():
        rows = np.nonzero(poor)[0]
        row_targets = targets[rows]
        row_deg = degrees[rows]
        seg, pos, _ = _segment_positions(row_deg)
        chosen[rows[seg], pos] = index.indices[
            index.indptr[row_targets][seg] + pos]

        pool_nodes, pool_starts, pool_counts = _khop_pools(
            index, row_targets, k, max_pool=50 * size)
        deficit = size - row_deg
        fseg, fpos, _ = _segment_positions(deficit)
        draws = seeded_uniform(target_seeds[rows][fseg], _STREAM_FILLER, fpos)
        counts = pool_counts[fseg]
        has_pool = counts > 0
        filler = row_targets[fseg].copy()      # isolated-pool fallback
        if has_pool.any():
            pick = (draws[has_pool] * counts[has_pool]).astype(np.int64)
            pick = np.minimum(pick, counts[has_pool] - 1)
            filler[has_pool] = pool_nodes[pool_starts[fseg[has_pool]] + pick]
        chosen[rows[fseg], row_deg[fseg] + fpos] = filler
    return chosen


def count_target_edge_owners(
    graph,
    targets: Sequence[int],
    target_seeds: np.ndarray,
    k: int,
    size: int,
) -> int:
    """Number of targets whose sampled subgraph realizes ≥ 1 target edge.

    Replays the counter-based context choice of
    :func:`sample_enclosing_subgraphs` for ``(targets, target_seeds)``
    without building views or inducing the full edge set, so callers
    that need the batch-level edge-loss normalization (the trainer's
    ``U`` in Eq. 19) can compute it *before* fanning chunks of the
    batch out to workers.  Agrees exactly with
    ``(batch.num_target_edges > 0).sum()`` of the real sampler: a
    target edge exists iff some chosen context slot is a distinct
    1-hop neighbour of the target.
    """
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if len(targets) == 0:
        return 0
    index = index_of(graph)
    seeds = np.asarray(target_seeds, dtype=np.uint64).reshape(-1)
    if len(seeds) != len(targets):
        raise ValueError(
            f"target_seeds has {len(seeds)} entries for {len(targets)} targets")
    chosen = _choose_context_slots(index, targets, seeds, k, size)
    lo = np.minimum(chosen, targets[:, None])
    hi = np.maximum(chosen, targets[:, None])
    hits = index.contains_edges(lo.reshape(-1), hi.reshape(-1))
    hits = hits.reshape(chosen.shape) & (chosen != targets[:, None])
    return int(hits.any(axis=1).sum())


def induce_slot_edges(index: GraphIndex, slot_nodes: np.ndarray,
                      dedup_target_edges: bool = True) -> tuple:
    """Induce parent edges among every slot pair of every subgraph.

    ``slot_nodes`` is ``(B, S)`` with slot 0 the target.  All
    ``B · S(S-1)/2`` candidate pairs are resolved with one sorted-key
    ``searchsorted``.  Per subgraph, edges incident to slot 0 come
    first (duplicate realizations of one parent target edge dropped
    when ``dedup_target_edges``), followed by context edges in slot
    order — the exact layout :class:`SampledSubgraph` promises.

    Returns ``(edges, edge_orig_ids, edge_offsets, num_target_edges)``.
    """
    batch, slots = slot_nodes.shape
    tri_a, tri_b = np.triu_indices(slots, k=1)
    u = slot_nodes[:, tri_a]
    v = slot_nodes[:, tri_b]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    orig = index.lookup_edge_ids(lo.ravel(), hi.ravel()).reshape(batch, -1)
    found = (u != v) & (orig >= 0)

    target_pairs = slots - 1               # leading tri columns have a == 0
    trow, tcol = np.nonzero(found[:, :target_pairs])
    if dedup_target_edges and len(trow):
        realized = (trow.astype(np.uint64) * np.uint64(max(index.num_edges, 1))
                    + orig[trow, tcol].astype(np.uint64))
        _, first = np.unique(realized, return_index=True)
        keep = np.zeros(len(trow), dtype=bool)
        keep[first] = True                 # first slot realizing each edge
        trow, tcol = trow[keep], tcol[keep]
    crow, ccol = np.nonzero(found[:, target_pairs:])
    ccol = ccol + target_pairs

    rows = np.concatenate([trow, crow])
    cols = np.concatenate([tcol, ccol])
    group = np.concatenate([np.zeros(len(trow), dtype=np.int64),
                            np.ones(len(crow), dtype=np.int64)])
    order = np.lexsort((cols, group, rows))
    rows, cols = rows[order], cols[order]

    edges = np.stack([tri_a[cols], tri_b[cols]], axis=1).astype(np.int64)
    edge_orig_ids = orig[rows, cols]
    counts = np.bincount(rows, minlength=batch)
    edge_offsets = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(counts, out=edge_offsets[1:])
    num_target_edges = np.bincount(trow, minlength=batch)
    return edges, edge_orig_ids, edge_offsets, num_target_edges


def sample_enclosing_subgraphs(
    graph,
    targets: Sequence[int],
    k: int,
    size: int,
    target_seeds: np.ndarray,
) -> SampledSubgraphBatch:
    """Sample the enclosing subgraphs of a whole target batch at once.

    No per-target Python loops — neighbour choice, pool expansion, and
    edge induction are each one array program over the batch.

    Parameters
    ----------
    graph:
        A :class:`Graph` or any object exposing the sampler protocol
        (``features``, ``num_nodes``, and an ``index``/``edges``).
    targets:
        Target node ids (``B`` of them).
    k, size:
        Hop radius of the candidate pool and context slot count ``K``.
    target_seeds:
        ``(B,)`` ``uint64`` per-target seeds, every draw's only source.
        Seeds derived from ``(seed, round, target)`` make every
        subgraph independent of batch composition — the serving
        layer's bitwise determinism contract.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if size < 1:
        raise ValueError("size must be >= 1")
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    batch = len(targets)
    target_seeds = np.asarray(target_seeds, dtype=np.uint64).reshape(-1)
    if len(target_seeds) != batch:
        raise ValueError(
            f"target_seeds has {len(target_seeds)} entries for "
            f"{batch} targets")
    index = index_of(graph)
    slots = size + 1
    feature_dim = graph.features.shape[1]
    if batch == 0:
        return SampledSubgraphBatch(
            targets=targets,
            node_ids=np.zeros(0, dtype=np.int64),
            node_offsets=np.zeros(1, dtype=np.int64),
            features=np.zeros((0, feature_dim)),
            edges=np.zeros((0, 2), dtype=np.int64),
            edge_orig_ids=np.zeros(0, dtype=np.int64),
            edge_offsets=np.zeros(1, dtype=np.int64),
            num_target_edges=np.zeros(0, dtype=np.int64),
        )

    # The span times stages only — all sampling randomness stays in the
    # counter-based seeded_uniform streams, untouched by tracing.
    with obs_trace.span("sampling.enclosing_subgraphs") as sp:
        sp.set(batch=batch, k=int(k), size=int(size))
        chosen = _choose_context_slots(index, targets, target_seeds, k, size)
        slot_nodes = np.concatenate([targets[:, None], chosen], axis=1)
        edges, edge_orig_ids, edge_offsets, num_target = induce_slot_edges(
            index, slot_nodes)
    node_ids = slot_nodes.reshape(-1)
    return SampledSubgraphBatch(
        targets=targets,
        node_ids=node_ids,
        node_offsets=np.arange(batch + 1, dtype=np.int64) * slots,
        features=graph.features[node_ids],
        edges=edges,
        edge_orig_ids=edge_orig_ids,
        edge_offsets=edge_offsets,
        num_target_edges=num_target,
    )


def random_walk_subgraphs(
    graph,
    starts: Sequence[int],
    size: int,
    rng: np.random.Generator,
    restart_prob: float = 0.5,
    max_steps: Optional[int] = None,
) -> np.ndarray:
    """Random walks with restart for a whole start batch, in lock-step.

    All walks advance together, so the only Python loop is over steps
    (bounded by ``max_steps``), not over targets.  Returns ``(B, size)``
    node ids with each start first; walks that cannot reach ``size``
    distinct nodes are padded with their start node, the standard
    practice in the CoLA / SL-GAD reference implementations.
    """
    if max_steps is None:
        max_steps = 20 * size
    index = index_of(graph)
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    batch = len(starts)
    visited = np.full((batch, size), -1, dtype=np.int64)
    if size == 0 or batch == 0:
        return visited.reshape(batch, size)
    visited[:, 0] = starts
    counts = np.ones(batch, dtype=np.int64)
    current = starts.copy()
    for _ in range(max_steps):
        active = np.nonzero(counts < size)[0]
        if len(active) == 0:
            break
        draws = rng.random(len(active))
        restart = draws < restart_prob
        current[active[restart]] = starts[active[restart]]
        moving = active[~restart]
        if len(moving) == 0:
            continue
        degrees = index.degrees[current[moving]]
        stuck = degrees == 0
        current[moving[stuck]] = starts[moving[stuck]]
        live = moving[~stuck]
        if len(live) == 0:
            continue
        steps = (rng.random(len(live)) * degrees[~stuck]).astype(np.int64)
        current[live] = index.indices[index.indptr[current[live]] + steps]
        novel = ~(visited[live] == current[live][:, None]).any(axis=1)
        grown = live[novel]
        visited[grown, counts[grown]] = current[grown]
        counts[grown] += 1
    return np.where(visited < 0, starts[:, None], visited)
