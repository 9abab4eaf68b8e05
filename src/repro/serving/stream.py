"""Event-stream driver: replay a mutating workload, emit rolling scores.

Three records are the one vocabulary that mutates the served graph,
and :func:`apply_event` applies them to the store.  The gateway builds
them from its write requests, with no ``label`` or ``attach_to``:
``add_node`` → :class:`NodeArrived`, ``add_edge`` →
:class:`EdgeArrived`, ``update_features`` → :class:`FeatureDrift`.  A
:class:`StreamDriver` replays a sequence of them against a
:class:`~repro.serving.service.ScoringService`, refreshing the score
table incrementally every ``refresh_every`` events.  Each refresh yields
a :class:`StreamSnapshot` with the rolling scores and how much work the
dirty-region machinery actually did, which gives the eval layer a
streaming-detection scenario on top of the batch reproduction.

:func:`synthetic_event_stream` fabricates a labelled workload from an
existing graph: benign arrivals/drifts stay on the local feature
manifold, anomalous ones plant off-manifold features or long-range
edges, mirroring the paper's contextual/structural injection protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from .service import ScoringService


@dataclass(frozen=True)
class NodeArrived:
    """A new node joins the graph (optionally pre-wired to neighbours)."""

    features: np.ndarray
    attach_to: tuple = ()        # existing node ids to connect on arrival
    label: int = 0


@dataclass(frozen=True)
class EdgeArrived:
    """A new edge between existing nodes."""

    u: int
    v: int
    label: int = 0


@dataclass(frozen=True)
class FeatureDrift:
    """An existing node's attributes change in place (the store measures
    the drift into ``GraphStore.drift_total``)."""

    node: int
    features: np.ndarray
    label: Optional[int] = None  # None keeps the node's current label


Event = Union[NodeArrived, EdgeArrived, FeatureDrift]


def apply_event(store, event: Event) -> dict:
    """Apply one mutation record to a
    :class:`~repro.serving.store.GraphStore`; returns the response
    fields: ``node`` and ``version``, ``added`` and ``version``, or
    ``version``."""
    if isinstance(event, NodeArrived):
        (node,) = store.add_nodes(
            np.asarray(event.features, dtype=np.float64).reshape(1, -1),
            labels=[event.label])
        if event.attach_to:
            edges = np.asarray([[node, int(other)]
                                for other in event.attach_to])
            store.add_edges(edges, labels=[event.label] * len(edges))
        return {"node": int(node), "version": store.version}
    if isinstance(event, EdgeArrived):
        added = store.add_edge(event.u, event.v, label=event.label)
        return {"added": bool(added), "version": store.version}
    if isinstance(event, FeatureDrift):
        store.update_features([event.node],
                              np.asarray(event.features).reshape(1, -1))
        if event.label is not None:
            store.set_node_label(event.node, event.label)
        return {"version": store.version}
    raise TypeError(f"unknown event type {type(event).__name__}")


@dataclass
class StreamSnapshot:
    """Rolling state after a refresh during replay."""

    event_index: int             # events applied so far
    num_nodes: int
    num_edges: int
    rescored: int                # nodes recomputed by this refresh
    scores: np.ndarray           # (num_nodes,) current score table
    top_nodes: np.ndarray        # highest-scoring node ids, descending
    pending_edges: int = 0       # overlay size (edges since last compaction)
    compactions: int = 0         # compactions performed so far
    drift_total: float = 0.0     # cumulative feature-drift L2 magnitude
    mutations: int = 0           # cumulative churn (nodes+edges+updates)

    @property
    def rescored_fraction(self) -> float:
        return self.rescored / max(1, self.num_nodes)


class StreamDriver:
    """Apply events to a service's store and emit rolling scores."""

    def __init__(self, service: ScoringService, top_k: int = 10):
        self.service = service
        self.top_k = top_k
        self.events_applied = 0

    def apply(self, event: Event) -> None:
        """Mutate the store according to one event."""
        apply_event(self.service.store, event)
        self.events_applied += 1

    def snapshot(self) -> StreamSnapshot:
        """Refresh incrementally and package the rolling state."""
        result = self.service.refresh()
        store = self.service.store
        order = np.argsort(result.scores)[::-1]
        return StreamSnapshot(
            event_index=self.events_applied,
            num_nodes=store.num_nodes,
            num_edges=store.num_edges,
            rescored=result.num_rescored,
            scores=result.scores,
            top_nodes=order[: self.top_k].astype(np.int64),
            pending_edges=int(store.pending_edges),
            compactions=int(store.compactions),
            drift_total=float(store.drift_total),
            mutations=int(store.mutations),
        )

    def replay(self, events: Sequence[Event],
               refresh_every: int = 1) -> Iterator[StreamSnapshot]:
        """Apply ``events``, yielding a snapshot every ``refresh_every``
        events (and once more after the final event)."""
        if refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        pending = 0
        for event in events:
            self.apply(event)
            pending += 1
            if pending == refresh_every:
                yield self.snapshot()
                pending = 0
        if pending:
            yield self.snapshot()


def synthetic_event_stream(
    graph,
    num_events: int,
    rng: np.random.Generator,
    anomaly_prob: float = 0.2,
) -> List[Event]:
    """Fabricate a labelled event workload from an existing graph.

    Event mix: ~50% edge arrivals, ~30% feature drifts, ~20% node
    arrivals.  With probability ``anomaly_prob`` an event is anomalous:
    drifts plant sign-flipped (off-manifold) features, edge arrivals
    connect the most feature-distant pair found in a small candidate
    sample — the streaming analogue of the paper's contextual and
    structural injections.
    """
    features = np.asarray(graph.features)
    n = features.shape[0]
    if n < 4:
        raise ValueError("need at least 4 seed nodes to synthesize a stream")
    events: List[Event] = []
    for _ in range(num_events):
        anomalous = bool(rng.random() < anomaly_prob)
        kind = rng.random()
        if kind < 0.5:
            if anomalous:
                pool = rng.choice(n, size=min(32, n), replace=False)
                deltas = features[pool[:, None]] - features[pool[None, :]]
                distance = (deltas ** 2).sum(axis=-1)
                u, v = np.unravel_index(int(distance.argmax()), distance.shape)
                u, v = int(pool[u]), int(pool[v])
            else:
                u = int(rng.integers(0, n))
                v = int(rng.integers(0, n))
            if u != v:
                events.append(EdgeArrived(u, v, label=int(anomalous)))
                continue
            kind = 0.6  # fall through to a drift instead
        if kind < 0.8:
            node = int(rng.integers(0, n))
            base = features[node]
            if anomalous:
                drifted = -base + rng.normal(0.0, 0.1, size=base.shape)
            else:
                drifted = base + rng.normal(0.0, 0.05, size=base.shape)
            events.append(FeatureDrift(node, drifted, label=int(anomalous)))
        else:
            template = int(rng.integers(0, n))
            base = features[template]
            if anomalous:
                arrived = -base + rng.normal(0.0, 0.1, size=base.shape)
            else:
                arrived = base + rng.normal(0.0, 0.05, size=base.shape)
            attach = tuple(int(x) for x in
                           rng.choice(n, size=min(2, n), replace=False))
            events.append(NodeArrived(arrived, attach_to=attach,
                                      label=int(anomalous)))
    return events
