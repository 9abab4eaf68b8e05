"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import itertools
import os
import secrets
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.graph import Graph


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def no_shm_leak():
    """Context manager asserting its body leaves no POSIX shared-memory
    segment behind (the segments live in ``/dev/shm``).

    While the body runs, every unnamed segment created in this process,
    or in a worker forked from it meanwhile, gets a name with a prefix
    unique to this check (``SharedMemory(create=True)`` draws its name
    from ``shared_memory._make_filename``).  Only names with that prefix
    count as leaks, so segments that other processes create at the same
    time cannot fail the check."""
    if not sys.platform.startswith("linux"):
        pytest.skip("lists shared-memory segments through /dev/shm")
    checks = itertools.count()

    @contextlib.contextmanager
    def check():
        prefix = f"psm_check{os.getpid()}_{next(checks)}_"
        make_filename = shared_memory._make_filename
        shared_memory._make_filename = (
            lambda: "/" + prefix + secrets.token_hex(8))
        try:
            yield
        finally:
            shared_memory._make_filename = make_filename
        leaked = [name for name in os.listdir("/dev/shm")
                  if name.startswith(prefix)]
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"

    return check


@pytest.fixture
def tiny_graph(rng):
    """A 8-node graph with two triangles and a bridge."""
    edges = np.array([
        [0, 1], [1, 2], [0, 2],          # triangle A
        [3, 4], [4, 5], [3, 5],          # triangle B
        [2, 3],                          # bridge
        [5, 6], [6, 7],                  # tail
    ])
    features = rng.normal(size=(8, 6))
    return Graph(features, edges, name="tiny")


def make_planted_graph(seed: int = 0, num_nodes: int = 120,
                       num_anomalies: int = 12):
    """Two feature communities + planted node/edge anomalies.

    Nodes 0..n/2 draw features around +1, the rest around −1; edges are
    intra-community.  Anomalous nodes get features from the opposite
    community; anomalous edges connect the two communities.  Both anomaly
    types are strongly detectable, making integration tests stable.
    """
    rng = np.random.default_rng(seed)
    half = num_nodes // 2
    features = np.concatenate([
        rng.normal(+1.0, 0.3, size=(half, 8)),
        rng.normal(-1.0, 0.3, size=(num_nodes - half, 8)),
    ])
    edges = set()
    for communities in (range(half), range(half, num_nodes)):
        nodes = list(communities)
        for i in range(len(nodes) - 1):
            edges.add((nodes[i], nodes[i + 1]))
        for _ in range(len(nodes) * 2):
            u, v = rng.choice(nodes, size=2, replace=False)
            edges.add((min(u, v), max(u, v)))
    edges = np.array(sorted(edges))
    node_labels = np.zeros(num_nodes, dtype=np.int64)
    anomalous = rng.choice(num_nodes, size=num_anomalies, replace=False)
    node_labels[anomalous] = 1
    for node in anomalous:
        features[node] = rng.normal(+1.0 if node >= half else -1.0, 0.3, size=8)

    graph = Graph(features, edges, node_labels=node_labels, name="planted")
    # Anomalous edges: cross-community pairs between *normal* nodes, so
    # their endpoint features visibly disagree (feature-swapped nodes
    # would camouflage the edge).
    normal = [n for n in range(num_nodes) if node_labels[n] == 0]
    extra = []
    for _ in range(num_anomalies):
        u = int(rng.choice([n for n in normal if n < half]))
        v = int(rng.choice([n for n in normal if n >= half]))
        if not graph.has_edge(u, v):
            extra.append((min(u, v), max(u, v)))
    return graph.with_updates(
        extra_edges=np.array(extra, dtype=np.int64).reshape(-1, 2),
        edge_labels_for_new=1,
    )


@pytest.fixture
def planted_graph():
    return make_planted_graph()
