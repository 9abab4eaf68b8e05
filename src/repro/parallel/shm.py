"""Shared-memory graph and model exports for multi-process engines.

Worker processes need three things to sample, score, or compute
gradients for a shard: the node feature matrix, the
:class:`~repro.graph.index.GraphIndex` arrays (CSR adjacency + sorted
edge keys), and the model parameters.  Re-pickling those per worker
would copy the whole graph ``workers`` times and re-building the index
would redo the edge-key sort, so instead the parent places every array
into POSIX shared memory once and ships only a tiny picklable spec;
workers attach the same pages and adopt the pre-sorted arrays via
:meth:`GraphIndex.from_arrays`.

Model parameters get the same treatment through
:class:`SharedModelExport`, with one twist for training: the parent
*republishes* the whole model into the same segments before every
optimizer step (:meth:`SharedModelExport.publish`) and stamps tasks
with a version counter, so workers refresh their private copies with
one ``memcpy`` per parameter instead of a per-step pickle round trip.
Writes only happen while no tasks are outstanding, so no
synchronization beyond the version number is needed.

Lifecycle: the parent owns the segments (:class:`SharedGraphExport` /
:class:`SharedModelExport`), workers attach via
:func:`attach_shared_graph` / :func:`attach_shared_model` and keep the
blocks referenced for the life of the pool, and the parent unlinks
everything after the pool shuts down.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graph.delta import OverlayIndex
from ..graph.index import GraphIndex


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable handle for one array living in a shared-memory block.

    ``shm_name`` is ``None`` for empty arrays, which are rebuilt
    locally (zero-size shared-memory blocks are not portable).
    """

    shm_name: Optional[str]
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedGraphSpec:
    """Everything a worker needs to reattach the parent's graph.

    ``base_num_nodes`` is set when the export captured a delta-overlay
    index mid-stream: the base :class:`GraphIndex` arrays are keyed to
    the *base* node count (edge keys use its width), while
    ``num_nodes`` is the live count the overlay extends to.
    """

    num_nodes: int
    arrays: Dict[str, SharedArraySpec]
    base_num_nodes: Optional[int] = None


class SharedGraph:
    """Read-only graph view over attached shared-memory arrays.

    Implements the sampler protocol (``features``, ``num_nodes``,
    ``index``) that :func:`repro.graph.sampling.sample_enclosing_subgraphs`
    and :meth:`repro.core.model.Bourne.prepare_batch` consume; the
    underlying buffers stay alive for as long as this object is
    referenced.
    """

    def __init__(
        self,
        features: np.ndarray,
        index: GraphIndex,
        blocks: List[shared_memory.SharedMemory],
    ):
        self.features = features
        self.index = index
        self._blocks = blocks

    @property
    def num_nodes(self) -> int:
        return self.index.num_nodes

    @property
    def num_edges(self) -> int:
        return self.index.num_edges

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def close(self) -> None:
        """Detach the shared-memory blocks (worker-side cleanup)."""
        self.features = None
        self.index = None
        while self._blocks:
            block = self._blocks.pop()
            try:
                block.close()
            except OSError:
                pass


def _export_array(
    value: np.ndarray,
    blocks: List[shared_memory.SharedMemory],
) -> SharedArraySpec:
    value = np.ascontiguousarray(value)
    if value.size == 0:
        return SharedArraySpec(None, value.shape, value.dtype.str)
    block = shared_memory.SharedMemory(create=True, size=value.nbytes)
    blocks.append(block)
    view = np.ndarray(value.shape, dtype=value.dtype, buffer=block.buf)
    view[...] = value
    return SharedArraySpec(block.name, value.shape, value.dtype.str)


def _attach_block(name: str) -> shared_memory.SharedMemory:
    # Attaching re-registers the segment with the resource tracker the
    # pool shares with the parent; that is idempotent (the tracker keeps
    # a set), and only the parent ever unlinks, so ownership stays
    # single despite CPython < 3.13 tracking every attach.
    return shared_memory.SharedMemory(name=name)


def _attach_array(
    spec: SharedArraySpec,
    blocks: List[shared_memory.SharedMemory],
) -> np.ndarray:
    if spec.shm_name is None:
        return np.zeros(spec.shape, dtype=np.dtype(spec.dtype))
    block = _attach_block(spec.shm_name)
    blocks.append(block)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=block.buf)
    view.flags.writeable = False
    return view


class SharedGraphExport:
    """Parent-side owner of a graph placed into shared memory."""

    def __init__(
        self,
        spec: SharedGraphSpec,
        blocks: List[shared_memory.SharedMemory],
    ):
        self.spec = spec
        self._blocks = blocks

    @classmethod
    def create(cls, features: np.ndarray, index) -> "SharedGraphExport":
        """Export ``features`` plus a built index.

        A plain :class:`GraphIndex` ships its arrays as-is (already
        sorted), so workers reconstruct it with zero computation.  An
        :class:`~repro.graph.delta.OverlayIndex` ships its *base*
        arrays plus the raw overlay edge log — no compaction and no
        fold is forced on the serving path just to shard a refresh;
        each worker rebuilds the same cheap overlay wrapper.
        """
        blocks: List[shared_memory.SharedMemory] = []
        overlay = getattr(index, "overlay", None)
        base = index.base if overlay is not None else index
        arrays = base.to_arrays()
        try:
            specs = {"features": _export_array(features, blocks)}
            for name in ("indptr", "indices", "edge_keys", "edge_key_ids"):
                specs[name] = _export_array(arrays[name], blocks)
            if overlay is not None:
                specs["overlay_edges"] = _export_array(overlay.edges, blocks)
        except Exception:
            for block in blocks:
                block.close()
                block.unlink()
            raise
        if overlay is not None:
            spec = SharedGraphSpec(
                index.num_nodes, specs, base_num_nodes=base.num_nodes
            )
        else:
            spec = SharedGraphSpec(index.num_nodes, specs)
        return cls(spec, blocks)

    def publish_features(self, features: np.ndarray) -> bool:
        """Republish feature values into the existing segment in place.

        The replica pools use this for ``update_features`` mutations:
        workers stay attached to the same pages (same spec, same
        token), so a feature-only write needs one ``memcpy`` instead of
        a full graph re-export.  Only valid while the owner has
        quiesced every reader (the pool's single-writer gate guarantees
        it).  Returns ``False`` when the shape or dtype changed — the
        caller must fall back to a full rebind (``add_node`` grows the
        matrix, for example).
        """
        spec = self.spec.arrays.get("features")
        if spec is None or spec.shm_name is None:
            return False
        features = np.ascontiguousarray(features)
        if (
            tuple(features.shape) != tuple(spec.shape)
            or features.dtype.str != spec.dtype
        ):
            return False
        for block in self._blocks:
            if block.name == spec.shm_name:
                view = np.ndarray(
                    spec.shape, dtype=np.dtype(spec.dtype), buffer=block.buf
                )
                view[...] = features
                return True
        return False

    def destroy(self) -> None:
        """Close and unlink every segment (idempotent)."""
        while self._blocks:
            block = self._blocks.pop()
            try:
                block.close()
                block.unlink()
            except OSError:
                pass

    def __enter__(self) -> "SharedGraphExport":
        return self

    def __exit__(self, *_exc) -> None:
        self.destroy()


def attach_shared_graph(spec: SharedGraphSpec) -> SharedGraph:
    """Worker-side reconstruction of the parent's graph (no copies)."""
    blocks: List[shared_memory.SharedMemory] = []
    try:
        features = _attach_array(spec.arrays["features"], blocks)
        index = GraphIndex.from_arrays(
            spec.base_num_nodes if spec.base_num_nodes is not None else spec.num_nodes,
            _attach_array(spec.arrays["indptr"], blocks),
            _attach_array(spec.arrays["indices"], blocks),
            _attach_array(spec.arrays["edge_keys"], blocks),
            _attach_array(spec.arrays["edge_key_ids"], blocks),
        )
        if "overlay_edges" in spec.arrays:
            index = OverlayIndex(
                index,
                _attach_array(spec.arrays["overlay_edges"], blocks),
                spec.num_nodes,
            )
    except Exception:
        for block in blocks:
            block.close()
        raise
    return SharedGraph(features, index, blocks)


# ----------------------------------------------------------------------
# Model parameters
# ----------------------------------------------------------------------
def _named_model_parameters(model):
    """``(qualified name, Parameter)`` pairs of both networks.

    The ``online.`` / ``target.`` prefixes keep the two branches'
    identically-named parameters apart in one flat dict.
    """
    for prefix, module in (("online.", model.online), ("target.", model.target)):
        for name, param in module.named_parameters():
            yield prefix + name, param


@dataclass(frozen=True)
class SharedModelSpec:
    """Everything a worker needs to rebuild and refresh the model.

    ``config`` (a plain dataclass) and ``num_features`` travel by
    pickle once per task — they are tiny; the parameter *values* live
    in the shared-memory ``arrays``.
    """

    num_features: int
    config: object
    arrays: Dict[str, SharedArraySpec]


class SharedModelExport:
    """Parent-side owner of model parameters placed into shared memory.

    Unlike the immutable graph export, the parameter segments are
    rewritten in place: :meth:`publish` copies the model's current
    values into the same buffers (the trainer does so before every
    step's task wave).  Callers must only publish while no worker tasks
    are outstanding (the engines guarantee this — a step's tasks are
    all collected before the next Adam update).
    """

    def __init__(
        self,
        spec: SharedModelSpec,
        blocks: List[shared_memory.SharedMemory],
        views: Dict[str, np.ndarray],
    ):
        self.spec = spec
        self._blocks = blocks
        self._views = views

    @classmethod
    def create(cls, model) -> "SharedModelExport":
        """Export the parameters of a :class:`repro.core.Bourne`."""
        blocks: List[shared_memory.SharedMemory] = []
        views: Dict[str, np.ndarray] = {}
        specs: Dict[str, SharedArraySpec] = {}
        try:
            for name, param in _named_model_parameters(model):
                value = np.ascontiguousarray(param.data)
                specs[name] = _export_array(value, blocks)
                if specs[name].shm_name is not None:
                    views[name] = np.ndarray(
                        value.shape, dtype=value.dtype, buffer=blocks[-1].buf
                    )
        except Exception:
            for block in blocks:
                block.close()
                block.unlink()
            raise
        spec = SharedModelSpec(model.num_features, model.config, specs)
        return cls(spec, blocks, views)

    def publish(self, model) -> None:
        """Copy every current parameter value into the segments."""
        for name, param in _named_model_parameters(model):
            view = self._views.get(name)
            if view is not None:
                view[...] = param.data

    def destroy(self) -> None:
        """Close and unlink every segment (idempotent)."""
        self._views = {}
        while self._blocks:
            block = self._blocks.pop()
            try:
                block.close()
                block.unlink()
            except OSError:
                pass


class AttachedModel:
    """Worker-side model bound to a :class:`SharedModelExport`.

    :meth:`load` copies every parameter from the shared segments into
    the private model whenever the parent's version counter moved;
    versions only change between task waves, so a plain comparison
    suffices.
    """

    def __init__(
        self,
        model,
        views: Dict[str, np.ndarray],
        blocks: List[shared_memory.SharedMemory],
    ):
        self.model = model
        self._views = views
        self._blocks = blocks
        self._version: Optional[int] = None

    def load(self, version: int) -> "AttachedModel":
        if version != self._version:
            params = dict(_named_model_parameters(self.model))
            for name, view in self._views.items():
                params[name].data[...] = view
            self._version = version
        return self

    def close(self) -> None:
        self.model = None
        self._views = {}
        while self._blocks:
            block = self._blocks.pop()
            try:
                block.close()
            except OSError:
                pass


def attach_shared_model(spec: SharedModelSpec) -> AttachedModel:
    """Worker-side reconstruction of the parent's model.

    Builds a fresh :class:`~repro.core.Bourne` from the pickled config
    (cheap — the graphs involved are tiny parameter tensors) and maps
    the shared parameter segments; :meth:`AttachedModel.load` then
    pulls in the parent's current values.
    """
    from ..core.model import Bourne

    model = Bourne(spec.num_features, spec.config)
    blocks: List[shared_memory.SharedMemory] = []
    views: Dict[str, np.ndarray] = {}
    try:
        for name, array_spec in spec.arrays.items():
            if array_spec.shm_name is not None:
                views[name] = _attach_array(array_spec, blocks)
    except Exception:
        for block in blocks:
            block.close()
        raise
    return AttachedModel(model, views, blocks)
