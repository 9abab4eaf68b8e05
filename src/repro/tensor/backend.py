"""Pluggable compute backends for the inference forward pass.

The forward hot path of every scoring surface — offline
:func:`repro.core.score_graph`, the sharded engine, and the serving
layer — funnels through ONE call site:
``backend.forward_batch(model, gviews, hviews, ...)`` inside
:func:`repro.core.scoring.score_target_span`.  This module is the seam
that call site resolves through.

Contract
--------
* ``"numpy"`` is the **pinned reference**: it delegates to
  ``model.forward_batch`` (the float64 autograd path) untouched, so
  with the default backend every bitwise-equivalence guarantee in the
  repository holds exactly as before the seam existed.
* The ``"fused"`` backend (:mod:`repro.nn.fused`) is an
  **inference-only** float32 kernel path.  It must stay within
  ``1e-5`` relative tolerance of the reference on every score and must
  degrade gracefully: unsupported models/batches fall back to the
  reference forward.
* Training never goes through the seam — gradients only exist on the
  reference autograd path.

Backends are process-global (``set_backend``) with per-call overrides
(``backend=`` on ``score_graph`` / ``ScoringService`` /
``score_target_span``); ``use_backend`` scopes a switch to a block.
Backend *names* are what crosses process boundaries: the sharded
engine ships ``backend.name`` to its workers, which re-resolve locally.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Dict, Optional, Union


class TensorBackend:
    """Reference backend: the model's own float64 autograd forward.

    Subclasses override :meth:`forward_batch` with faster
    inference-only implementations; they must return the same
    :class:`repro.core.model.BatchScores` structure (scores within
    tolerance, index/owner arrays identical).
    """

    #: Registry key; also what the sharded engine ships to workers.
    name = "numpy"

    def forward_batch(self, model, gviews, hviews, mask_seed=None):
        """Score one prepared batch (see ``Bourne.forward_batch``)."""
        return model.forward_batch(gviews, hviews, mask_seed=mask_seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


BackendSpec = Union[None, str, TensorBackend]

_REGISTRY: Dict[str, Callable[[], TensorBackend]] = {}
_INSTANCES: Dict[str, TensorBackend] = {}
_LOCK = threading.Lock()
_current: Optional[TensorBackend] = None


def register_backend(name: str, factory: Callable[[], TensorBackend]) -> None:
    """Register a backend ``factory`` under ``name``.

    Factories run lazily on first resolution (keeping optional heavy
    imports off the module import path) and the instance is cached for
    the life of the process.  Re-registering a name replaces the
    factory and drops any cached instance.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    with _LOCK:
        _REGISTRY[name] = factory
        _INSTANCES.pop(name, None)


def available_backends() -> tuple:
    """Registered backend names, sorted."""
    with _LOCK:
        return tuple(sorted(_REGISTRY))


def _instantiate(name: str) -> TensorBackend:
    with _LOCK:
        instance = _INSTANCES.get(name)
        if instance is not None:
            return instance
        factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown tensor backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    instance = factory()
    with _LOCK:
        # A concurrent resolver may have won the race; keep the first.
        existing = _INSTANCES.get(name)
        if existing is not None:
            return existing
        _INSTANCES[name] = instance
    return instance


def get_backend() -> TensorBackend:
    """The process-global backend (the numpy reference by default)."""
    global _current
    if _current is None:
        _current = _instantiate("numpy")
    return _current


def set_backend(spec: BackendSpec) -> TensorBackend:
    """Set the process-global backend; returns the active instance.

    ``spec`` is a registered name, a :class:`TensorBackend` instance,
    or ``None`` to restore the numpy reference.
    """
    global _current
    if spec is None:
        spec = "numpy"
    backend = spec if isinstance(spec, TensorBackend) else _instantiate(spec)
    _current = backend
    return backend


def resolve_backend(spec: BackendSpec = None) -> TensorBackend:
    """Resolve a per-call backend override.

    ``None`` means "whatever is globally active"; a string resolves
    through the registry; an instance passes through.
    """
    if spec is None:
        return get_backend()
    if isinstance(spec, TensorBackend):
        return spec
    return _instantiate(spec)


@contextlib.contextmanager
def use_backend(spec: BackendSpec):
    """Scope a global backend switch to a ``with`` block."""
    previous = get_backend()
    backend = set_backend(spec)
    try:
        yield backend
    finally:
        set_backend(previous)


def _make_fused() -> TensorBackend:
    from ..nn.fused import FusedBackend

    return FusedBackend()


register_backend("numpy", TensorBackend)
register_backend("fused", _make_fused)
