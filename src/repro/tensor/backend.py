"""Compute backends for the inference forward pass.

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

There is no process-wide switch: every scoring call takes ``backend=``
(``None`` is the numpy reference).  Backend *names* are what crosses
process boundaries: the sharded engine ships ``backend.name`` to its
workers, which re-resolve locally.
"""

from __future__ import annotations

from typing import Dict, Union


class TensorBackend:
    """Reference backend: the model's own float64 autograd forward.

    Subclasses override :meth:`forward_batch` with faster
    inference-only implementations; they must return the same
    :class:`repro.core.model.BatchScores` structure (scores within
    tolerance, index/owner arrays identical).
    """

    #: What the sharded engine ships to workers.
    name = "numpy"

    def forward_batch(self, model, gviews, hviews, mask_seed=None):
        """Score one prepared batch (see ``Bourne.forward_batch``)."""
        return model.forward_batch(gviews, hviews, mask_seed=mask_seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


BackendSpec = Union[None, str, TensorBackend]

#: Names :func:`resolve_backend` accepts (the CLI's ``--backend`` choices).
BACKENDS = ("fused", "numpy")

_INSTANCES: Dict[str, TensorBackend] = {}


def _build(name: str) -> TensorBackend:
    if name == "numpy":
        return TensorBackend()
    # Imported on first use: nn.fused imports core.model.
    from ..nn.fused import FusedBackend

    return FusedBackend()


def resolve_backend(spec: BackendSpec = None) -> TensorBackend:
    """Resolve a per-call backend argument.

    ``None`` is the numpy reference; a name from :data:`BACKENDS`
    resolves to one instance per process, built on first use; an
    instance passes through.
    """
    if isinstance(spec, TensorBackend):
        return spec
    name = "numpy" if spec is None else spec
    if name not in BACKENDS:
        raise ValueError(
            f"unknown tensor backend {name!r}; available: {', '.join(BACKENDS)}"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        # Two threads resolving a name first may both build; keep one.
        instance = _INSTANCES.setdefault(name, _build(name))
    return instance
