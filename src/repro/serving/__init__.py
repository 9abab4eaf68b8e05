"""Online serving: mutable graph store, scoring service, model registry,
and event-stream replay on top of trained BOURNE checkpoints."""

from .registry import ModelRegistry
from .service import RefreshResult, ScoringService
from .store import GraphStore
from .stream import (
    EdgeArrived,
    Event,
    FeatureDrift,
    NodeArrived,
    StreamDriver,
    StreamSnapshot,
    synthetic_event_stream,
)

__all__ = [
    "GraphStore",
    "ScoringService",
    "RefreshResult",
    "ModelRegistry",
    "NodeArrived",
    "EdgeArrived",
    "FeatureDrift",
    "Event",
    "StreamDriver",
    "StreamSnapshot",
    "synthetic_event_stream",
]
