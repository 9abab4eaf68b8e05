"""Continual-learning lifecycle: drift-triggered retraining, one
verdict on whether a model is fit to serve, zero-downtime publish, and
automatic rollback.

The controller (:class:`LifecycleController`) watches a live
:class:`~repro.serving.store.GraphStore`'s drift/churn counters,
retrains in a background process on snapshots, and judges each model
with one verdict (:func:`judge_scores`: finite, not collapsed, probe
AUC and an optional score-shift limit against the last known-good
model).  It publishes accepted candidates to the
:class:`~repro.serving.registry.ModelRegistry` (the gateway watcher
hot-swaps them) and, when a served version it did not produce fails
the same verdict under the guardrail thresholds, rolls back.

A rollback re-publishes the known-good version as a new registry
version instead of deleting the bad one, so registry history stays
append-only: the manifest records what was restored and why, and an
audit reads the whole story from ``registry.describe(name)``.
"""

from .controller import LifecycleController
from .policy import (
    LifecycleSettings,
    TriggerPolicy,
    TriggerState,
    load_settings,
    parse_settings,
)
from .validate import Verdict, judge_scores, probe_nodes, probe_scores

__all__ = [
    "LifecycleController",
    "LifecycleSettings",
    "TriggerPolicy",
    "TriggerState",
    "load_settings",
    "parse_settings",
    "Verdict",
    "judge_scores",
    "probe_nodes",
    "probe_scores",
]
