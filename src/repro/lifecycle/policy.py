"""Trigger policies for the continual-learning controller.

A :class:`TriggerPolicy` decides *when* accumulated drift and mutation
churn justify a retrain.  Evaluation is pure: the controller feeds it
deltas-since-baseline plus a monotonic ``now`` and a mutable
:class:`TriggerState`, and gets back either ``None`` or a
human-readable trigger reason.  Debounce, cooldown, and min-interval
are all expressed against that state, so policies are trivially
unit-testable with a fake clock.

:class:`LifecycleSettings` is the JSON-file surface of the whole
controller (``serve --autotrain policy.json``): the trigger policy
plus retrain/validation/guardrail knobs, parsed strictly — unknown
keys raise, so a typo cannot silently disable a threshold.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class TriggerPolicy:
    """When to retrain, in terms of drift/churn accumulated since the
    last trigger (or controller start).

    Either threshold may be ``None`` to ignore that signal; a policy
    with both ``None`` never self-triggers (manual/API triggers still
    work).  ``debounce_checks`` requires that many *consecutive*
    over-threshold evaluations before firing; ``min_interval_s`` is the
    floor between two fires; ``cooldown_s`` additionally blocks firing
    for that long after a retrain cycle *completes* (accepted or not).
    """

    drift_threshold: Optional[float] = 5.0
    mutation_threshold: Optional[int] = 500
    debounce_checks: int = 1
    min_interval_s: float = 0.0
    cooldown_s: float = 0.0

    def __post_init__(self):
        if self.drift_threshold is not None and self.drift_threshold < 0:
            raise ValueError("drift_threshold must be >= 0")
        if self.mutation_threshold is not None and self.mutation_threshold < 0:
            raise ValueError("mutation_threshold must be >= 0")
        if self.debounce_checks < 1:
            raise ValueError("debounce_checks must be >= 1")
        if self.min_interval_s < 0 or self.cooldown_s < 0:
            raise ValueError("intervals must be >= 0")

    def evaluate(self, drift: float, mutations: int, now: float,
                 state: "TriggerState") -> Optional[str]:
        """One policy check; returns a trigger reason or ``None``.

        Mutates ``state``: over-threshold checks advance the debounce
        counter, an under-threshold check resets it, and a fire stamps
        ``last_trigger`` and resets the counter.
        """
        over = []
        if (self.drift_threshold is not None
                and drift >= self.drift_threshold):
            over.append(f"drift {drift:.4g} >= {self.drift_threshold:.4g}")
        if (self.mutation_threshold is not None
                and mutations >= self.mutation_threshold):
            over.append(f"mutations {mutations} >= {self.mutation_threshold}")
        if not over:
            state.consecutive_over = 0
            return None
        state.consecutive_over += 1
        if state.consecutive_over < self.debounce_checks:
            return None
        if now < state.cooldown_until:
            return None
        if (state.last_trigger is not None
                and now - state.last_trigger < self.min_interval_s):
            return None
        state.consecutive_over = 0
        state.last_trigger = now
        return "; ".join(over)

    def describe(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class TriggerState:
    """Mutable evaluation state threaded through :meth:`evaluate`."""

    consecutive_over: int = 0
    last_trigger: Optional[float] = None
    cooldown_until: float = 0.0


@dataclass(frozen=True)
class LifecycleSettings:
    """Controller configuration as loaded from a policy JSON file.

    ``epochs``/``workers``/``grain`` size the background retrain
    (``None`` defers to the model config / serial training; a sharded
    retrain splits each step into ``4 × workers`` shards);
    ``probe_*`` and ``auc_margin``/``min_score_std`` parameterize
    candidate validation; ``guard_*`` parameterize the post-swap
    regression guardrail (see :mod:`repro.lifecycle.rollback`).
    """

    policy: TriggerPolicy = field(default_factory=TriggerPolicy)
    check_interval_s: float = 1.0
    epochs: Optional[int] = None
    workers: Optional[int] = None
    grain: Optional[int] = None
    probe_size: int = 32
    probe_seed: int = 101
    auc_margin: float = 0.05
    min_score_std: float = 1e-12
    guard_auc_drop: float = 0.15
    guard_score_shift: Optional[float] = None

    def __post_init__(self):
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be > 0")
        if self.probe_size < 2:
            raise ValueError("probe_size must be >= 2")


_POLICY_KEYS = {f.name for f in dataclasses.fields(TriggerPolicy)}
_SETTINGS_KEYS = {f.name for f in dataclasses.fields(LifecycleSettings)
                  if f.name != "policy"}


def parse_settings(payload: dict) -> LifecycleSettings:
    """Build :class:`LifecycleSettings` from a flat JSON object.

    Trigger-policy keys and controller keys share one namespace (the
    file stays a flat, greppable dict); unknown keys raise.
    """
    if not isinstance(payload, dict):
        raise ValueError("lifecycle policy must be a JSON object")
    policy_kwargs = {}
    settings_kwargs = {}
    for key, value in payload.items():
        if key in _POLICY_KEYS:
            policy_kwargs[key] = value
        elif key in _SETTINGS_KEYS:
            settings_kwargs[key] = value
        else:
            known = sorted(_POLICY_KEYS | _SETTINGS_KEYS)
            raise ValueError(
                f"unknown lifecycle policy key {key!r}; known keys: "
                + ", ".join(known))
    return LifecycleSettings(policy=TriggerPolicy(**policy_kwargs),
                             **settings_kwargs)


def load_settings(path: str) -> LifecycleSettings:
    """Parse a ``serve --autotrain`` policy file."""
    with open(path) as handle:
        return parse_settings(json.load(handle))
