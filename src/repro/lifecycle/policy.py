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
plus retrain/verdict knobs, parsed strictly — unknown keys raise, so a
typo cannot silently disable a threshold, and so do values of the wrong
type or range, so a bad value fails at load and not in the retrain
worker.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional

from ..utils.validation import check_int, check_number


def _check(value, name: str, minimum=0, *, integer: bool = False) -> None:
    """Reject ``value`` unless it is a number ``>= minimum``: a JSON
    integer when ``integer`` (:func:`check_int`), else any number
    (:func:`check_number`).  NaN fails the bound."""
    if integer:
        check_int(value, name)
    else:
        check_number(value, name)
    if not value >= minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


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
        if self.drift_threshold is not None:
            _check(self.drift_threshold, "drift_threshold")
        if self.mutation_threshold is not None:
            _check(self.mutation_threshold, "mutation_threshold", integer=True)
        _check(self.debounce_checks, "debounce_checks", 1, integer=True)
        _check(self.min_interval_s, "min_interval_s")
        _check(self.cooldown_s, "cooldown_s")

    def evaluate(
        self, drift: float, mutations: int, now: float, state: "TriggerState"
    ) -> Optional[str]:
        """One policy check; returns a trigger reason or ``None``.

        Mutates ``state``: over-threshold checks advance the debounce
        counter, an under-threshold check resets it, and a fire stamps
        ``last_trigger`` and resets the counter.
        """
        over = []
        if self.drift_threshold is not None and drift >= self.drift_threshold:
            over.append(f"drift {drift:.4g} >= {self.drift_threshold:.4g}")
        if self.mutation_threshold is not None and mutations >= self.mutation_threshold:
            over.append(f"mutations {mutations} >= {self.mutation_threshold}")
        if not over:
            state.consecutive_over = 0
            return None
        state.consecutive_over += 1
        if state.consecutive_over < self.debounce_checks:
            return None
        if now < state.cooldown_until:
            return None
        if (
            state.last_trigger is not None
            and now - state.last_trigger < self.min_interval_s
        ):
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
    retrain splits each step into ``4 × workers`` shards).  ``probe_*``
    and ``min_score_std`` parameterize the one verdict
    (:mod:`repro.lifecycle.validate`); candidates are judged with
    ``auc_margin`` and served versions with ``guard_auc_drop`` /
    ``guard_score_shift``.  Counts are JSON integers; thresholds,
    margins and intervals are numbers ``>= 0``.
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
        _check(self.check_interval_s, "check_interval_s")
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be > 0")
        for name in ("epochs", "workers", "grain"):
            value = getattr(self, name)
            if value is not None:
                _check(value, name, 1, integer=True)
        _check(self.probe_size, "probe_size", 2, integer=True)
        _check(self.probe_seed, "probe_seed", integer=True)
        for name in ("auc_margin", "min_score_std", "guard_auc_drop"):
            _check(getattr(self, name), name)
        if self.guard_score_shift is not None:
            _check(self.guard_score_shift, "guard_score_shift")


_POLICY_KEYS = {f.name for f in dataclasses.fields(TriggerPolicy)}
_SETTINGS_KEYS = {
    f.name for f in dataclasses.fields(LifecycleSettings) if f.name != "policy"
}


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
                + ", ".join(known)
            )
    return LifecycleSettings(policy=TriggerPolicy(**policy_kwargs), **settings_kwargs)


def load_settings(path: str) -> LifecycleSettings:
    """Parse a ``serve --autotrain`` policy file.

    A file that is not JSON or holds a bad setting raises ``ValueError``
    naming the file; a missing one raises ``OSError``.
    """
    with open(path) as handle:
        text = handle.read()
    try:
        return parse_settings(json.loads(text))
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error
