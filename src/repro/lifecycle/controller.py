"""The continual-learning retraining controller.

:class:`LifecycleController` closes the loop between the streaming
store, the sharded trainer, the model registry, and the gateway's
hot-swap watcher:

* **Watch** — every :meth:`tick` reads the live store's cumulative
  feature-drift magnitude and mutation churn and evaluates them
  (as deltas since the last trigger) against a
  :class:`~repro.lifecycle.policy.TriggerPolicy`.
* **Retrain** — on trigger it snapshots the store and trains a fresh
  model on the snapshot in a **background process** (a one-worker
  :class:`~repro.parallel.engine.WorkerPool`, driven from a
  controller-owned thread), so serving latency never pays for
  training.  The retrain is
  ``train_bourne(snapshot, config)`` with the served model's config: a
  pure function of ``(snapshot, seed, epochs)``, bitwise-identical to
  the same offline call — sharding included.  The trained model comes
  back through the pool's result channel; no file is written.
* **Validate** — the candidate must pass the one verdict
  (:func:`~repro.lifecycle.validate.judge_scores`) against the last
  known-good model on the training snapshot, within ``auc_margin``,
  before anything is published; the verdict is recorded in the
  registry metadata.
* **Publish / swap** — accepted candidates go to the
  :class:`~repro.serving.registry.ModelRegistry`; the gateway's
  registry watcher performs the zero-downtime swap.
* **Guard / rollback** — when the served version changes to one the
  controller has not blessed (an operator publish, a broken offline
  training job), the same verdict with the ``guard_*`` thresholds
  probes it against the last known-good version on a fresh snapshot.
  On regression the controller re-publishes the good version as a
  **new** registry version, and the watcher swaps back through the
  same zero-downtime path a promotion uses.  Re-publishing, rather
  than deleting the bad version, keeps registry history append-only:
  the manifest records the rollback with metadata pointing at what it
  restored and why, so an audit reads the whole story from
  ``registry.describe(name)``.

Threading model: :meth:`tick` (and the manual ``force_*`` entry
points) are serialized by an internal lock, so the gateway can run
ticks in an executor thread while admin ops arrive concurrently.  A
whole completed retrain cycle is emitted as ONE ``lifecycle.cycle``
trace with ``lifecycle.trigger`` / ``lifecycle.retrain`` /
``lifecycle.validate`` / ``lifecycle.swap`` child spans, stitched from
timestamps collected across ticks.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional

import numpy as np

from ..core.trainer import train_bourne
from ..obs import trace as obs_trace
from ..parallel.engine import WorkerPool
from .policy import LifecycleSettings, TriggerPolicy, TriggerState
from .validate import Verdict, judge_scores, probe_nodes, probe_scores


def _retrain_task(payload: dict) -> dict:
    """Train a fresh model on a snapshot (runs in a background process).

    ``train_bourne`` builds a new model from the config's seed and
    every stream it consumes is counter-based, so the result is a pure
    function of ``(snapshot, config, epochs, grain)`` — workers change
    wall-clock, never a bit.  The model travels back pickled in the
    task's result.
    """
    model, history = train_bourne(
        payload["graph"],
        payload["config"],
        epochs=payload["epochs"],
        workers=payload["workers"],
        grain=payload["grain"],
    )
    return {"model": model, "losses": list(history.losses)}


class LifecycleController:
    """Drift-triggered retrain / validate / publish / rollback loop.

    Parameters
    ----------
    service:
        The live :class:`~repro.serving.service.ScoringService` whose
        store supplies the drift signal and snapshots.  Only cheap
        attribute reads happen against it; in gateway deployments the
        ``snapshot_fn``/``signal_fn`` hooks serialize store access onto
        the scoring thread.
    registry / model_name:
        Where accepted candidates (and rollback restores) are
        published.  The gateway watcher on the same pair completes the
        swap.
    policy:
        The :class:`TriggerPolicy`; default thresholds via
        :class:`LifecycleSettings`.
    epochs / workers / grain:
        Background-retrain sizing.  ``epochs=None`` uses the config's
        epoch count; ``workers`` > 1 shards the retrain (bitwise equal
        to serial).
    served_version_fn / snapshot_fn / signal_fn:
        Deployment hooks.  ``served_version_fn`` reports what the
        gateway actually serves (defaults to the registry's latest —
        correct for watcher-driven deployments); ``snapshot_fn`` /
        ``signal_fn`` read the store (defaults touch it directly,
        which standalone single-threaded use permits).
    """

    def __init__(
        self,
        service,
        registry,
        model_name: str,
        policy: Optional[TriggerPolicy] = None,
        *,
        epochs: Optional[int] = None,
        workers: Optional[int] = None,
        grain: Optional[int] = None,
        probe_size: int = 32,
        probe_seed: int = 101,
        auc_margin: float = 0.05,
        min_score_std: float = 1e-12,
        guard_auc_drop: float = 0.15,
        guard_score_shift: Optional[float] = None,
        served_version_fn: Optional[Callable[[], Optional[int]]] = None,
        snapshot_fn: Optional[Callable[[], object]] = None,
        signal_fn: Optional[Callable[[], tuple]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.service = service
        self.registry = registry
        self.model_name = model_name
        self.policy = policy if policy is not None else TriggerPolicy()
        self.train_config = service.model.config
        self.epochs = epochs
        self.workers = workers
        self.grain = grain
        self.probe_size = int(probe_size)
        self.probe_seed = int(probe_seed)
        self.auc_margin = float(auc_margin)
        self.min_score_std = float(min_score_std)
        self.guard_auc_drop = float(guard_auc_drop)
        self.guard_score_shift = guard_score_shift
        self.clock = clock
        # Scoring knobs mirrored from the service so verdict probes
        # replay the exact streams production scoring would.
        self.score_seed = int(service.seed)
        self.rounds = int(service.rounds)
        self.max_batch = int(service.max_batch)

        self.served_version_fn = served_version_fn
        self.snapshot_fn = (
            snapshot_fn if snapshot_fn is not None else service.store.snapshot
        )
        self.signal_fn = signal_fn if signal_fn is not None else self._read_signal

        self._lock = threading.RLock()
        self._trigger_state = TriggerState()
        self._paused = False
        self._closed = False
        self._retrainer: Optional[WorkerPool] = None
        self._launcher: Optional[ThreadPoolExecutor] = None
        self._future: Optional[Future] = None
        self._cycle: Optional[dict] = None
        self._fallback_model = service.model

        # Last version the controller considers healthy, and the one
        # before it (the manual-rollback restore point).
        self._good_version = self._registry_latest()
        self._previous_good: Optional[int] = None
        # Versions the guardrail need not examine: everything this
        # controller produced, examined, or rolled back to.  A served
        # version outside this set is unknown — probe it.
        self._blessed = (
            {self._good_version} if self._good_version is not None else set()
        )

        baseline_drift, baseline_mutations = self.signal_fn()
        self._baseline_drift = baseline_drift
        self._baseline_mutations = baseline_mutations

        # Counters (ints/floats only — surfaced on /metrics as gauges).
        self.triggers = 0
        self.retrains_completed = 0
        self.retrains_failed = 0
        self.validations_accepted = 0
        self.validations_rejected = 0
        self.guard_checks = 0
        self.rollbacks = 0
        self.last_verdict: Optional[dict] = None
        self.last_guard: Optional[dict] = None
        self.last_error: Optional[str] = None

    # ------------------------------------------------------------------
    # Signal plumbing
    # ------------------------------------------------------------------
    def _read_signal(self) -> tuple:
        store = self.service.store
        return float(store.drift_total), int(store.mutations)

    def _registry_latest(self) -> Optional[int]:
        if self.registry is None or self.model_name is None:
            return None
        try:
            return self.registry.latest(self.model_name)
        except KeyError:
            return None

    def served_version(self) -> Optional[int]:
        if self.served_version_fn is not None:
            return self.served_version_fn()
        return self._registry_latest()

    # ------------------------------------------------------------------
    # The tick state machine
    # ------------------------------------------------------------------
    def tick(self) -> dict:
        """One controller heartbeat; returns a status summary.

        Order matters: a finished retrain is always collected first
        (validation + publish), then — only while idle and unpaused —
        the trigger policy runs, and finally the guardrail examines
        whatever version is being served.
        """
        with self._lock:
            if self._closed:
                return self.status()
            now = self.clock()
            if self._future is not None:
                if self._future.done():
                    self._finish_cycle(now)
            elif not self._paused:
                self._maybe_trigger(now)
            self._check_guard()
            return self.status()

    def _maybe_trigger(self, now: float) -> None:
        drift, mutations = self.signal_fn()
        reason = self.policy.evaluate(
            drift - self._baseline_drift,
            mutations - self._baseline_mutations,
            now,
            self._trigger_state,
        )
        if reason is not None:
            self._launch_retrain(reason)

    def trigger(self, reason: str = "manual") -> dict:
        """Force a retrain cycle now (admin op); idempotent while one
        is already in flight."""
        with self._lock:
            if self._closed:
                raise RuntimeError("lifecycle controller is closed")
            if self._future is not None:
                return {"triggered": False, "reason": "retrain already in flight"}
            self._trigger_state.last_trigger = self.clock()
            self._launch_retrain(reason)
            return {"triggered": True, "reason": reason}

    def _launch_retrain(self, reason: str) -> None:
        t0 = time.perf_counter()
        snapshot = self.snapshot_fn()
        drift, mutations = self.signal_fn()
        self._baseline_drift = drift
        self._baseline_mutations = mutations
        payload = {
            "graph": snapshot,
            "config": self.train_config,
            "epochs": self.epochs,
            "workers": self.workers,
            "grain": self.grain,
        }
        self.start()
        # WorkerPool.run, unlike submit, reruns a retrain lost with a
        # worker that died before it: the launcher thread waits on it.
        self._future = self._launcher.submit(
            self._retrainer.run, _retrain_task, [payload], "retrain"
        )
        self.triggers += 1
        self._cycle = {
            "reason": reason,
            "snapshot": snapshot,
            "trigger_start": t0,
            "trigger_duration": time.perf_counter() - t0,
            "retrain_start": time.perf_counter(),
        }

    def _finish_cycle(self, now: float) -> None:
        cycle = self._cycle
        future = self._future
        self._future = None
        self._cycle = None
        self._trigger_state.cooldown_until = now + self.policy.cooldown_s
        cycle["retrain_duration"] = time.perf_counter() - cycle["retrain_start"]
        try:
            (result,) = future.result()
        except Exception as error:
            self.retrains_failed += 1
            self.last_error = str(error)
            self._emit_cycle_trace(cycle, status="retrain_failed")
            return
        self.retrains_completed += 1
        candidate, losses = result["model"], result["losses"]

        validate_start = time.perf_counter()
        reference = self._reference_model()
        verdict = self._judge(candidate, reference, cycle["snapshot"], self.auc_margin)
        cycle["validate_duration"] = time.perf_counter() - validate_start
        self.last_verdict = verdict.describe()
        if not verdict.accepted:
            self.validations_rejected += 1
            self._emit_cycle_trace(cycle, status="rejected")
            return

        self.validations_accepted += 1
        swap_start = time.perf_counter()
        metadata = {
            "lifecycle": {
                "reason": cycle["reason"],
                "final_loss": losses[-1] if losses else None,
                "validation": verdict.describe(),
            }
        }
        version = self.registry.publish(candidate, self.model_name, metadata=metadata)
        cycle["swap_duration"] = time.perf_counter() - swap_start
        self._previous_good = self._good_version
        self._good_version = version
        self._blessed.add(version)
        cycle["version"] = version
        self._emit_cycle_trace(cycle, status="published")

    def _reference_model(self):
        """The model candidates must beat: the last known-good registry
        version, loaded fresh (never the live object — scoring it here
        could race the serving thread's forward batches)."""
        if self._good_version is not None:
            try:
                return self.registry.load(self.model_name, self._good_version)
            except (KeyError, OSError, ValueError):
                pass
        return self._fallback_model

    def _judge(
        self, model, reference, snapshot, max_auc_drop, score_shift=None
    ) -> Verdict:
        """The one verdict on ``model`` against ``reference``, probed on
        ``snapshot``.  The reference is scored only when a check reads
        its scores: the probe labels carry both classes, or a shift
        limit is set."""
        probe = probe_nodes(snapshot, self.probe_size, self.probe_seed)
        labels = snapshot.node_labels[probe]
        if np.unique(labels).size < 2:
            labels = None  # ROC-AUC is undefined on one class
        knobs = dict(seed=self.score_seed, rounds=self.rounds, max_batch=self.max_batch)
        reference_scores = None
        if labels is not None or score_shift is not None:
            reference_scores = probe_scores(reference, snapshot, probe, **knobs)
        return judge_scores(
            probe_scores(model, snapshot, probe, **knobs),
            reference_scores,
            labels,
            max_auc_drop=max_auc_drop,
            score_shift=score_shift,
            min_score_std=self.min_score_std,
        )

    # ------------------------------------------------------------------
    # Guardrail / rollback
    # ------------------------------------------------------------------
    def _check_guard(self) -> None:
        served = self.served_version()
        if served is None or served in self._blessed:
            return
        if self._good_version is None:
            # No history to compare against: adopt what is being served.
            self._good_version = served
            self._blessed.add(served)
            return
        t0 = time.perf_counter()
        self._blessed.add(served)  # examined once, verdict either way
        self.guard_checks += 1
        try:
            snapshot = self.snapshot_fn()
            verdict = self._judge(
                self.registry.load(self.model_name, served),
                self.registry.load(self.model_name, self._good_version),
                snapshot,
                self.guard_auc_drop,
                self.guard_score_shift,
            )
        except Exception as error:
            self.last_error = f"guard check of v{served} failed: {error}"
            return
        self.last_guard = {
            "version": served,
            "regressed": not verdict.accepted,
            "reason": verdict.reason,
            "checks": verdict.checks,
        }
        if not verdict.accepted:
            self._rollback_to(
                self._good_version, verdict.reason, bad_version=served, guard_start=t0
            )
        else:
            # The new version is healthy: it becomes the good version.
            self._previous_good = self._good_version
            self._good_version = served

    def _rollback_to(
        self,
        version: int,
        reason: str,
        *,
        bad_version: Optional[int] = None,
        guard_start: Optional[float] = None,
    ) -> int:
        """Re-publish registry ``version`` as a new version, which the
        gateway's watcher hot-swaps on its next poll: rollback and
        promotion share one mechanism.  Returns the new version."""
        t0 = guard_start if guard_start is not None else time.perf_counter()
        metadata = {"rollback": True, "restores": int(version), "reason": reason}
        if bad_version is not None:
            metadata["replaces"] = bad_version
        model = self.registry.load(self.model_name, version)
        new_version = self.registry.publish(model, self.model_name, metadata=metadata)
        self.rollbacks += 1
        self._previous_good = self._good_version
        self._good_version = new_version
        self._blessed.add(new_version)
        with obs_trace.trace("lifecycle.rollback") as root:
            root.set(
                restores=version,
                version=new_version,
                bad_version=bad_version,
                reason=reason,
            )
            obs_trace.record_span(
                root,
                "lifecycle.swap",
                t0,
                time.perf_counter() - t0,
                version=new_version,
                restores=version,
            )
        return new_version

    def rollback(self, reason: str = "manual rollback") -> dict:
        """Force a rollback to the previous good version (admin op)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("lifecycle controller is closed")
            if self._previous_good is None:
                raise ValueError(
                    "no previous version to roll back to (need at least two "
                    "healthy versions in the registry history)"
                )
            restore = self._previous_good
            bad = self._good_version
            version = self._rollback_to(restore, reason, bad_version=bad)
            return {"rolled_back": True, "restored": restore, "version": version}

    # ------------------------------------------------------------------
    # Pause / resume / status
    # ------------------------------------------------------------------
    def pause(self) -> dict:
        with self._lock:
            self._paused = True
            return {"paused": True}

    def resume(self) -> dict:
        with self._lock:
            self._paused = False
            # Drift accrued while paused should not instantly re-fire.
            self._trigger_state.consecutive_over = 0
            return {"paused": False}

    @property
    def state(self) -> str:
        if self._closed:
            return "closed"
        if self._future is not None:
            return "retraining"
        if self._paused:
            return "paused"
        return "idle"

    def counters(self) -> dict:
        """Flat numeric counters (exported as ``lifecycle_*`` gauges)."""
        return {
            "triggers": self.triggers,
            "retrains_completed": self.retrains_completed,
            "retrains_failed": self.retrains_failed,
            "validations_accepted": self.validations_accepted,
            "validations_rejected": self.validations_rejected,
            "guard_checks": self.guard_checks,
            "rollbacks": self.rollbacks,
            "retraining": 1 if self._future is not None else 0,
            "paused": 1 if self._paused else 0,
        }

    def status(self) -> dict:
        """Full controller introspection (the ``lifecycle_status`` op)."""
        with self._lock:
            drift, mutations = self.signal_fn()
            return {
                "state": self.state,
                "policy": self.policy.describe(),
                "signal": {
                    "drift_total": drift,
                    "mutations": mutations,
                    "drift_since_baseline": drift - self._baseline_drift,
                    "mutations_since_baseline": mutations - self._baseline_mutations,
                },
                "good_version": self._good_version,
                "previous_good_version": self._previous_good,
                "served_version": self.served_version(),
                "counters": self.counters(),
                "last_verdict": self.last_verdict,
                "last_guard": self.last_guard,
                "last_error": self.last_error,
            }

    # ------------------------------------------------------------------
    # Test / standalone helpers
    # ------------------------------------------------------------------
    def wait_idle(self, timeout: float = 120.0, poll: float = 0.02) -> bool:
        """Tick until no retrain is in flight (standalone drivers and
        tests; the gateway loop ticks on its own)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._future is None:
                    return True
                if self._future.done():
                    self._finish_cycle(self.clock())
                    self._check_guard()
                    return True
            time.sleep(poll)
        return False

    # ------------------------------------------------------------------
    # Trace synthesis
    # ------------------------------------------------------------------
    def _emit_cycle_trace(self, cycle: dict, status: str) -> None:
        """One ``lifecycle.cycle`` trace per completed cycle, stitched
        from the per-stage timestamps collected across ticks."""
        with obs_trace.trace("lifecycle.cycle") as root:
            root.set(
                reason=cycle["reason"], status=status, version=cycle.get("version")
            )
            obs_trace.record_span(
                root,
                "lifecycle.trigger",
                cycle["trigger_start"],
                cycle["trigger_duration"],
                reason=cycle["reason"],
            )
            obs_trace.record_span(
                root,
                "lifecycle.retrain",
                cycle["retrain_start"],
                cycle["retrain_duration"],
                epochs=self.epochs,
                workers=self.workers,
            )
            if "validate_duration" in cycle:
                obs_trace.record_span(
                    root,
                    "lifecycle.validate",
                    cycle["retrain_start"] + cycle["retrain_duration"],
                    cycle["validate_duration"],
                    accepted=status == "published",
                )
            if "swap_duration" in cycle:
                swap_start = (
                    cycle["retrain_start"]
                    + cycle["retrain_duration"]
                    + cycle["validate_duration"]
                )
                obs_trace.record_span(
                    root,
                    "lifecycle.swap",
                    swap_start,
                    cycle["swap_duration"],
                    version=cycle.get("version"),
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork the retrain worker now (idempotent): started inside a
        retrain window, it stalls requests for tens of milliseconds."""
        with self._lock:
            if self._closed:
                raise RuntimeError("lifecycle controller is closed")
            if self._retrainer is None:
                self._retrainer = WorkerPool(1)
                self._retrainer.run(abs, [0])
                self._launcher = ThreadPoolExecutor(
                    1, thread_name_prefix="lifecycle-retrain"
                )

    def close(self, wait: bool = True) -> None:
        """Shut the retrain worker down.

        ``wait=False`` abandons a retrain in flight instead of waiting
        for it (the gateway's shutdown path)."""
        with self._lock:
            self._closed = True
            retrainer, launcher = self._retrainer, self._launcher
            self._retrainer = self._launcher = None
            self._future = None
            self._cycle = None
        if retrainer is not None:
            retrainer.close(wait=wait)
            launcher.shutdown(wait=wait)

    def __enter__(self) -> "LifecycleController":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @classmethod
    def from_settings(
        cls,
        service,
        registry,
        model_name: str,
        settings: LifecycleSettings,
        **overrides,
    ) -> "LifecycleController":
        """Build a controller from a parsed ``--autotrain`` policy file."""
        kwargs = dict(
            policy=settings.policy,
            epochs=settings.epochs,
            workers=settings.workers,
            grain=settings.grain,
            probe_size=settings.probe_size,
            probe_seed=settings.probe_seed,
            auc_margin=settings.auc_margin,
            min_score_std=settings.min_score_std,
            guard_auc_drop=settings.guard_auc_drop,
            guard_score_shift=settings.guard_score_shift,
        )
        kwargs.update(overrides)
        return cls(service, registry, model_name, **kwargs)
