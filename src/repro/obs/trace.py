"""Request tracing: contextvar spans, flight recorder, cross-process ship.

The tracing layer answers one production question — *where did the time
of this request go?* — without perturbing anything the serving stack
guarantees:

* **Determinism** — span/trace ids come from a process-local counter
  (``pid-counter`` hex), never from an RNG, so tracing cannot consume a
  draw from any counter-based stream; the bitwise pins hold with
  tracing on (``tests/test_obs.py`` asserts it).
* **Cheap when off** — :func:`span` and :func:`trace` return one shared
  no-op object unless a trace is active / a recorder is installed: no
  allocation, no clock read, no contextvar write on the disabled path.
* **Monotonic timing** — every duration is ``time.perf_counter``
  arithmetic; wall-clock (``time.time``) appears only as a display
  timestamp on finished traces.

Propagation is via one :data:`contextvars.ContextVar`: ``async`` code
inherits it through awaits, and the gateway's scoring thread picks it
up explicitly with :func:`use_context`.  Worker processes cannot share
a contextvar, so they run their span loop under :func:`capture_spans`
and ship the exported records back through the existing result channel;
the parent re-parents them with :func:`adopt_spans` under the span that
submitted the work.

Completed traces land in a :class:`FlightRecorder`: a lock-free ring
buffer (preallocated slots, ``itertools.count`` slot clock — atomic
under the GIL, no lock on the record path) retaining the last *N*
traces plus a second ring for every slow or errored trace, so the
interesting traces survive long after the steady-state traffic that
followed them has rotated through.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "TraceBuffer",
    "FlightRecorder",
    "span",
    "trace",
    "active",
    "enabled",
    "install",
    "uninstall",
    "get_recorder",
    "current_context",
    "current_ids",
    "use_context",
    "clear_context",
    "capture_spans",
    "adopt_spans",
    "record_span",
    "span_tree",
    "stage_table",
]

#: The active span of the calling context (``None`` outside any trace).
_CURRENT: ContextVar[Optional["Span"]] = ContextVar("repro_trace",
                                                    default=None)

#: Process-wide flight recorder; ``None`` disables root-trace creation.
_RECORDER: Optional["FlightRecorder"] = None

_PID = os.getpid()
_IDS = itertools.count(1)


def _refresh_pid() -> None:
    """Re-key span ids after a fork so worker ids never collide with
    parent ids (fork copies the counter *and* the old pid)."""
    global _PID, _IDS
    _PID = os.getpid()
    _IDS = itertools.count(1)


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_refresh_pid)


def _next_id() -> str:
    """Counter-based id — deliberately not random: tracing must never
    consume an RNG draw (the bitwise-equivalence pins depend on it)."""
    return f"{_PID:x}-{next(_IDS):x}"


class _NoopSpan:
    """Shared do-nothing span: the entire cost of disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_attrs) -> None:
        pass

    @property
    def trace(self):
        return None


NOOP_SPAN = _NoopSpan()


class TraceBuffer:
    """Mutable store of one in-flight trace's finished span records."""

    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id if trace_id is not None else _next_id()
        self.spans: List[dict] = []


class Span:
    """One timed stage of a trace; a context manager.

    Entering makes it the calling context's current span (children
    created inside parent to it); exiting stamps the monotonic duration
    and appends the exported record to the trace buffer.  An exception
    propagating through marks the span (and therefore the trace)
    errored.
    """

    __slots__ = ("name", "span_id", "parent_id", "trace", "start",
                 "duration", "attrs", "status", "_token")

    def __init__(self, name: str, trace_buffer: TraceBuffer,
                 parent_id: Optional[str]):
        self.name = name
        self.span_id = _next_id()
        self.parent_id = parent_id
        self.trace = trace_buffer
        self.start = 0.0
        self.duration = 0.0
        self.attrs: Dict[str, Any] = {}
        self.status = "ok"
        self._token = None

    def set(self, **attrs) -> None:
        """Attach attributes (a no-op on the disabled path's span)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.duration = time.perf_counter() - self.start
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error",
                                  f"{exc_type.__name__}: {exc}")
        self.trace.spans.append(self.export())
        return False

    def export(self) -> dict:
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace.trace_id,
            "start": self.start,
            "duration_ms": self.duration * 1000.0,
            "status": self.status,
            "pid": _PID,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class _RootSpan(Span):
    """Root span: on exit, seals the trace and hands it to the recorder."""

    __slots__ = ("_recorder",)

    def __init__(self, name: str, recorder: "FlightRecorder"):
        super().__init__(name, TraceBuffer(), parent_id=None)
        self._recorder = recorder

    def __exit__(self, exc_type, exc, tb) -> bool:
        super().__exit__(exc_type, exc, tb)
        self._recorder.record({
            "trace_id": self.trace.trace_id,
            "name": self.name,
            "duration_ms": self.duration * 1000.0,
            "status": self.status,
            "ts": time.time(),  # display timestamp only, never timing
            "spans": self.trace.spans,
        })
        return False


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def span(name: str) -> Span:
    """A child span of the current trace (no-op outside any trace).

    The hot-path call sites pass only the name; attach attributes with
    ``sp.set(...)`` on the returned object so the disabled path never
    builds a kwargs dict it would throw away.
    """
    parent = _CURRENT.get()
    if parent is None:
        return NOOP_SPAN
    return Span(name, parent.trace, parent.span_id)


def trace(name: str,
          recorder: Optional["FlightRecorder"] = None) -> Span:
    """Start a root trace recorded into the (installed) flight recorder.

    Inside an already-active trace this degrades to a plain child span —
    nested "roots" (a train step inside a profiled run, a request
    handled while profiling) join the enclosing trace instead of
    fragmenting it.  With no recorder installed and none given, no-op.
    """
    parent = _CURRENT.get()
    if parent is not None:
        return Span(name, parent.trace, parent.span_id)
    recorder = recorder if recorder is not None else _RECORDER
    if recorder is None:
        return NOOP_SPAN
    return _RootSpan(name, recorder)


def active() -> bool:
    """True when the calling context is inside a live trace."""
    return _CURRENT.get() is not None


def enabled() -> bool:
    """True when a flight recorder is installed process-wide."""
    return _RECORDER is not None


def install(recorder: "FlightRecorder") -> Optional["FlightRecorder"]:
    """Install the process-wide recorder; returns the one it replaced."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


def uninstall(replacement: Optional["FlightRecorder"] = None) -> None:
    """Remove (or restore ``replacement`` as) the process recorder."""
    global _RECORDER
    _RECORDER = replacement


def get_recorder() -> Optional["FlightRecorder"]:
    return _RECORDER


# ----------------------------------------------------------------------
# Context propagation (threads and processes)
# ----------------------------------------------------------------------
def current_context() -> Optional[Span]:
    """The calling context's span, for explicit cross-thread handoff."""
    return _CURRENT.get()


def current_ids() -> Optional[tuple]:
    """``(trace_id, span_id)`` of the active span, or ``None`` — the
    hook structured logging uses to correlate log lines with traces."""
    current = _CURRENT.get()
    if current is None:
        return None
    return current.trace.trace_id, current.span_id


@contextmanager
def use_context(parent: Optional[Span]):
    """Adopt ``parent`` as the current span in this thread/context.

    The gateway's scoring thread runs batches and submitted ops under
    the event-loop request's span via this — contextvars do not cross
    ``run_in_executor`` on their own.
    """
    token = _CURRENT.set(parent)
    try:
        yield parent
    finally:
        _CURRENT.reset(token)


@contextmanager
def clear_context():
    """Run with no active trace (worker entry: a forked child may have
    inherited the parent's mid-trace contextvar)."""
    token = _CURRENT.set(None)
    try:
        yield
    finally:
        _CURRENT.reset(token)


@contextmanager
def capture_spans(root_name: str = "worker", **attrs):
    """Collect spans into a shippable list (the worker-process side).

    Runs the body under a fresh root span regardless of any installed
    recorder and yields the list the exported records accumulate into —
    return it through the result channel and feed it to
    :func:`adopt_spans` in the parent.  ``attrs`` land on the capture
    root so the shipped subtree says which shard it came from.
    """
    buffer = TraceBuffer()
    root = Span(root_name, buffer, parent_id=None)
    if attrs:
        root.set(**attrs)
    token = _CURRENT.set(None)  # isolate from any inherited context
    try:
        with root:
            yield buffer.spans
    finally:
        _CURRENT.reset(token)


def adopt_spans(records: Iterable[dict]) -> int:
    """Re-parent shipped span records under the calling context's span.

    Each record keeps its own id/duration/attributes; its ``trace_id``
    is rewritten to the adopting trace and parentless (capture-root)
    records are parented to the current span.  Returns the number of
    records adopted (0 outside a trace — shipping is wasted, not fatal).
    """
    parent = _CURRENT.get()
    if parent is None:
        return 0
    buffer = parent.trace
    adopted = 0
    for record in records:
        record = dict(record)
        record["trace_id"] = buffer.trace_id
        if record.get("parent_id") is None:
            record["parent_id"] = parent.span_id
        buffer.spans.append(record)
        adopted += 1
    return adopted


def record_span(parent: Optional[Span], name: str, start: float,
                duration: float, **attrs) -> None:
    """Append an already-timed span record under ``parent`` directly.

    For stages measured outside their trace's context — the batcher
    times each request's coalesce wait on the event loop but records it
    from the scoring thread, against each participating request's span.
    """
    if parent is None or isinstance(parent, _NoopSpan):
        return
    record = {
        "name": name,
        "span_id": _next_id(),
        "parent_id": parent.span_id,
        "trace_id": parent.trace.trace_id,
        "start": start,
        "duration_ms": duration * 1000.0,
        "status": "ok",
        "pid": _PID,
    }
    if attrs:
        record["attrs"] = attrs
    parent.trace.spans.append(record)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class FlightRecorder:
    """Lock-free ring buffer of completed traces.

    Two preallocated rings: the main ring keeps the last ``capacity``
    traces of any kind; the slow ring keeps the last ``slow_capacity``
    traces that were slow (``duration_ms >= slow_ms``) or errored, so
    the traces worth debugging outlive steady-state rotation.  Slot
    indices come from ``itertools.count`` (atomic under the GIL), so
    concurrent recorders from the event loop, the scoring thread, and a
    trainer thread never take a lock and never tear a slot.
    """

    def __init__(self, capacity: int = 256, slow_ms: float = 250.0,
                 slow_capacity: int = 64):
        if capacity < 1 or slow_capacity < 1:
            raise ValueError("capacities must be >= 1")
        self.capacity = int(capacity)
        self.slow_ms = float(slow_ms)
        self.slow_capacity = int(slow_capacity)
        self._ring: List[Optional[dict]] = [None] * self.capacity
        self._slow_ring: List[Optional[dict]] = [None] * self.slow_capacity
        self._ring_clock = itertools.count()
        self._slow_clock = itertools.count()
        self._recorded = 0
        self._slow_recorded = 0

    # -- write path ----------------------------------------------------
    def record(self, trace_record: dict) -> None:
        self._ring[next(self._ring_clock) % self.capacity] = trace_record
        self._recorded += 1
        if (trace_record.get("status") != "ok"
                or trace_record.get("duration_ms", 0.0) >= self.slow_ms):
            self._slow_ring[next(self._slow_clock)
                            % self.slow_capacity] = trace_record
            self._slow_recorded += 1

    # -- read path -----------------------------------------------------
    def _snapshot(self) -> List[dict]:
        """Newest-first view over both rings, deduplicated by trace id."""
        seen = set()
        out = []
        for entry in list(self._ring) + list(self._slow_ring):
            if entry is None or entry["trace_id"] in seen:
                continue
            seen.add(entry["trace_id"])
            out.append(entry)
        out.sort(key=lambda t: t.get("ts", 0.0), reverse=True)
        return out

    def get(self, trace_id: str) -> Optional[dict]:
        """Look one trace up by id (either ring)."""
        for entry in list(self._ring) + list(self._slow_ring):
            if entry is not None and entry["trace_id"] == trace_id:
                return entry
        return None

    def traces(self, slow_ms: Optional[float] = None,
               limit: Optional[int] = None) -> List[dict]:
        """Retained traces, newest first; ``slow_ms`` filters to traces
        at least that slow or errored."""
        out = self._snapshot()
        if slow_ms is not None:
            out = [t for t in out
                   if t.get("duration_ms", 0.0) >= slow_ms
                   or t.get("status") != "ok"]
        return out[:limit] if limit is not None else out

    def stats(self) -> dict:
        return {
            "recorded": self._recorded,
            "slow_recorded": self._slow_recorded,
            "retained": sum(1 for t in self._ring if t is not None),
            "slow_retained": sum(1 for t in self._slow_ring
                                 if t is not None),
            "capacity": self.capacity,
            "slow_capacity": self.slow_capacity,
            "slow_ms": self.slow_ms,
        }

    def clear(self) -> None:
        self._ring = [None] * self.capacity
        self._slow_ring = [None] * self.slow_capacity


# ----------------------------------------------------------------------
# Post-hoc shaping
# ----------------------------------------------------------------------
def span_tree(trace_record: dict) -> dict:
    """Nest a trace's flat span records into a parent/child tree.

    Children are ordered by start time within their parent; spans whose
    parent is missing (adopted worker roots keep their shipped parent)
    surface as extra roots rather than being dropped.
    """
    nodes = {s["span_id"]: {**s, "children": []}
             for s in trace_record.get("spans", [])}
    roots = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id"))
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)

    def sort_children(node: dict) -> None:
        node["children"].sort(key=lambda child: (child.get("pid", 0),
                                                 child.get("start", 0.0)))
        for child in node["children"]:
            sort_children(child)

    roots.sort(key=lambda node: (node.get("pid", 0), node.get("start", 0.0)))
    for root in roots:
        sort_children(root)
    return {
        "trace_id": trace_record.get("trace_id"),
        "name": trace_record.get("name"),
        "duration_ms": trace_record.get("duration_ms"),
        "status": trace_record.get("status"),
        "ts": trace_record.get("ts"),
        "num_spans": len(nodes),
        "roots": roots,
    }


def stage_table(traces: Iterable[dict]) -> List[dict]:
    """Aggregate span records by stage name into a per-stage cost table.

    Rows carry ``stage / calls / total_ms / self_ms / mean_ms / max_ms /
    share``, sorted by total time — the ``repro trace --profile``
    output.  ``total_ms``, ``mean_ms`` and ``max_ms`` are inclusive;
    ``self_ms`` is exclusive: each span's duration minus its direct
    children's (found through ``parent_id``), clamped at zero where
    spans adopted from worker processes overlap their parent.
    ``share`` is ``self_ms`` over the summed root durations, so the
    rows of a serial trace sum to 1.
    """
    totals: Dict[str, dict] = {}
    root_ms = 0.0
    for trace_record in traces:
        root_ms += trace_record.get("duration_ms", 0.0)
        spans = trace_record.get("spans", [])
        children_ms: Dict[str, float] = {}
        for record in spans:
            parent = record.get("parent_id")
            if parent is not None:
                children_ms[parent] = (children_ms.get(parent, 0.0)
                                       + record["duration_ms"])
        for record in spans:
            row = totals.setdefault(record["name"], {
                "stage": record["name"], "calls": 0,
                "total_ms": 0.0, "self_ms": 0.0, "max_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += record["duration_ms"]
            row["self_ms"] += max(record["duration_ms"] - children_ms.get(
                record.get("span_id"), 0.0), 0.0)
            row["max_ms"] = max(row["max_ms"], record["duration_ms"])
    rows = sorted(totals.values(),
                  key=lambda row: row["total_ms"], reverse=True)
    for row in rows:
        row["mean_ms"] = row["total_ms"] / row["calls"]
        row["share"] = (row["self_ms"] / root_ms) if root_ms > 0 else 0.0
    return rows
