"""Per-layer timing applied from outside the program.

:class:`Tracer` wraps named functions of ``src/repro`` modules with
timing wrappers for the length of a traced run and removes them
afterwards.  Nothing under ``src/`` knows about it.

Definitions (the self-checks in ``selfcheck.py`` pin them):

* A *span* is one call of a wrapped function: start, end, thread, and
  the span that caused it.  The parent of a span is the innermost open
  synchronous span on the same thread or, when there is none, the
  coroutine span open in the current asyncio context on that thread.
  Work handed to another thread has no parent there.
* *Self time* is a span's duration minus the part of its interval that
  its child spans cover (the union of the children, so concurrently
  awaited children are not counted twice).
* *Attributed time* splits wall time so the table adds up to the run:
  each instant goes to the innermost active spans, shared equally; busy
  (synchronous) spans take precedence over coroutines that are only
  awaiting.  Instants no span covers form the ``unattributed`` row.

A wrapped name that no longer exists is reported as absent, never as an
error, so the benchmark runs unchanged after a later change deletes a
function.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``module``/``qualname`` locate it; ``layer`` names the row it lands
    in; ``count`` maps the call's ``(args, kwargs)`` to the work units
    it handles (targets, nodes, tasks); ``label`` and ``capture`` keep a
    small summary of the arguments for metrics that need one.
    """

    module: str
    qualname: str
    layer: str
    count: Optional[Callable] = None
    label: Optional[Callable] = None
    capture: Optional[Callable] = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.qualname}"


@dataclass(eq=False)
class Span:
    key: str
    layer: str
    thread: int
    start: float
    is_async: bool
    parent: Optional["Span"] = None
    end: float = 0.0
    count: int = 1
    label: Optional[str] = None
    captured: object = None
    children: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - covered(self.children, self.start, self.end)


def covered(intervals: Sequence[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _safe(fn, args, kwargs, default):
    try:
        return fn(args, kwargs)
    except Exception:  # a summary must never break the wrapped call
        return default


class Tracer:
    """Installs timing wrappers on :class:`Target`\\ s and keeps spans."""

    def __init__(self, targets: Sequence[Target],
                 clock: Callable[[], float] = time.perf_counter):
        self.targets = list(targets)
        self.clock = clock
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._stack = threading.local()
        self._async_span: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_async_span", default=None)
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _frames(self) -> list:
        frames = getattr(self._stack, "frames", None)
        if frames is None:
            frames = self._stack.frames = []
        return frames

    def _parent(self, thread: int) -> Optional[Span]:
        frames = self._frames()
        if frames:
            return frames[-1]
        candidate = self._async_span.get()
        if candidate is not None and candidate.thread == thread:
            return candidate
        return None

    def _open(self, target: Target, args, kwargs, is_async: bool) -> Span:
        thread = threading.get_ident()
        span = Span(target.key, target.layer, thread, 0.0, is_async,
                    parent=self._parent(thread))
        if target.count is not None:
            span.count = int(_safe(target.count, args, kwargs, 1))
        if target.label is not None:
            span.label = _safe(target.label, args, kwargs, None)
        if target.capture is not None:
            span.captured = _safe(target.capture, args, kwargs, None)
        span.start = self.clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        if span.parent is not None:
            span.parent.children.append((span.start, span.end))
        with self._lock:
            self.spans.append(span)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, target: Target, original):
        tracer = self
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                span = tracer._open(target, args, kwargs, True)
                token = tracer._async_span.set(span)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._async_span.reset(token)
                    tracer._close(span)
            async_wrapper.__perfbench_original__ = original
            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(target, args, kwargs, False)
            frames = tracer._frames()
            frames.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                frames.pop()
                tracer._close(span)
        wrapper.__perfbench_original__ = original
        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        self.absent = []
        for target in self.targets:
            owner, name, original = _locate(target)
            if owner is None:
                self.absent.append(target.key)
                continue
            wrapped = self._wrap(target, original)
            if inspect.isclass(owner):
                self._patch(owner, name, wrapped)
                continue
            # A module-level function is also bound by name in every
            # repro module that imported it: patch each alias.
            self._patch(owner, name, wrapped)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if (module is not owner and namespace is not None
                        and getattr(module, "__name__", "").startswith("repro")
                        and namespace.get(name) is original):
                    self._patch(module, name, wrapped)

    def _patch(self, owner, name: str, wrapped) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    # -- views -------------------------------------------------------------
    def by_key(self, key: str) -> List[Span]:
        return [span for span in self.spans if span.key == key]

    def calls(self) -> Dict[str, int]:
        counts = {target.key: 0 for target in self.targets}
        for span in self.spans:
            counts[span.key] = counts.get(span.key, 0) + 1
        return counts


def _locate(target: Target):
    """``(owner, attribute name, function)`` or ``(None, None, None)``."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None, None, None
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    name = parts[-1]
    namespace = getattr(owner, "__dict__", {})
    original = namespace.get(name)
    if original is None or not callable(original):
        return None, None, None
    return owner, name, original


def attribute(spans: Sequence[Span], lo: float,
              hi: float) -> Dict[str, float]:
    """Split the wall interval ``[lo, hi]`` over layers.

    Returns seconds per layer plus :data:`UNATTRIBUTED`; the values sum
    to ``hi - lo``.  At each instant the innermost active spans share
    it equally, synchronous spans ahead of awaiting coroutines.
    """
    events = []
    for span in spans:
        start, end = max(span.start, lo), min(span.end, hi)
        if end > start:
            events.append((start, 1, span))
            events.append((end, 0, span))
    events.sort(key=lambda event: (event[0], event[1]))
    shares: Dict[str, float] = {}
    active: Dict[int, Span] = {}
    open_children: Dict[int, int] = {}
    covered_total = 0.0
    previous = lo
    for when, is_start, span in events:
        if when > previous and active:
            leaves = [s for key, s in active.items()
                      if open_children.get(key, 0) == 0]
            busy = [s for s in leaves if not s.is_async] or leaves
            part = (when - previous) / len(busy)
            for leaf in busy:
                shares[leaf.layer] = shares.get(leaf.layer, 0.0) + part
            covered_total += when - previous
        previous = max(previous, when)
        parent = span.parent
        if is_start:
            active[id(span)] = span
            if parent is not None and id(parent) in active:
                open_children[id(parent)] = open_children.get(id(parent), 0) + 1
        else:
            active.pop(id(span), None)
            if parent is not None and open_children.get(id(parent)):
                open_children[id(parent)] -= 1
    shares[UNATTRIBUTED] = (hi - lo) - covered_total
    return shares


def attribute_windows(spans: Sequence[Span],
                      windows: Sequence[Tuple[float, float]]
                      ) -> Dict[str, float]:
    """:func:`attribute` summed over disjoint traced windows."""
    shares: Dict[str, float] = {UNATTRIBUTED: 0.0}
    for lo, hi in windows:
        inside = [span for span in spans if span.end > lo and span.start < hi]
        for layer, seconds in attribute(inside, lo, hi).items():
            shares[layer] = shares.get(layer, 0.0) + seconds
    return shares


def layer_table(spans: Sequence[Span],
                windows: Sequence[Tuple[float, float]]) -> List[dict]:
    """One row per layer: calls, self seconds, attributed seconds and
    share of the traced wall time, plus the ``unattributed`` row."""
    shares = attribute_windows(spans, windows)
    rows: Dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(span.layer, {"layer": span.layer, "calls": 0,
                                           "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += span.self_time
    wall = sum(hi - lo for lo, hi in windows)
    table = []
    for layer in sorted(rows):
        row = rows[layer]
        row["attributed_s"] = shares.get(layer, 0.0)
        row["share"] = row["attributed_s"] / wall if wall > 0 else 0.0
        table.append(row)
    table.append({"layer": UNATTRIBUTED, "calls": 0, "self_s": 0.0,
                  "attributed_s": shares[UNATTRIBUTED],
                  "share": shares[UNATTRIBUTED] / wall if wall > 0 else 0.0})
    return table
