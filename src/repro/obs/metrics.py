"""Repo-wide metrics: counters, gauges, histograms, Prometheus text.

Each gateway owns one :class:`MetricsRegistry`.  The asyncio event
loop and the batcher's scoring thread record into plain Python
ints/floats (GIL-atomic enough for monitoring counters), and
``MetricsRegistry.render()`` produces the Prometheus text exposition
format served at ``GET /metrics``.
Histograms use fixed bucket bounds and estimate quantiles by linear
interpolation inside the bucket that crosses the requested rank — the
standard client-side approximation.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Optional, Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default latency buckets in seconds (sub-ms to 10 s).
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Default micro-batch size buckets.
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Counter:
    """Monotonically increasing counter."""

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help = help_text
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def render(self) -> List[str]:
        return [f"# HELP {self.name} {self.help}",
                f"# TYPE {self.name} counter",
                f"{self.name} {_fmt(self._value)}"]


class Gauge:
    """Settable instantaneous value, optionally read from a callable."""

    def __init__(self, name: str, help_text: str = "",
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.help = help_text
        self._fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def render(self) -> List[str]:
        return [f"# HELP {self.name} {self.help}",
                f"# TYPE {self.name} gauge",
                f"{self.name} {_fmt(self.value)}"]


class Histogram:
    """Fixed-bucket histogram with client-side quantile estimates."""

    def __init__(self, name: str, help_text: str = "",
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.help = help_text
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # +1 for +Inf
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Approximate the ``q``-quantile from the bucket counts.

        Linear interpolation inside the crossing bucket; observations
        beyond the last finite bound report that bound (the estimate is
        clamped, as Prometheus's ``histogram_quantile`` clamps).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.total == 0:
            return math.nan
        rank = q * self.total
        cumulative = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            lower = 0.0 if i == 0 else self.bounds[i - 1]
            upper = self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
            if cumulative + count >= rank:
                fraction = (rank - cumulative) / count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += count
        return self.bounds[-1]

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} histogram"]
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            lines.append(f'{self.name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self.total}')
        lines.append(f"{self.name}_sum {_fmt(self.sum)}")
        lines.append(f"{self.name}_count {self.total}")
        return lines


def _fmt(value: float) -> str:
    """Render a float the way Prometheus clients do (ints bare)."""
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Named collection of metrics with idempotent registration."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _register(self, name: str, factory, kind):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}")
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(name, lambda: Counter(name, help_text), Counter)

    def gauge(self, name: str, help_text: str = "",
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._register(name, lambda: Gauge(name, help_text, fn), Gauge)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._register(
            name, lambda: Histogram(name, help_text, buckets), Histogram)

    def get(self, name: str):
        return self._metrics.get(name)

    def unregister(self, name: str) -> bool:
        """Drop a registered metric (a detached service's gauges must
        not keep rendering); returns whether the name existed."""
        return self._metrics.pop(name, None) is not None

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def render(self) -> str:
        """Prometheus text exposition of every registered metric."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """Flat JSON-friendly view (histograms as count/sum/p50/p99)."""
        out: dict = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.total,
                    "sum": metric.sum,
                    "p50": metric.quantile(0.5) if metric.total else None,
                    "p99": metric.quantile(0.99) if metric.total else None,
                }
            else:
                out[name] = metric.value
        return out
