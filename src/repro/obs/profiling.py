"""Wall-clock and peak-memory profiling (one timing utility repo-wide).

The Table V / Figure 6 experiments, the benchmarks, and the tracing
layer share one monotonic-clock timing primitive.  The paper
reports GPU seconds and GPU memory on a 2080; here the same quantities
are process time (``time.perf_counter`` — monotonic, never the
settable wall clock) and ``tracemalloc`` peak allocations.  Absolute
values differ; the BOURNE-vs-contrastive *ratios* are the reproduced
claim.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class ResourceUsage:
    """Measured cost of one profiled call."""

    seconds: float
    peak_mb: float


@contextmanager
def measure():
    """Context manager yielding a mutable :class:`ResourceUsage`."""
    usage = ResourceUsage(seconds=0.0, peak_mb=0.0)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        yield usage
    finally:
        usage.seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        usage.peak_mb = peak / (1024.0 * 1024.0)
