"""Self-checks for the harness's own arithmetic.

Every benchmark run calls :func:`run_checks` first and reports a failed
check as an incorrect result.  Run alone with ``python3
perfbench/selfcheck.py``; it needs no ``src/``.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import types

from figures import failed_share, supported_percentile
from layers import Span, Target, Tracer, UNATTRIBUTED, attribute, covered
from ledger import batcher_waits

_MODULE = "perfbench_selfcheck_fixture"


def _fixture(clock_state: dict) -> types.ModuleType:
    """A throwaway module whose functions advance a fake clock."""
    module = types.ModuleType(_MODULE)

    def tick(amount):
        clock_state["t"] += amount

    def inner():
        tick(2.0)

    def outer():
        tick(1.0)
        module.inner()
        tick(1.0)
        module.inner()
        tick(1.0)

    def threaded():
        tick(1.0)
        worker = threading.Thread(target=module.inner)
        worker.start()
        worker.join()
        tick(1.0)

    async def leaf():
        tick(1.0)
        await asyncio.sleep(0)
        tick(1.0)

    async def root():
        tick(1.0)
        await asyncio.gather(module.leaf(), module.leaf())
        tick(1.0)

    module.inner, module.outer, module.threaded = inner, outer, threaded
    module.leaf, module.root = leaf, root
    sys.modules[_MODULE] = module
    return module


def _tracer(clock_state: dict) -> Tracer:
    names = ("inner", "outer", "threaded", "leaf", "root", "gone")
    targets = [Target(_MODULE, name, f"layer.{name}") for name in names]
    targets.append(Target("perfbench_no_such_module", "f", "layer.absent"))
    return Tracer(targets, clock=lambda: clock_state["t"])


def check_nested_self_time(failures: list) -> None:
    state = {"t": 0.0}
    module = _fixture(state)
    with _tracer(state) as tracer:
        module.outer()
    outer = tracer.by_key(f"{_MODULE}.outer")[0]
    inner = tracer.by_key(f"{_MODULE}.inner")
    if (outer.duration, outer.self_time) != (7.0, 3.0):
        failures.append(f"nested: outer {outer.duration}/{outer.self_time}"
                        " != 7/3")
    if [span.self_time for span in inner] != [2.0, 2.0] or any(
            span.parent is not outer for span in inner):
        failures.append("nested: inner spans not 2.0 each under outer")


def check_cross_thread(failures: list) -> None:
    state = {"t": 0.0}
    module = _fixture(state)
    with _tracer(state) as tracer:
        module.threaded()
    threaded = tracer.by_key(f"{_MODULE}.threaded")[0]
    inner = tracer.by_key(f"{_MODULE}.inner")[0]
    if inner.parent is not None:
        failures.append("cross-thread: a call on another thread got a parent")
    if threaded.self_time != threaded.duration or threaded.duration != 4.0:
        failures.append("cross-thread: another thread's call was subtracted")


def check_async_union(failures: list) -> None:
    state = {"t": 0.0}
    module = _fixture(state)
    with _tracer(state) as tracer:
        asyncio.run(module.root())
    root = tracer.by_key(f"{_MODULE}.root")[0]
    leaves = tracer.by_key(f"{_MODULE}.leaf")
    if len(leaves) != 2 or any(leaf.parent is not root for leaf in leaves):
        failures.append("async: gathered calls are not children of the caller")
    union = covered(root.children, root.start, root.end)
    if not (root.duration == 6.0 and union == 4.0
            and root.self_time == 2.0):
        failures.append(f"async: root {root.duration}/{root.self_time}, "
                        f"children cover {union}; want 6/2 covering 4")
    if covered([(0, 2), (1, 3), (5, 6)], 0, 10) != 4:
        failures.append("covered: overlapping intervals counted twice")


def check_absent(failures: list) -> None:
    state = {"t": 0.0}
    _fixture(state)
    tracer = _tracer(state)
    try:
        tracer.install()
    except Exception as error:  # the point: this must never raise
        failures.append(f"absent: install raised {error!r}")
        return
    finally:
        tracer.uninstall()
    want = {f"{_MODULE}.gone", "perfbench_no_such_module.f"}
    if set(tracer.absent) != want:
        failures.append(f"absent: reported {tracer.absent}, want {want}")


def check_attribution(failures: list) -> None:
    a = Span("a", "A", 1, 0.0, False, end=10.0)
    b = Span("b", "B", 1, 2.0, False, parent=a, end=5.0)
    c = Span("c", "C", 2, 4.0, False, end=8.0)
    d = Span("d", "D", 3, 9.0, True, end=12.0)
    shares = attribute([a, b, c, d], 0.0, 14.0)
    want = {"A": 5.5, "B": 2.5, "C": 2.0, "D": 2.0, UNATTRIBUTED: 2.0}
    if any(abs(shares.get(k, 0.0) - v) > 1e-12 for k, v in want.items()):
        failures.append(f"attribution: {shares} != {want}")
    if abs(sum(shares.values()) - 14.0) > 1e-12:
        failures.append("attribution: rows do not add up to wall time")


def check_percentile_support(failures: list) -> None:
    if supported_percentile([float(i) for i in range(1, 1001)], 99) != 990.0:
        failures.append("p99 of 1000 samples (10 beyond) not reported")
    if supported_percentile([float(i) for i in range(1, 1000)], 99) is not None:
        failures.append("p99 of 999 samples (9 beyond) was reported")


def check_failed_share(failures: list) -> None:
    from workloads import LoadLog, ServeRun

    class StubClient:
        transport = "stub"

        def __init__(self):
            self.replies = iter([
                {"ok": True, "scores": {"1": 0.5}},
                {"ok": False, "error_type": "AdmissionRejected"},
                {"ok": False, "error_type": "IndexError"},
                {"ok": True, "scores": {"2": 0.25}},
            ])

        async def call(self, request):
            return next(self.replies)

    run = ServeRun("serve_miss", 0)
    stream = iter([{"op": "score", "nodes": [n]} for n in (1, 9, 99, 2)])
    log = LoadLog()
    asyncio.run(run._drive(StubClient(), stream, float("inf"), log))
    tally = run.tally
    share = failed_share(tally.attempted, tally.errored, tally.refused)
    if (tally.attempted, tally.refused, tally.errored) != (4, 1, 1) \
            or share != 0.5 or len(log.read_s) != 2:
        failures.append(f"failed_share: {tally} -> {share}, want 4/1/1 -> 0.5")


def check_batcher_waits(failures: list) -> None:
    items = [Span("b", "gateway.batcher", 1, t, True, captured=n)
             for t, n in ((0.0, 5), (1.0, 5), (1.5, 7))]
    calls = [Span("s.score_nodes", "serving.service", 2, 2.0, False,
                  captured=(5, 7)),
             Span("s.score_nodes", "serving.service", 2, 4.0, False,
                  captured=(5,))]
    if batcher_waits(items, calls) != [2.0, 0.5, 3.0]:
        failures.append("batcher waits: FIFO matching by node id broken")


CHECKS = (check_nested_self_time, check_cross_thread, check_async_union,
          check_absent, check_attribution, check_percentile_support,
          check_failed_share, check_batcher_waits)


def run_checks() -> list:
    failures: list = []
    for check in CHECKS:
        check(failures)
    sys.modules.pop(_MODULE, None)
    return failures


if __name__ == "__main__":
    problems = run_checks()
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{len(CHECKS)} checks, {len(problems)} failures")
    sys.exit(1 if problems else 0)
