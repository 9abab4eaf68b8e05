"""Dynamic micro-batching: coalesce concurrent score requests.

Concurrent clients each ask for one score at a time, but a forward pass
over a batch of ``B`` targets costs far less than ``B`` single-target
passes (the block-diagonal sparse matmuls are shared).  The
:class:`MicroBatcher` bridges that gap: score requests queue up on the
event loop, and whenever the scoring thread is free a dispatcher takes
everything queued, up to ``max_batch``, and scores it with ONE
``ScoringService.score_nodes`` call.  Requests that arrive while a
batch is scoring form the next batch, so batches grow with load and no
request waits for batch-mates that have not arrived: a lone request
dispatches at once.

Determinism: the service derives every draw from ``(seed, round,
target)`` — never from batch layout — so a coalesced batch scores
bitwise-equal to the same requests issued sequentially (the gateway pin
tests assert this).  Coalescing changes latency, never scores.

Threading model: all ``ScoringService`` access — coalesced scoring,
mutations, stats, refresh, and model swaps — runs on ONE dedicated
executor thread (or, started ``inline``, on the event-loop thread),
submitted FIFO.  That serializes the service without locks and gives
hot-swaps a natural barrier: a swap submitted while a batch is scoring
runs *between* batches, never inside one.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional, Tuple

from ..obs import trace as obs_trace
from ..obs.metrics import BATCH_BUCKETS, MetricsRegistry


@dataclass
class _ScoreItem:
    """One queued score request awaiting a batch.

    ``ctx``/``enqueued`` carry the enqueuing request's trace span and
    monotonic enqueue time so the scoring thread can record each item's
    coalesce wait against *its own* trace (``ctx`` is ``None`` outside
    a trace — the common untraced path stores a constant).
    """

    kind: str  # "node" | "edge"
    payload: Tuple[int, ...]  # (node,) or (u, v)
    future: "asyncio.Future[float]" = field(repr=False, default=None)
    ctx: Optional[object] = field(repr=False, default=None)
    enqueued: float = 0.0


class MicroBatcher:
    """Size-bounded coalescer over a :class:`ScoringService`.

    Parameters
    ----------
    service:
        The scoring service; after :meth:`start` only the batcher's
        service calls touch it (see the threading model above).
    max_batch:
        Cap on requests per batch.  Each time the scoring thread is
        free, the dispatcher takes up to this many queued requests.
    metrics:
        Optional :class:`MetricsRegistry` to record batch sizes, queue
        depth, and dispatch counts into.
    """

    def __init__(
        self, service, max_batch: int = 32, metrics: Optional[MetricsRegistry] = None
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.service = service
        self.max_batch = int(max_batch)
        self._pending: Deque[_ScoreItem] = deque()
        self._wakeup: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stopping = False
        self._started = False
        self.batches_dispatched = 0
        self.requests_coalesced = 0
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._batch_hist = metrics.histogram(
            "gateway_batch_size",
            "requests coalesced per forward batch",
            buckets=BATCH_BUCKETS,
        )
        self._queue_gauge = metrics.gauge(
            "gateway_batcher_queue_depth",
            "score requests awaiting a batch",
            fn=lambda: len(self._pending),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, inline: bool = False) -> None:
        """Start the dispatcher.  ``inline=True`` makes service calls on
        the event-loop thread: a gateway without a socket has one
        sequential client, which a scoring thread only slows down."""
        if self._started:
            return
        self._started = True
        self._stopping = False
        self._executor = None if inline else ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="scoring")
        self._wakeup = asyncio.Event()
        self._dispatcher = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        """Flush every queued request, then stop the dispatcher."""
        if not self._started:
            return
        self._stopping = True
        self._wakeup.set()
        await self._dispatcher
        self._dispatcher = None
        self._started = False
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    async def _call(self, fn, *args) -> Any:
        """``fn(*args)`` on the scoring thread, or at once when inline."""
        if self._executor is None:
            return fn(*args)
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args)

    # ------------------------------------------------------------------
    # Request API (event-loop side)
    # ------------------------------------------------------------------
    async def score_node(self, node: int) -> float:
        return await self._enqueue("node", (int(node),))

    async def score_edge(self, u: int, v: int) -> float:
        return await self._enqueue("edge", (int(u), int(v)))

    async def submit(self, fn, *args) -> Any:
        """Run ``fn(*args)`` on the scoring thread (mutations, stats,
        refresh, model swaps).  FIFO with batch jobs, so a submitted
        call never interleaves with a forward batch."""
        if not self._started or self._stopping:
            raise RuntimeError("batcher is not accepting work")
        ctx = obs_trace.current_context()
        if ctx is None:
            return await self._call(fn, *args)

        def traced_call():
            # contextvars don't cross run_in_executor: re-adopt the
            # submitting request's span on the scoring thread.
            with obs_trace.use_context(ctx):
                return fn(*args)

        return await self._call(traced_call)

    async def swap_model(self, model) -> None:
        """Hot-swap the served model between batches."""
        await self.submit(self.service.swap_model, model)

    def _enqueue(self, kind: str, payload: Tuple[int, ...]):
        if not self._started or self._stopping:
            raise RuntimeError("batcher is not accepting work")
        loop = asyncio.get_running_loop()
        ctx = obs_trace.current_context()
        enqueued = time.perf_counter() if ctx else 0.0
        item = _ScoreItem(kind, payload, loop.create_future(), ctx, enqueued)
        self._pending.append(item)
        self._wakeup.set()
        return item.future

    # ------------------------------------------------------------------
    # Dispatcher (event-loop side)
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            if not self._pending:
                if self._stopping:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            # The scoring thread is free: take what is queued.  Requests
            # that arrive while this batch scores form the next one, and
            # stopping drains the queue the same way.
            count = min(self.max_batch, len(self._pending))
            batch = [self._pending.popleft() for _ in range(count)]
            await self._dispatch(batch)

    async def _dispatch(self, batch: List[_ScoreItem]) -> None:
        self.batches_dispatched += 1
        self.requests_coalesced += len(batch)
        self._batch_hist.observe(len(batch))
        try:
            results = await self._call(self._score_batch, batch)
        except Exception as error:  # the batch call died — fail it all
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(error)
            return
        for item, outcome in results:
            if item.future.done():
                continue
            if isinstance(outcome, BaseException):
                item.future.set_exception(outcome)
            else:
                item.future.set_result(outcome)

    # ------------------------------------------------------------------
    # Scoring (executor-thread side)
    # ------------------------------------------------------------------
    def _score_batch(self, batch: List[_ScoreItem]) -> List[tuple]:
        """Score one coalesced batch; per-item errors never poison the
        rest of the batch (an out-of-range node fails alone).

        Tracing: each traced item gets a ``batcher.coalesce`` span (its
        wait from enqueue to dispatch) on its own trace.  The batch
        itself executes under the *first* traced item's span — a solo
        request therefore sees the full scoring subtree — while the
        other participants get a ``batcher.shared_batch`` marker naming
        the lead trace that carries the shared work.
        """
        traced = [item for item in batch if item.ctx is not None]
        if traced:
            now = time.perf_counter()
            for item in traced:
                obs_trace.record_span(
                    item.ctx,
                    "batcher.coalesce",
                    item.enqueued,
                    now - item.enqueued,
                    kind=item.kind,
                    batch_size=len(batch),
                )
            lead = traced[0]
            for item in traced[1:]:
                if item.ctx.trace is lead.ctx.trace:
                    continue  # same request: it owns the batch subtree
                obs_trace.record_span(
                    item.ctx,
                    "batcher.shared_batch",
                    now,
                    0.0,
                    lead_trace=lead.ctx.trace.trace_id,
                    batch_size=len(batch),
                )
            with obs_trace.use_context(lead.ctx):
                with obs_trace.span("batcher.batch") as sp:
                    sp.set(batch_size=len(batch), traced=len(traced))
                    return self._score_batch_items(batch)
        return self._score_batch_items(batch)

    def _score_batch_items(self, batch: List[_ScoreItem]) -> List[tuple]:
        service = self.service
        results: List[tuple] = []
        node_items: List[_ScoreItem] = []
        for item in batch:
            if item.kind == "node":
                node = item.payload[0]
                if 0 <= node < service.store.num_nodes:
                    node_items.append(item)
                else:
                    error = IndexError(
                        f"node {node} not in store "
                        f"(num_nodes={service.store.num_nodes})"
                    )
                    results.append((item, error))
            else:
                try:
                    results.append((item, service.score_edge(*item.payload)))
                except Exception as error:
                    results.append((item, error))
        if node_items:
            try:
                scores = service.score_nodes([item.payload[0] for item in node_items])
                results.extend(
                    (item, float(score)) for item, score in zip(node_items, scores)
                )
            except Exception as error:
                results.extend((item, error) for item in node_items)
        return results
