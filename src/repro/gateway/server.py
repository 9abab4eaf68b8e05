"""Asyncio serving gateway: many services, three transports.

:class:`Gateway` is the one front door to one or more
:class:`~repro.serving.service.ScoringService` instances behind a
:class:`~repro.gateway.router.ServiceRouter`; :meth:`Gateway.dispatch`
answers every request ``serve`` receives, whatever carried it:

* **NDJSON** — the request schema of :mod:`repro.gateway.protocol`,
  one request object per line, one response line each, in order.  Over
  TCP it is pipelinable, and a connection speaks NDJSON unless its
  first line looks like an HTTP request.  :meth:`Gateway.serve_stdio`
  runs the same line loop over stdin (``serve`` without ``--listen``).
  A request's ``"service"`` field routes it to a named service; without
  it the default service answers.
* **HTTP/1.1 adapter** — ``POST /v1/score_node``, ``POST
  /v1/score_edge``, ``POST /v1/update``, ``POST /v1/reload``, ``POST
  /v1/admin``, ``POST /v1/lifecycle``, ``GET /healthz``, ``GET
  /metrics`` (Prometheus text), ``GET /v1/stats``, ``GET
  /v1/services``, ``GET /v1/lifecycle``.  Keep-alive supported;
  bodies are JSON.  Routing: the ``/v1/t/<service>/...`` path prefix
  or the ``X-Repro-Service`` header select a named service.

Score requests funnel into per-service
:class:`~repro.gateway.batcher.MicroBatcher` endpoints, so concurrent
clients share forward batches (bitwise-equal to sequential scoring —
the service's counter-based RNG guarantees it).  Endpoints with
``replicas > 1`` fan reads out across worker processes sharing the
graph read-only (:class:`~repro.gateway.router.ReplicaPool`).
Admission control sheds load before it queues, a registry watcher
hot-swaps newly published model versions between batches with zero
downtime, and **every** error — handler failures, admission
rejections, and transport-level problems alike — answers with the same
``{"ok": false, "error", "error_type", "code"}`` envelope on both
transports (the ``code`` doubles as the HTTP status).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import logging
import os
import queue
import sys
import threading
from collections import deque
from typing import List, Optional, Tuple

from ..obs import trace as obs_trace
from ..obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from ..obs.trace import FlightRecorder, span_tree
from ..utils.logging import get_logger, log_event
from ..utils.validation import check_int
from .admission import DRAINING, AdmissionController
from .protocol import (
    REQUEST_ERRORS,
    UPDATE_OPS,
    attach_request_id,
    error_response,
    parse_request,
    rejection_response,
    transport_error,
)
from .router import (
    DEFAULT_SERVICE,
    ServiceEndpoint,
    ServiceRouter,
    parse_tenant_spec,
)

LOGGER = get_logger("repro.gateway", json_format=True)

#: HTTP status by admission rejection reason.
_SHED_STATUS = {DRAINING: 503}
_MAX_LINE = 1 << 20  # 1 MiB: update_features bodies on wide graphs

_HTTP_METHODS = (b"GET ", b"POST ", b"PUT ", b"DELETE ", b"HEAD ",
                 b"OPTIONS ", b"PATCH ")

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Ops that get their own latency histogram on ``/metrics``; anything
#: else (including unknown ops) lands in the ``other`` series so a
#: misbehaving client cannot mint unbounded metric names.
_KNOWN_OPS = frozenset({"score", "score_edge", "add_node", "add_edge",
                        "update_features", "refresh", "compact", "stats",
                        "reload", "attach_service", "detach_service",
                        "services", "lifecycle_status", "lifecycle"})

#: Router administration ops — handled by the gateway itself, before
#: (and without) endpoint resolution.
_ADMIN_OPS = frozenset({"attach_service", "detach_service", "services"})

#: Continual-learning controller ops — also gateway-level, answered by
#: the attached :class:`~repro.lifecycle.LifecycleController`.
_LIFECYCLE_OPS = frozenset({"lifecycle_status", "lifecycle"})


class Gateway:
    """Networked serving gateway over routed :class:`ScoringService`\\ s.

    Parameters
    ----------
    service:
        The default scoring service (route key ``"default"``); after
        :meth:`start` it must only be touched through the gateway (its
        endpoint's batcher owns the scoring thread).  ``None`` boots a
        tenants-only gateway where every request must name a service.
    registry / model_name:
        Optional :class:`~repro.serving.registry.ModelRegistry` source
        enabling ``POST /v1/reload`` and background version watching
        for the default service.
    max_batch:
        Micro-batch cap (see :class:`MicroBatcher`), shared by every
        endpoint the router creates.
    max_delay_ms:
        Ignored: batches dispatch as soon as the scoring thread is free.
        Kept for callers such as ``perfbench/workloads.py``.
    max_queue / rate / burst:
        Admission knobs (see :class:`AdmissionController`).
    refresh_workers:
        Server-wide default for ``refresh`` requests' sharded drain.
    poll_interval:
        Seconds between registry version checks, positive; ``None``
        disables the watcher (``/v1/reload`` still works).
    replicas:
        Replica count for the default service; ``> 1`` wraps it in a
        :class:`~repro.gateway.router.ReplicaPool` (N processes sharing
        the graph read-only, least-loaded dispatch, single-writer
        mutation fan-in).
    tenants / idle_ttl / lazy_tenants:
        Tenant specs (:class:`~repro.gateway.router.TenantSpec` or
        plain dicts with a ``name``) registered with the router.
        Tenants boot lazily on first request unless
        ``lazy_tenants=False``; with ``idle_ttl`` set (positive), a
        background sweeper evicts tenants idle that many seconds (their
        specs stay registered, so the next request reboots them).
    lifecycle / lifecycle_interval:
        Optional :class:`~repro.lifecycle.LifecycleController` for the
        default service.  The gateway serializes its store reads with
        forward batches, reports the endpoint's served version to the
        guardrail, forks its retrain worker in :meth:`start` and, with
        ``lifecycle_interval`` set (positive), ticks it every that many
        seconds (otherwise only ``{"op": "lifecycle", "action": ...}`` /
        ``POST /v1/lifecycle`` drive it; ``lifecycle_status`` / ``GET
        /v1/lifecycle`` read it).
    tracing / trace_slow_ms / recorder:
        Every admitted request runs under a ``gateway.<op>`` trace,
        recorded into a :class:`~repro.obs.trace.FlightRecorder`
        (installed process-wide while the gateway runs) and served by
        ``GET /v1/trace/<id>`` / ``GET /v1/traces``.  ``trace_slow_ms``
        is its slow-retention threshold; pass a ``recorder`` to share
        one, or ``tracing=False`` to make the layer no-ops.
    """

    def __init__(self, service=None, registry=None,
                 model_name: Optional[str] = None,
                 *, max_batch: int = 32, max_delay_ms: float = 2.0,
                 max_queue: int = 256, rate: Optional[float] = None,
                 burst: Optional[float] = None,
                 refresh_workers: Optional[int] = None,
                 poll_interval: Optional[float] = None,
                 model_version: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 replicas: int = 1,
                 tenants=None,
                 idle_ttl: Optional[float] = None,
                 lazy_tenants: bool = True,
                 lifecycle=None,
                 lifecycle_interval: Optional[float] = None,
                 tracing: bool = True,
                 trace_slow_ms: float = 250.0,
                 recorder: Optional[FlightRecorder] = None):
        for setting, seconds in (("poll_interval", poll_interval),
                                 ("idle_ttl", idle_ttl),
                                 ("lifecycle_interval", lifecycle_interval)):
            if seconds is not None and seconds <= 0:
                raise ValueError(f"{setting} must be positive, got {seconds}")
        self.registry = registry
        self.model_name = model_name
        self.refresh_workers = refresh_workers
        self.poll_interval = poll_interval
        self.idle_ttl = idle_ttl
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.admission = AdmissionController(max_queue=max_queue,
                                             rate=rate, burst=burst)
        self.router = ServiceRouter(metrics=self.metrics, max_batch=max_batch)
        if service is not None:
            self.router.add(self.router.make_endpoint(
                DEFAULT_SERVICE, service, replicas=replicas,
                registry=registry, model_name=model_name,
                model_version=model_version))
        for spec in (tenants or []):
            if isinstance(spec, dict):
                spec = dict(spec)
                spec = parse_tenant_spec(spec.pop("name", None), spec)
            self.router.register_spec(spec)
        self._lazy_tenants = lazy_tenants
        if recorder is not None:
            self.recorder: Optional[FlightRecorder] = recorder
        elif tracing:
            self.recorder = FlightRecorder(slow_ms=trace_slow_ms)
        else:
            self.recorder = None
        self._prev_recorder: Optional[FlightRecorder] = None
        self._op_latency = {}
        self.lifecycle = lifecycle
        self.lifecycle_interval = lifecycle_interval
        self._server: Optional[asyncio.base_events.Server] = None
        self._periodic: List[asyncio.Task] = []  # see _every
        self._stopping = False  # set by stop(): stdin reads no more lines
        self._requests_total = self.metrics.counter(
            "gateway_requests_total", "requests received (all transports)")
        self._shed_total = self.metrics.counter(
            "gateway_shed_total", "requests rejected by admission control")
        self._errors_total = self.metrics.counter(
            "gateway_request_errors_total",
            "requests answered with ok=false, plus failed steps of the "
            "registry watcher, idle sweeper and lifecycle ticker")
        self._swaps_total = self.metrics.counter(
            "gateway_model_swaps_total", "zero-downtime model hot-swaps")
        self._connections = self.metrics.counter(
            "gateway_connections_total", "TCP connections accepted")
        self._latency = self.metrics.histogram(
            "gateway_request_latency_seconds",
            "request latency from parse to response", LATENCY_BUCKETS)
        self.metrics.gauge("gateway_inflight",
                           "admitted requests not yet answered",
                           fn=lambda: self.admission.inflight)
        self.metrics.gauge("gateway_draining", "1 while draining",
                           fn=lambda: float(self.admission.draining))
        self.metrics.gauge("gateway_services", "attached service endpoints",
                           fn=lambda: float(len(self.router.names())))

    # ------------------------------------------------------------------
    # The default endpoint's surface
    # ------------------------------------------------------------------
    @property
    def _default(self) -> Optional[ServiceEndpoint]:
        return self.router.get(self.router.default_name)

    @property
    def batcher(self):
        endpoint = self._default
        return endpoint.batcher if endpoint is not None else None

    @property
    def served_version(self) -> Optional[int]:
        endpoint = self._default
        return endpoint.served_version if endpoint is not None else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: Optional[str] = "127.0.0.1",
                    port: int = 0) -> Optional[Tuple[str, int]]:
        """Start the endpoints, the TCP server, and (optionally) the
        registry watcher and idle sweeper; returns the bound
        ``(host, port)``.  ``host=None`` opens no socket (the stdin
        transport), starts the endpoints inline and returns ``None``."""
        if self.recorder is not None:
            self._prev_recorder = obs_trace.install(self.recorder)
        self.router.inline = host is None
        for endpoint in self.router.endpoints():
            await endpoint.start(self.router.inline)
        if not self._lazy_tenants:
            for name in self.router.spec_names():
                await self.router.resolve(name)
        if host is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, host, port, limit=_MAX_LINE)
        loop = asyncio.get_running_loop()
        if (self.registry is not None and self.model_name is not None
                and self.poll_interval is not None
                and self._default is not None):
            self._every(self.poll_interval, self._poll_registry,
                        "registry watch")
        if self.idle_ttl is not None:
            # Spec-backed tenants idle past idle_ttl reboot lazily.
            self._every(max(min(self.idle_ttl / 4.0, 30.0), 0.05),
                        lambda: self.router.evict_idle(
                            self.idle_ttl, self.admission.inflight_for),
                        "idle sweep")
        if self.lifecycle is not None and self._default is not None:
            self._wire_lifecycle()
            await loop.run_in_executor(None, self.lifecycle.start)
            if self.lifecycle_interval is not None:
                # A tick that collects a finished retrain validates and
                # publishes in its executor thread, so it can take
                # seconds; the controller records its own last_error.
                self._every(self.lifecycle_interval,
                            lambda: loop.run_in_executor(
                                None, self.lifecycle.tick),
                            "lifecycle tick")
        if self._server is None:
            return None
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    def _every(self, interval: float, step, name: str) -> None:
        """Run the coroutine ``step()`` every ``interval`` seconds until
        :meth:`stop` cancels it.  A failed step never ends the loop: it
        is counted in ``gateway_request_errors_total``, logged, and the
        next step runs on schedule."""
        async def run() -> None:
            while True:
                await asyncio.sleep(interval)
                try:
                    await step()
                except Exception as error:
                    self._errors_total.inc()
                    log_event(LOGGER, logging.WARNING, f"{name} failed",
                              error=str(error),
                              error_type=type(error).__name__)

        self._periodic.append(asyncio.ensure_future(run()))

    def _wire_lifecycle(self) -> None:
        """Point the controller's deployment hooks at this gateway.

        Store reads (snapshot + drift/churn signal) are submitted to
        the default endpoint's batcher — the controller ticks in an
        executor thread, so ``run_coroutine_threadsafe`` back into
        the loop is safe — and the guardrail watches the version the
        endpoint *actually* serves, not merely the registry's latest.
        """
        endpoint = self._default
        controller = self.lifecycle
        loop = asyncio.get_running_loop()

        def on_scoring_thread(fn):
            return asyncio.run_coroutine_threadsafe(
                endpoint.submit(fn), loop).result()

        controller.served_version_fn = lambda: endpoint.served_version
        controller.snapshot_fn = lambda: on_scoring_thread(
            endpoint.service.store.snapshot)
        controller.signal_fn = lambda: on_scoring_thread(
            controller._read_signal)

    async def stop(self, drain_timeout: float = 30.0) -> bool:
        """Graceful shutdown: stop accepting, drain in-flight requests,
        stop every endpoint.  Returns ``True`` if the drain completed
        inside ``drain_timeout``."""
        self._stopping = True
        for task in self._periodic:
            task.cancel()
        await asyncio.gather(*self._periodic, return_exceptions=True)
        self._periodic = []
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.lifecycle is not None:
            # Tick task is already cancelled; tear the retrain executor
            # down off-loop (an in-flight retrain is abandoned).
            await asyncio.get_running_loop().run_in_executor(
                None, self.lifecycle.close, False)
        self.admission.begin_drain()
        drained = await self.admission.wait_drained(drain_timeout)
        await self.router.stop_all()
        if self.recorder is not None:
            obs_trace.uninstall(self._prev_recorder)
            self._prev_recorder = None
        return drained

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.inc()
        peer = writer.get_extra_info("peername")
        client = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        log_event(LOGGER, logging.DEBUG, "connection open", client=client)
        try:
            first = await reader.readline()
            if not first:
                return
            if first.startswith(_HTTP_METHODS):
                await self._http_loop(reader, writer, first, client)
            else:
                async def send(text: str) -> None:
                    writer.write(text.encode())
                    await writer.drain()

                await self._ndjson_loop(first, reader.readline, send, client)
        # ValueError covers StreamReader.readline on an over-limit line
        # (it converts LimitOverrunError): drop the connection cleanly —
        # the stream cannot be resynced past a truncated request.
        except (ConnectionError, asyncio.IncompleteReadError,
                ValueError) as error:
            # client went away or sent garbage; nothing to answer
            log_event(LOGGER, logging.DEBUG, "connection dropped",
                      client=client, error=str(error),
                      error_type=type(error).__name__)
        finally:
            log_event(LOGGER, logging.DEBUG, "connection closed",
                      client=client)
            self.admission.forget_client(client)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # NDJSON transport (TCP connections and stdin)
    # ------------------------------------------------------------------
    async def _ndjson_loop(self, line: bytes, readline, send,
                           client: str) -> None:
        """Answer request lines in order, one ``send`` per non-blank
        line, until ``readline`` returns ``b""``."""
        while line:
            text = line.decode("utf-8", errors="replace").strip()
            if text:
                response = await self._handle_request_line(text, client)
                await send(json.dumps(response) + "\n")
            line = await readline()

    async def serve_stdio(self, fd: int, out) -> None:
        """Answer the NDJSON lines of file descriptor ``fd`` on the text
        stream ``out``, flushing each response, until end of input, a
        closed ``out`` or :meth:`stop`.  Once every line read is answered
        a daemon thread reads the next chunk with raw ``os.read``, which
        holds no lock: a read blocked at exit cannot stall shutdown."""
        asks: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=_read_chunks, args=(fd, asks),
                         name="stdin-reader", daemon=True).start()
        lines: deque = deque()
        partial = b""

        async def readline() -> bytes:
            nonlocal partial
            while not (lines or self._stopping):
                ask: concurrent.futures.Future = concurrent.futures.Future()
                asks.put(ask)
                chunk = await asyncio.wrap_future(ask)
                *complete, partial = (partial + chunk).split(b"\n")
                lines.extend(line + b"\n" for line in complete)
                if not chunk:  # end of input; the last line may lack "\n"
                    lines.append(partial)
                    partial = b""
            return b"" if self._stopping else lines.popleft()

        async def send(text: str) -> None:
            out.write(text)
            out.flush()

        try:
            await self._ndjson_loop(await readline(), readline, send,
                                    "stdin")
        except (BrokenPipeError, ValueError):
            pass  # ``out`` is closed: nobody reads the answers any more
        finally:
            asks.put(None)

    async def _handle_request_line(self, text: str, client: str) -> dict:
        try:
            request = parse_request(text)
        except ValueError as error:
            self._errors_total.inc()
            return error_response(error)
        return await self.dispatch(request, client)

    # ------------------------------------------------------------------
    # Request dispatch (shared by both transports)
    # ------------------------------------------------------------------
    def _op_hist(self, op_name: str):
        """The per-op latency histogram (created on first use)."""
        hist = self._op_latency.get(op_name)
        if hist is None:
            hist = self.metrics.histogram(
                f"gateway_op_latency_seconds_{op_name}",
                f"latency of {op_name} requests", LATENCY_BUCKETS)
            self._op_latency[op_name] = hist
        return hist

    async def dispatch(self, request: dict, client: str) -> dict:
        """Admit, route, trace, and time one parsed request.

        The optional ``"service"`` field picks the endpoint (default
        service otherwise); admin ops go to the router itself.
        Admitted requests run under a ``gateway.<op>`` root trace (shed
        requests stay untraced — rejection must stay allocation-cheap)
        and the response carries its ``trace_id`` so clients can fetch
        the span tree from ``GET /v1/trace/<id>``.
        """
        self._requests_total.inc()
        name = request.get("service")
        if name is not None and not isinstance(name, str):
            self._errors_total.inc()
            return attach_request_id(
                transport_error("'service' must be a string",
                                "ValueError", 400), request)
        service_key = name if name is not None else self.router.default_name
        reason = self.admission.admit(client, service=service_key)
        if reason is not None:
            self._shed_total.inc()
            return attach_request_id(
                rejection_response(reason, _SHED_STATUS.get(reason, 429)),
                request)
        op = request.get("op")
        op_name = op if isinstance(op, str) and op in _KNOWN_OPS else "other"
        loop = asyncio.get_running_loop()
        started = loop.time()
        trace_id = None
        try:
            with obs_trace.trace(f"gateway.{op_name}") as root:
                root.set(op=str(op), client=client, service=service_key)
                buffer = root.trace
                if buffer is not None:
                    trace_id = buffer.trace_id
                if op in _ADMIN_OPS:
                    response = await self._admin_op(request)
                elif op in _LIFECYCLE_OPS:
                    response = await self._lifecycle_op(request)
                else:
                    endpoint = await self.router.resolve(name)
                    endpoint.touch()
                    response = await self._route_op(endpoint, request)
        except REQUEST_ERRORS as error:
            self._errors_total.inc()
            log_event(LOGGER, logging.WARNING, "request failed",
                      op=str(op), client=client, service=service_key,
                      error=str(error), error_type=type(error).__name__)
            response = error_response(error, request)
        finally:
            self.admission.release(service=service_key)
            elapsed = loop.time() - started
            self._latency.observe(elapsed)
            self._op_hist(op_name).observe(elapsed)
        if trace_id is not None:
            response.setdefault("trace_id", trace_id)
        return attach_request_id(response, request)

    async def _route_op(self, endpoint: ServiceEndpoint,
                        request: dict) -> dict:
        op = request.get("op")
        if op == "score":
            nodes = request["nodes"]
            if not isinstance(nodes, list):
                raise ValueError(f"nodes must be a JSON list, got {nodes!r}")
            nodes = [check_int(node, "each node id") for node in nodes]
            scores = await asyncio.gather(
                *(endpoint.score_node(n) for n in nodes),
                return_exceptions=True)
            for score in scores:  # retrieve every failure, raise the first
                if isinstance(score, BaseException):
                    raise score
            return {"ok": True, "op": op,
                    "scores": {str(n): float(s)
                               for n, s in zip(nodes, scores)}}
        if op == "score_edge":
            u = check_int(request["u"], "u")
            v = check_int(request["v"], "v")
            score = await endpoint.score_edge(u, v)
            return {"ok": True, "op": op, "u": u, "v": v, "score": score}
        if op == "reload":
            version = request.get("version")
            return await self.reload(
                None if version is None else check_int(version, "version"),
                endpoint=endpoint)
        # Mutations / stats / refresh run serialized on the endpoint's
        # scoring thread, FIFO with forward batches (replica pools add
        # the quiesce + shared-memory resync around mutations).
        response = await endpoint.run_op(request, self.refresh_workers)
        if (op == "stats" and self.lifecycle is not None
                and endpoint is self._default and response.get("ok")):
            response["lifecycle"] = {"state": self.lifecycle.state,
                                     **self.lifecycle.counters()}
        return response

    async def _admin_op(self, request: dict) -> dict:
        """Router administration: attach/detach services, list them."""
        op = request["op"]
        if op == "services":
            return {"ok": True, "op": op, **self.router.describe()}
        name = request.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{op} requires a service 'name'")
        if op == "attach_service":
            payload = request.get("spec")
            if payload is not None:
                self.router.register_spec(parse_tenant_spec(name, payload))
            elif not self.router.has_spec(name):
                raise ValueError(
                    "attach_service needs a 'spec' (or a previously "
                    "registered one)")
            if request.get("lazy"):
                return {"ok": True, "op": op, "service": name,
                        "attached": False, "lazy": True}
            endpoint = await self.router.resolve(name)
            return {"ok": True, "op": op, "service": name,
                    "attached": True, **endpoint.describe()}
        # detach_service: stop the endpoint; keep_spec retains the
        # tenant spec so a later request lazily reboots it.
        await self.router.detach(name,
                                 keep_spec=bool(request.get("keep_spec")))
        return {"ok": True, "op": op, "service": name, "detached": True}

    async def _lifecycle_op(self, request: dict) -> dict:
        """Continual-learning controller surface.

        ``lifecycle_status`` reads the controller; ``lifecycle`` with
        ``action`` trigger/pause/resume/rollback drives it.  Controller
        calls block (they take its lock and may probe models), so they
        run in an executor thread, never on the event loop.
        """
        if self.lifecycle is None:
            raise ValueError("no lifecycle controller configured "
                             "(serve with --autotrain)")
        op = request["op"]
        loop = asyncio.get_running_loop()
        if op == "lifecycle_status":
            status = await loop.run_in_executor(None, self.lifecycle.status)
            return {"ok": True, "op": op, **status}
        action = request.get("action")
        if action == "trigger":
            result = await loop.run_in_executor(
                None, self.lifecycle.trigger,
                str(request.get("reason", "manual")))
        elif action == "pause":
            result = await loop.run_in_executor(None, self.lifecycle.pause)
        elif action == "resume":
            result = await loop.run_in_executor(None, self.lifecycle.resume)
        elif action == "rollback":
            result = await loop.run_in_executor(
                None, self.lifecycle.rollback,
                str(request.get("reason", "manual rollback")))
        elif action == "status":
            result = await loop.run_in_executor(None, self.lifecycle.status)
        else:
            raise ValueError(
                "lifecycle 'action' must be one of trigger, pause, resume, "
                "rollback, status")
        return {"ok": True, "op": op, "action": action, **result}

    # ------------------------------------------------------------------
    # Model hot-swap
    # ------------------------------------------------------------------
    async def reload(self, version: Optional[int] = None,
                     endpoint: Optional[ServiceEndpoint] = None) -> dict:
        """Swap an endpoint to a registry version (latest when
        unspecified; default endpoint when unnamed).

        The checkpoint loads off-thread, then the swap itself runs on
        the scoring thread between batches — in-flight and queued
        requests before the swap score under the old weights, requests
        after it under the new ones, and nobody observes a torn model
        (replica pools quiesce reads and republish the shared model).
        """
        if endpoint is None:
            endpoint = self._default
        if (endpoint is None or endpoint.registry is None
                or endpoint.model_name is None):
            raise ValueError("no model registry configured")
        loop = asyncio.get_running_loop()
        if version is None:
            version = await loop.run_in_executor(
                None, endpoint.registry.latest, endpoint.model_name)
        if version == endpoint.served_version:
            return {"ok": True, "op": "reload", "service": endpoint.name,
                    "version": version, "swapped": False}
        model = await loop.run_in_executor(
            None, endpoint.registry.load, endpoint.model_name, version)
        await endpoint.swap_model(model)
        endpoint.served_version = version
        self._swaps_total.inc()
        return {"ok": True, "op": "reload", "service": endpoint.name,
                "version": version, "swapped": True}

    async def _poll_registry(self) -> None:
        """Hot-swap the default service when the registry holds a newer
        version (a failed poll, e.g. a partial publish, retries on the
        next one)."""
        latest = await asyncio.get_running_loop().run_in_executor(
            None, self.registry.latest, self.model_name)
        if latest != self.served_version:
            await self.reload(latest)

    # ------------------------------------------------------------------
    # HTTP transport
    # ------------------------------------------------------------------
    async def _http_loop(self, reader, writer, request_line: bytes,
                         client: str) -> None:
        while True:
            if request_line is None:
                request_line = await reader.readline()
                if not request_line:
                    return
            try:
                method, path, http_version = \
                    request_line.decode("latin-1").split(None, 2)
            except ValueError:
                await self._write_http(
                    writer, 400,
                    transport_error("malformed request line",
                                    "BadRequest", 400), close=True)
                return
            headers = {}
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = b""
            raw_length = headers.get("content-length")
            length = 0
            if raw_length is not None:
                try:
                    length = int(raw_length)
                except ValueError:
                    length = -1
                if length < 0:
                    # Non-numeric or negative Content-Length: answering
                    # anything else would desync framing, so respond
                    # 400 and close instead of letting readexactly
                    # blow up the connection with no response at all.
                    self._errors_total.inc()
                    await self._write_http(
                        writer, 400,
                        transport_error(
                            f"bad Content-Length {raw_length!r}",
                            "BadRequest", 400), close=True)
                    return
            if length > _MAX_LINE:
                # Same 1 MiB cap the NDJSON transport enforces per
                # line, rejected BEFORE reading the body — a declared
                # multi-GiB upload costs the server nothing.  The
                # unread body makes the connection unusable for
                # keep-alive, so close it.
                self._errors_total.inc()
                await self._write_http(
                    writer, 413,
                    transport_error(
                        f"request body of {length} bytes exceeds the "
                        f"{_MAX_LINE} byte cap", "PayloadTooLarge", 413),
                    close=True)
                return
            if length:
                body = await reader.readexactly(length)
            keep_alive = (headers.get("connection", "").lower() != "close"
                          and http_version.strip().upper() != "HTTP/1.0")
            status, payload, content_type = await self._http_route(
                method.upper(), path, body, client, headers)
            await self._write_http(writer, status, payload,
                                   content_type=content_type,
                                   close=not keep_alive)
            if not keep_alive:
                return
            request_line = None

    async def _http_route(self, method: str, path: str, body: bytes,
                          client: str, headers: Optional[dict] = None):
        """Route one HTTP request to the shared dispatcher.

        Service selection: the ``/v1/t/<service>/...`` prefix rewrites
        to the plain route with the service name attached; the
        ``X-Repro-Service`` header does the same without touching the
        path (the prefix wins when both are present).
        """
        headers = headers or {}
        path, _, query = path.partition("?")
        service_name = headers.get("x-repro-service") or None
        if path.startswith("/v1/t/"):
            tenant, slash, rest = path[len("/v1/t/"):].partition("/")
            if not tenant or not slash or not rest:
                return 404, transport_error(
                    f"no route {method} {path}", "NotFound", 404), None
            service_name = tenant
            path = "/v1/" + rest
        if method == "GET":
            if path == "/healthz":
                return 200, self._healthz(), None
            if path == "/metrics":
                return 200, await self.render_metrics(), \
                    "text/plain; version=0.0.4"
            if path == "/v1/stats":
                request = {"op": "stats"}
                if service_name:
                    request["service"] = service_name
                response = await self.dispatch(request, client)
                return (200 if response.get("ok")
                        else response.get("code", 500)), response, None
            if path == "/v1/services":
                response = await self.dispatch({"op": "services"}, client)
                return (200 if response.get("ok")
                        else response.get("code", 500)), response, None
            if path == "/v1/lifecycle":
                response = await self.dispatch({"op": "lifecycle_status"},
                                               client)
                return (200 if response.get("ok")
                        else response.get("code", 500)), response, None
            if path.startswith("/v1/trace/"):
                return self._trace_route(path[len("/v1/trace/"):])
            if path == "/v1/traces":
                return self._traces_route(query)
            return 404, transport_error(f"no route GET {path}",
                                        "NotFound", 404), None
        if method != "POST":
            return 405, transport_error(f"method {method} not allowed",
                                        "MethodNotAllowed", 405), None
        try:
            text = body.decode("utf-8") if body else ""
            request = parse_request(text) if text.strip() else {}
        except (ValueError, UnicodeDecodeError) as error:
            self._errors_total.inc()
            return 400, error_response(error), None
        route_ops = {"/v1/score_node": "score", "/v1/score_edge": "score_edge",
                     "/v1/reload": "reload"}
        if path in route_ops:
            request["op"] = route_ops[path]
            if request["op"] == "score" and "nodes" not in request:
                if "node" not in request:
                    return 400, transport_error(
                        "body needs 'node' or 'nodes'",
                        "BadRequest", 400), None
                request["nodes"] = [request.pop("node")]
        elif path == "/v1/update":
            if request.get("op") not in UPDATE_OPS:
                return 400, transport_error(
                    "update op must be one of "
                    + ", ".join(sorted(UPDATE_OPS)), "BadRequest", 400), None
        elif path == "/v1/admin":
            if request.get("op") not in _ADMIN_OPS:
                return 400, transport_error(
                    "admin op must be one of "
                    + ", ".join(sorted(_ADMIN_OPS)), "BadRequest", 400), None
        elif path == "/v1/lifecycle":
            request["op"] = "lifecycle"
        else:
            return 404, transport_error(f"no route POST {path}",
                                        "NotFound", 404), None
        if service_name and "service" not in request:
            request["service"] = service_name
        response = await self.dispatch(request, client)
        if response.get("ok"):
            return 200, response, None
        return response.get("code", 400), response, None

    def _healthz(self) -> dict:
        body = {"ok": True,
                "status": ("draining" if self.admission.draining
                           else "serving"),
                "services": self.router.names(),
                "lazy_services": sorted(
                    set(self.router.spec_names()) - set(self.router.names()))}
        default = self._default
        if default is not None:
            body["model_version"] = default.served_version
            body["num_nodes"] = default.service.store.num_nodes
            body["num_edges"] = default.service.store.num_edges
        if self.lifecycle is not None:
            body["lifecycle"] = self.lifecycle.state
        return body

    def _trace_route(self, trace_id: str):
        """``GET /v1/trace/<id>`` — one retained trace as a span tree."""
        if self.recorder is None:
            return 404, transport_error("tracing disabled",
                                        "NotFound", 404), None
        record = self.recorder.get(trace_id)
        if record is None:
            return 404, transport_error(f"trace {trace_id!r} not retained",
                                        "NotFound", 404), None
        return 200, {"ok": True, "trace": span_tree(record)}, None

    def _traces_route(self, query: str):
        """``GET /v1/traces[?slow_ms=&limit=]`` — retained-trace summaries."""
        if self.recorder is None:
            return 404, transport_error("tracing disabled",
                                        "NotFound", 404), None
        slow_ms = None
        limit = 50
        for part in query.split("&"):
            key, _, value = part.partition("=")
            if not value:
                continue
            try:
                if key == "slow_ms":
                    slow_ms = float(value)
                elif key == "limit":
                    limit = int(value)
                    if limit < 0:  # out[:-n] would drop the oldest n
                        raise ValueError(limit)
            except ValueError:
                return 400, transport_error(
                    f"bad query parameter {part!r}", "BadRequest", 400), None
        summaries = [
            {"trace_id": t["trace_id"], "name": t.get("name"),
             "duration_ms": t.get("duration_ms"), "status": t.get("status"),
             "ts": t.get("ts"), "num_spans": len(t.get("spans", []))}
            for t in self.recorder.traces(slow_ms=slow_ms, limit=limit)
        ]
        return 200, {"ok": True, "traces": summaries,
                     "recorder": self.recorder.stats()}, None

    async def render_metrics(self) -> str:
        """Prometheus text: gateway metrics + the default service's
        counters (fetched on its scoring thread, so reads never race a
        batch)."""
        default = self._default
        if default is not None:
            try:
                stats = await default.submit(default.service.stats)
            except RuntimeError:
                stats = default.service.stats()  # draining: thread is quiet
            for key, value in stats.items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    self.metrics.gauge(f"service_{key}").set(value)
        if self.lifecycle is not None:
            for key, value in self.lifecycle.counters().items():
                self.metrics.gauge(
                    f"lifecycle_{key}",
                    f"lifecycle controller {key}").set(float(value))
        return self.metrics.render()

    async def _write_http(self, writer, status: int, payload,
                          content_type: Optional[str] = None,
                          close: bool = False) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            ctype = content_type or "text/plain"
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
            ctype = content_type or "application/json"
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n")
        if status == 429:
            head += "Retry-After: 1\r\n"
        head += f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


def _read_chunks(fd: int, asks: queue.SimpleQueue) -> None:
    """Answer each future from ``asks`` with the next chunk of ``fd``
    (``b""`` at end of input) until ``asks`` yields ``None``."""
    for ask in iter(asks.get, None):
        if not ask.set_running_or_notify_cancel():
            continue
        try:
            ask.set_result(os.read(fd, 1 << 16))
        except Exception as error:  # handed to the awaiting session
            ask.set_exception(error)


async def run_gateway(service=None, host: str = "127.0.0.1",
                      port: int = 0, *, stdin: Optional[int] = None,
                      out=None, registry=None,
                      model_name: Optional[str] = None,
                      **gateway_kwargs) -> None:
    """Run a gateway for ``serve``: on the lines of file descriptor
    ``stdin`` until they end, or, with ``stdin=None``, on
    ``host:port`` until cancelled.

    Writes one NDJSON ready line to ``out`` (default ``sys.stdout``),
    with the bound address when there is a socket.  On cancellation
    (SIGINT via ``asyncio.run``) the gateway drains: the request in
    flight is answered and no further stdin line is read.
    ``service=None`` boots a tenants-only gateway (``tenants=[...]``).
    """
    out = sys.stdout if out is None else out
    gateway = Gateway(service, registry=registry, model_name=model_name,
                      **gateway_kwargs)
    address = await gateway.start(None if stdin is not None else host, port)
    session = None
    try:
        payload = {"ok": True, "op": "ready"}
        if address is not None:
            payload["listen"] = f"{address[0]}:{address[1]}"
        if service is not None:
            payload["num_nodes"] = service.store.num_nodes
            payload["num_edges"] = service.store.num_edges
        payload["services"] = gateway.router.names()
        payload["lazy_services"] = sorted(
            set(gateway.router.spec_names()) - set(gateway.router.names()))
        out.write(json.dumps(payload) + "\n")
        out.flush()
        session = asyncio.ensure_future(
            gateway.serve_stdio(stdin, out) if stdin is not None
            else gateway.serve_forever())
        await asyncio.shield(session)
    finally:
        await gateway.stop()
        if session is not None:
            session.cancel()
            await asyncio.gather(session, return_exceptions=True)
