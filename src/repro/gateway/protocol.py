"""Request protocol shared by every serving transport.

One request schema serves every transport ``serve`` speaks — lines on
stdin (or ``--input FILE``), NDJSON over TCP, the HTTP adapter — and
:meth:`repro.gateway.Gateway.dispatch` answers them all.  This module
holds request parsing, the error envelopes, and
:func:`dispatch_request` for the store, refresh, compact and stats ops.
A request is a JSON object with an ``op`` field::

    {"op": "score", "nodes": [0, 1, 2]}
    {"op": "score_edge", "u": 0, "v": 5}
    {"op": "add_node", "features": [...]}
    {"op": "add_edge", "u": 0, "v": 5}
    {"op": "update_features", "node": 3, "features": [...]}
    {"op": "refresh", "workers": 2}
    {"op": "compact"}
    {"op": "stats"}

Node ids, edge endpoints, versions and worker counts must be JSON
integers (:func:`~repro.utils.validation.check_int`).  Responses echo
``op`` (and ``id`` when the request carried one, so pipelining clients
can correlate) and set ``ok``.  Errors come back as ``{"ok": false,
"error": ..., "error_type": ..., "code": ...}`` — the same envelope on every
transport (``code`` doubles as the HTTP status when the request arrived
over the HTTP adapter) — and a bad request must never take a server
down, whichever transport delivered it.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from ..obs import trace as obs_trace
from ..utils.validation import check_int

#: Exception types a request handler converts into an error response.
#: RuntimeError/OSError cover sharded-refresh failures (worker crash,
#: shared-memory exhaustion).
REQUEST_ERRORS = (ValueError, KeyError, IndexError, TypeError,
                  RuntimeError, OSError)

#: Ops accepted through the gateway's ``POST /v1/update`` endpoint.
UPDATE_OPS = frozenset({"add_node", "add_edge", "update_features",
                        "refresh", "compact"})

#: HTTP status by handler error type — the transport-parity contract.
#: Every error envelope carries the matching ``code`` whether it went
#: out over NDJSON or HTTP, so clients switch transports without
#: changing their error handling.  ``KeyError`` maps to 400 (it means a
#: missing request field or an absent edge — a client-side problem),
#: ``IndexError`` to 404 (a node id outside the store), and worker or
#: shared-memory failures to 500.
ERROR_CODES = {
    "ValueError": 400,
    "TypeError": 400,
    "KeyError": 400,
    "IndexError": 404,
    "RuntimeError": 500,
    "OSError": 500,
}


def parse_request(line: str) -> dict:
    """Parse one JSONL request line; raises ``ValueError`` with a
    client-presentable message on malformed input."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"invalid JSON: {error}") from error
    if not isinstance(request, dict):
        raise ValueError(
            f"request must be a JSON object, got {type(request).__name__}")
    return request


def error_response(error: BaseException,
                   request: Optional[dict] = None) -> dict:
    """Structured error envelope (echoes the request's op/id)."""
    name = type(error).__name__
    response = {"ok": False, "error": str(error), "error_type": name,
                "code": ERROR_CODES.get(name, 400)}
    if isinstance(request, dict):
        if "op" in request:
            response["op"] = request["op"]
        if "id" in request:
            response["id"] = request["id"]
    return response


def rejection_response(reason: str, code: int) -> dict:
    """Admission-rejection envelope: same shape as every other error
    (``error_type`` is ``AdmissionRejected``) plus the machine-readable
    ``reason`` clients key their backoff on."""
    return {"ok": False, "error": f"request rejected: {reason}",
            "error_type": "AdmissionRejected", "reason": reason,
            "code": int(code)}


def transport_error(message: str, error_type: str, code: int) -> dict:
    """Envelope for transport-level failures (no route, bad method,
    oversized body) that never reach a request handler — kept in the
    standard shape so HTTP clients parse exactly one error schema."""
    return {"ok": False, "error": message, "error_type": error_type,
            "code": int(code)}


def attach_request_id(response: dict, request) -> dict:
    """Echo a request's ``id`` into its response (no-op without one)."""
    if isinstance(request, dict) and "id" in request:
        response["id"] = request["id"]
    return response


def dispatch_request(service, request: dict,
                     refresh_workers: Optional[int] = None) -> dict:
    """Run one store, refresh, compact or stats request against a
    :class:`ScoringService`.

    ``score`` and ``score_edge`` are answered by the gateway's batcher,
    not here.  ``refresh_workers`` is the server-wide default for
    ``refresh`` requests; a request may override it with its own
    ``workers`` field, an integer from 1 to the host's CPU count.
    Raises one of :data:`REQUEST_ERRORS` on bad input — the transport
    wraps it with :func:`error_response`.
    """
    if not isinstance(request, dict):
        raise ValueError(
            f"request must be a JSON object, got {type(request).__name__}")
    op = request.get("op")
    with obs_trace.span(f"protocol.{op}"):
        return _dispatch_op(service, request, op, refresh_workers)


def _request_workers(value) -> int:
    """A ``refresh`` request's ``workers``, bounded by the CPU count.

    Checked before any pool exists: under the fork start method a pool
    launches every worker it was sized for on its first task, so an
    unbounded value would let one request fork without limit.
    """
    limit = os.cpu_count() or 1
    if not 1 <= check_int(value, "refresh workers") <= limit:
        raise ValueError(
            f"refresh workers must be an integer from 1 to {limit}, "
            f"got {value!r}")
    return value


def _dispatch_op(service, request: dict, op,
                 refresh_workers: Optional[int]) -> dict:
    store = service.store
    if op == "add_node":
        features = np.asarray(request["features"], dtype=np.float64)
        (node,) = store.add_nodes(features.reshape(1, -1))
        return {"ok": True, "op": op, "node": int(node),
                "version": store.version}
    if op == "add_edge":
        added = store.add_edge(check_int(request["u"], "u"),
                               check_int(request["v"], "v"))
        return {"ok": True, "op": op, "added": bool(added),
                "version": store.version}
    if op == "update_features":
        features = np.asarray(request["features"], dtype=np.float64)
        store.update_features([check_int(request["node"], "node")],
                              features.reshape(1, -1))
        return {"ok": True, "op": op, "version": store.version}
    if op == "refresh":
        workers = (_request_workers(request["workers"])
                   if "workers" in request else refresh_workers)
        result = service.refresh(workers=workers)
        order = np.argsort(result.scores)[::-1][:10]
        return {"ok": True, "op": op, "rescored": result.num_rescored,
                "num_nodes": len(result.scores),
                "top_nodes": [int(n) for n in order]}
    if op == "compact":
        # Folds the delta overlay into a fresh base index; contents are
        # identical so no caches drop and no version moves — operators
        # call this to reclaim merge overhead during quiet periods.
        folded = store.compact()
        return {"ok": True, "op": op, "folded": int(folded),
                "pending_edges": int(store.pending_edges),
                "compactions": int(store.compactions),
                "version": store.version}
    if op == "stats":
        return {"ok": True, "op": op, "stats": service.stats()}
    raise ValueError(f"unknown op {op!r}")
