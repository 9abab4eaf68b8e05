"""What the traced run wraps, and the per-layer metrics it derives.

``TARGETS`` names the public functions of each ``src/repro`` layer the
traced run times.  ``layer_metrics`` turns the spans of one traced
window into the ``per_layer`` metrics of ``BENCHMARK.json``; a metric
whose functions are absent or never called reads 0 and is listed in the
report's ``absent``/call-count fields, never an error.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Tuple

from layers import Span, Target, Tracer, layer_table


def _len_arg(position: int, keyword: Optional[str] = None):
    def count(args, kwargs):
        if keyword is not None and keyword in kwargs:
            return len(kwargs[keyword])
        return len(args[position])
    return count


def _batch_size(position: int):
    return lambda args, kwargs: args[position].batch_size


def _num_nodes(position: int):
    return lambda args, kwargs: args[position].num_nodes


def _self_name(args, kwargs):
    return args[0].name


def _edge_pair(args, kwargs):
    return (int(args[1]), int(args[2]))


def _nodes_tuple(args, kwargs):
    return tuple(int(n) for n in args[1])


def _node(args, kwargs):
    return int(args[1])


WRITE_OPS = ("add_node", "add_edge", "update_features", "compact")

# Layers the serving miss path spends its model time in.
MODEL_LAYERS = ("graph.sampling", "core.views", "core.model",
                "tensor.backend", "nn.fused")

TARGETS: List[Target] = [
    # gateway.server
    Target("repro.gateway.server", "Gateway.dispatch", "gateway.server"),
    # gateway.admission
    Target("repro.gateway.admission", "AdmissionController.admit",
           "gateway.admission"),
    Target("repro.gateway.admission", "AdmissionController.release",
           "gateway.admission"),
    # gateway.router
    Target("repro.gateway.router", "ServiceRouter.resolve", "gateway.router"),
    Target("repro.gateway.router", "ServiceEndpoint.score_node",
           "gateway.router"),
    Target("repro.gateway.router", "ServiceEndpoint.score_edge",
           "gateway.router"),
    Target("repro.gateway.router", "ServiceEndpoint.run_op", "gateway.router"),
    # gateway.batcher
    Target("repro.gateway.batcher", "MicroBatcher.score_node",
           "gateway.batcher", capture=_node),
    Target("repro.gateway.batcher", "MicroBatcher.score_edge",
           "gateway.batcher", capture=_edge_pair),
    Target("repro.gateway.batcher", "MicroBatcher.submit", "gateway.batcher"),
    # gateway.protocol
    Target("repro.gateway.protocol", "parse_request", "gateway.protocol"),
    Target("repro.gateway.protocol", "dispatch_request", "gateway.protocol",
           label=lambda args, kwargs: str(args[1].get("op"))),
    # serving.store
    Target("repro.serving.store", "GraphStore.add_edge", "serving.store"),
    Target("repro.serving.store", "GraphStore.add_edges", "serving.store"),
    Target("repro.serving.store", "GraphStore.add_nodes", "serving.store"),
    Target("repro.serving.store", "GraphStore.update_features",
           "serving.store"),
    Target("repro.serving.store", "GraphStore.compact", "serving.store"),
    Target("repro.serving.store", "GraphStore.snapshot", "serving.store"),
    # serving.service
    Target("repro.serving.service", "ScoringService.score_nodes",
           "serving.service", count=_len_arg(1), capture=_nodes_tuple),
    Target("repro.serving.service", "ScoringService.score_edge",
           "serving.service", count=lambda args, kwargs: 2,
           capture=_edge_pair),
    Target("repro.serving.service", "ScoringService.refresh",
           "serving.service"),
    Target("repro.serving.service", "ScoringService.stats", "serving.service"),
    Target("repro.serving.service", "sample_target_views", "serving.service",
           count=_len_arg(1)),
    Target("repro.serving.service", "batch_round_views", "serving.service",
           count=_len_arg(1)),
    # serving.cache
    Target("repro.serving.cache", "SubgraphCache.get", "serving.cache"),
    Target("repro.serving.cache", "SubgraphCache.put", "serving.cache"),
    # graph.sampling
    Target("repro.graph.sampling", "sample_enclosing_subgraphs",
           "graph.sampling", count=_len_arg(1)),
    Target("repro.graph.sampling", "sample_enclosing_subgraph",
           "graph.sampling"),
    Target("repro.graph.sampling", "count_target_edge_owners",
           "graph.sampling", count=_len_arg(1)),
    # core.views
    Target("repro.core.views", "graph_views_from_subgraphs", "core.views",
           count=_len_arg(0)),
    Target("repro.core.views", "batch_graph_views_from_subgraphs",
           "core.views", count=_len_arg(0)),
    Target("repro.core.views", "batch_hypergraph_views_from_subgraphs",
           "core.views", count=_len_arg(0)),
    Target("repro.core.views", "split_hypergraph_views", "core.views",
           count=_len_arg(0)),
    Target("repro.core.views", "batch_graph_views", "core.views",
           count=_len_arg(0)),
    Target("repro.core.views", "batch_hypergraph_views", "core.views",
           count=_len_arg(0)),
    Target("repro.core.views", "build_batched_views", "core.views",
           count=_len_arg(0)),
    # core.model
    Target("repro.core.model", "Bourne.prepare_batch", "core.model",
           count=_len_arg(2)),
    Target("repro.core.model", "Bourne.forward_batch", "core.model",
           count=_batch_size(1)),
    Target("repro.core.model", "Bourne.chunk_loss", "core.model"),
    # tensor.backend / nn.fused
    Target("repro.tensor.backend", "TensorBackend.forward_batch",
           "tensor.backend", count=_batch_size(2), label=_self_name),
    Target("repro.nn.fused", "FusedBackend.forward_batch", "nn.fused",
           count=_batch_size(2), label=_self_name),
    Target("repro.tensor.autograd", "Tensor.backward", "tensor.autograd"),
    # core.scoring
    Target("repro.core.scoring", "score_graph", "core.scoring",
           count=_num_nodes(1)),
    Target("repro.core.scoring", "score_target_span", "core.scoring",
           count=_len_arg(1)),
    Target("repro.core.scoring", "mean_edge_rounds", "core.scoring"),
    Target("repro.core.scoring", "replay_edge_rounds", "core.scoring"),
    # core.trainer / optim
    Target("repro.core.trainer", "train_bourne", "core.trainer"),
    Target("repro.core.trainer", "BourneTrainer.fit", "core.trainer"),
    Target("repro.core.trainer", "train_chunk", "core.trainer",
           count=_len_arg(2)),
    Target("repro.core.trainer", "merge_chunk_grads", "core.trainer"),
    Target("repro.optim.adam", "Adam.step", "optim.adam"),
    # parallel.engine / parallel.shm
    Target("repro.parallel.engine", "score_graph_sharded", "parallel.engine",
           count=_num_nodes(1)),
    Target("repro.parallel.engine", "WorkerPool.run", "parallel.engine",
           count=_len_arg(2, "tasks")),
    Target("repro.parallel.engine", "WorkerPool.bind_graph", "parallel.shm"),
    Target("repro.parallel.engine", "WorkerPool.publish_model",
           "parallel.shm"),
]

_KEY = {target.qualname: target.key for target in TARGETS}


def key(name: str) -> str:
    """Full span key of a target given its qualname."""
    return _KEY[name]


# name -> unit, in report order.  The names are BENCHMARK.json's
# per_layer metrics.
PER_LAYER_UNITS: Dict[str, str] = {
    "gateway.server.transport_us_per_req": "us",
    "gateway.server.dispatch_self_us_per_req": "us",
    "gateway.admission.admit_us_per_req": "us",
    "gateway.admission.shed": "count",
    "gateway.batcher.wait_us_per_item": "us",
    "gateway.batcher.mean_batch_size": "count",
    "gateway.protocol.op_self_us": "us",
    "serving.store.add_edge_us": "us",
    "serving.store.update_features_us": "us",
    "serving.store.compactions": "count",
    "serving.service.self_us_per_node": "us",
    "serving.service.table_hit_ratio": "ratio",
    "serving.service.edge_table_hit_ratio": "ratio",
    "serving.service.sample_target_views_self_us_per_target": "us",
    "serving.cache.hit_ratio": "ratio",
    "graph.sampling.us_per_target": "us",
    "core.views.us_per_target": "us",
    "core.views.graph_views_from_subgraphs_us_per_target": "us",
    "core.views.batch_hypergraph_views_from_subgraphs_us_per_target": "us",
    "core.views.split_hypergraph_views_us_per_target": "us",
    "core.views.batch_graph_views_us_per_target": "us",
    "core.views.batch_hypergraph_views_us_per_target": "us",
    "core.views.build_batched_views_us_per_target": "us",
    "tensor.backend.fused.forward_us_per_target": "us",
    "tensor.backend.numpy.forward_us_per_target": "us",
    "nn.fused.fallback_share": "ratio",
    "core.scoring.span_self_us_per_target": "us",
    "core.scoring.mean_edge_rounds_us_per_call": "us",
    "core.scoring.replay_edge_rounds_ms": "ms",
    "core.trainer.train_chunk_self_us_per_target": "us",
    "core.trainer.forward_us_per_target": "us",
    "core.trainer.backward_ms_per_step": "ms",
    "core.trainer.adam_step_ms_per_step": "ms",
    "parallel.engine.overhead_us_per_task": "us",
    "parallel.shm.bind_ms": "ms",
    "layers.unattributed_share": "ratio",
    "layers.sample_view_forward_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _total(spans: Iterable[Span], attr: str = "duration") -> float:
    return sum(getattr(span, attr) for span in spans)


def _counts(spans: Iterable[Span]) -> int:
    return sum(span.count for span in spans)


def batcher_waits(item_spans: List[Span],
                  service_spans: List[Span]) -> List[float]:
    """Seconds from each batcher call to the start of the service call
    that served it, matched FIFO by node id or edge pair."""
    pending: Dict[object, List[Span]] = {}
    for span in sorted(item_spans, key=lambda s: s.start):
        pending.setdefault(span.captured, []).append(span)
    waits = []
    for call in sorted(service_spans, key=lambda s: s.start):
        if isinstance(call.captured, tuple) and call.key.endswith("score_nodes"):
            wanted = list(call.captured)
        else:
            wanted = [call.captured]
        for item in wanted:
            queue = pending.get(item)
            if queue and queue[0].start <= call.start:
                waits.append(call.start - queue.pop(0).start)
    return waits


def layer_metrics(tracer: Tracer, windows: List[Tuple[float, float]],
                  context: dict) -> Dict[str, float]:
    """The per-layer metrics of the traced ``windows``.

    ``context`` carries what the workload measured around the calls:
    ``requests`` and ``client_latency_s`` (summed), gateway counter
    deltas (``shed``, ``batch_sum``, ``batch_total``), service stats
    deltas, offline pass walls and the untraced/traced rates.
    """
    spans = tracer.spans

    def of(name: str) -> List[Span]:
        return [span for span in spans if span.key == key(name)]

    requests = context.get("requests", 0)
    dispatch = of("Gateway.dispatch")
    out: Dict[str, float] = {}
    out["gateway.server.transport_us_per_req"] = 1e6 * _ratio(
        context.get("client_latency_s", 0.0) - _total(dispatch), requests) \
        if dispatch else 0.0
    out["gateway.server.dispatch_self_us_per_req"] = 1e6 * _ratio(
        _total(dispatch, "self_time"), len(dispatch))
    out["gateway.admission.admit_us_per_req"] = 1e6 * _ratio(
        _total(of("AdmissionController.admit")), len(dispatch))
    out["gateway.admission.shed"] = float(context.get("shed", 0))
    waits = batcher_waits(
        of("MicroBatcher.score_node") + of("MicroBatcher.score_edge"),
        of("ScoringService.score_nodes") + of("ScoringService.score_edge"))
    out["gateway.batcher.wait_us_per_item"] = 1e6 * _ratio(sum(waits),
                                                          len(waits))
    out["gateway.batcher.mean_batch_size"] = _ratio(
        context.get("batch_sum", 0.0), context.get("batch_total", 0))
    writes = [span for span in of("dispatch_request")
              if span.label in WRITE_OPS]
    out["gateway.protocol.op_self_us"] = 1e6 * _ratio(
        _total(writes, "self_time"), len(writes))
    add_edge = of("GraphStore.add_edge")
    out["serving.store.add_edge_us"] = 1e6 * _ratio(_total(add_edge),
                                                    len(add_edge))
    update = of("GraphStore.update_features")
    out["serving.store.update_features_us"] = 1e6 * _ratio(_total(update),
                                                           len(update))
    out["serving.store.compactions"] = float(len(of("GraphStore.compact")))
    service = [span for span in spans if span.key.startswith(
        "repro.serving.service.ScoringService.")]
    scored = of("ScoringService.score_nodes") + of("ScoringService.score_edge")
    out["serving.service.self_us_per_node"] = 1e6 * _ratio(
        _total(service, "self_time"), _counts(scored))
    stats = context.get("service_stats", {})
    out["serving.service.table_hit_ratio"] = _ratio(
        stats.get("table_hits", 0),
        stats.get("table_hits", 0) + stats.get("table_misses", 0))
    out["serving.service.edge_table_hit_ratio"] = _ratio(
        stats.get("edge_table_hits", 0), stats.get("edge_requests", 0))
    stv = of("sample_target_views")
    out["serving.service.sample_target_views_self_us_per_target"] = \
        1e6 * _ratio(_total(stv, "self_time"), _counts(stv))
    out["serving.cache.hit_ratio"] = _ratio(
        stats.get("cache_hits", 0),
        stats.get("cache_hits", 0) + stats.get("cache_misses", 0))
    sampling = of("sample_enclosing_subgraphs")
    out["graph.sampling.us_per_target"] = 1e6 * _ratio(_total(sampling),
                                                       _counts(sampling))

    fused = of("FusedBackend.forward_batch")
    reference = of("Bourne.forward_batch")
    fallbacks = [span for span in reference if span.parent is not None
                 and span.parent.key == key("FusedBackend.forward_batch")]
    forward_targets = _counts(fused) + _counts(reference) - _counts(fallbacks)
    views = [span for span in spans if span.layer == "core.views"]
    out["core.views.us_per_target"] = 1e6 * _ratio(
        _total(views, "self_time"), forward_targets)
    for name in ("graph_views_from_subgraphs",
                 "batch_hypergraph_views_from_subgraphs",
                 "split_hypergraph_views", "batch_graph_views",
                 "batch_hypergraph_views", "build_batched_views"):
        calls = of(name)
        out[f"core.views.{name}_us_per_target"] = 1e6 * _ratio(
            _total(calls, "self_time"), _counts(calls))
    numpy_forward = [span for span in of("TensorBackend.forward_batch")
                     if span.label == "numpy"]
    out["tensor.backend.fused.forward_us_per_target"] = 1e6 * _ratio(
        _total(fused), _counts(fused))
    out["tensor.backend.numpy.forward_us_per_target"] = 1e6 * _ratio(
        _total(numpy_forward), _counts(numpy_forward))
    out["nn.fused.fallback_share"] = _ratio(len(fallbacks), len(fused))

    span_loop = of("score_target_span")
    out["core.scoring.span_self_us_per_target"] = 1e6 * _ratio(
        _total(span_loop, "self_time"), _counts(span_loop))
    mean_rounds = of("mean_edge_rounds")
    out["core.scoring.mean_edge_rounds_us_per_call"] = 1e6 * _ratio(
        _total(mean_rounds), len(mean_rounds))
    replay = of("replay_edge_rounds")
    out["core.scoring.replay_edge_rounds_ms"] = 1e3 * _ratio(_total(replay),
                                                             len(replay))

    chunks = of("train_chunk")
    train_forward = [span for span in reference if span.parent is not None
                     and span.parent.key == key("train_chunk")]
    steps = len(of("Adam.step"))
    out["core.trainer.train_chunk_self_us_per_target"] = 1e6 * _ratio(
        _total(chunks, "self_time"), _counts(chunks))
    out["core.trainer.forward_us_per_target"] = 1e6 * _ratio(
        _total(train_forward), _counts(train_forward))
    out["core.trainer.backward_ms_per_step"] = 1e3 * _ratio(
        _total(of("Tensor.backward")), steps)
    out["core.trainer.adam_step_ms_per_step"] = 1e3 * _ratio(
        _total(of("Adam.step")), steps)

    runs = of("WorkerPool.run")
    serial, sharded = context.get("serial_s", []), context.get("sharded_s", [])
    if runs and serial and sharded:
        tasks_per_call = _counts(runs) / len(runs)
        out["parallel.engine.overhead_us_per_task"] = 1e6 * (
            context["workers"] * statistics.median(sharded)
            - statistics.median(serial)) / tasks_per_call
    else:
        out["parallel.engine.overhead_us_per_task"] = 0.0
    binds = of("WorkerPool.bind_graph") + of("WorkerPool.publish_model")
    out["parallel.shm.bind_ms"] = 1e3 * _ratio(
        _total(binds), len(of("score_graph_sharded")))

    table = layer_table(spans, windows)
    wall = sum(hi - lo for lo, hi in windows)
    unattributed = table[-1]["attributed_s"]
    attributed = wall - unattributed
    model_time = sum(row["attributed_s"] for row in table
                     if row["layer"] in MODEL_LAYERS)
    out["layers.unattributed_share"] = _ratio(unattributed, wall)
    out["layers.sample_view_forward_share"] = _ratio(model_time, attributed)
    out["trace.overhead_ratio"] = context.get("overhead_ratio", 0.0)
    return out
