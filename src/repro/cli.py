"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``
    Generate a benchmark, train BOURNE, report AUCs, optionally save the
    model checkpoint.
``score``
    Load a checkpoint and score a (re-generated) benchmark graph,
    writing per-node / per-edge scores as CSV.
``serve``
    Long-lived scoring service: load a checkpoint (directly or from a
    model registry), build a mutable graph store, and answer NDJSON
    requests — score, score_edge, add_node, add_edge, update_features,
    refresh, compact, stats — through the async gateway
    (:mod:`repro.gateway`), with dynamic micro-batching, admission
    control, tracing, replicas and tenants.  Requests come from stdin
    or a file; with ``--listen HOST:PORT`` they come over the network
    instead: NDJSON over TCP plus an HTTP/1.1 adapter with Prometheus
    ``/metrics`` and zero-downtime model hot-swaps.
``experiment``
    Run one of the paper's table/figure experiments; exits 1 when one
    of its paper claims does not hold.
``datasets``
    List the registered benchmark datasets with their Table II sizes.
``trace``
    Observability: query a running gateway's flight recorder
    (``--connect HOST:PORT`` with ``--id`` for one span tree or
    ``--slow-ms`` to tail slow/errored requests), or ``--profile`` a
    local train + score run under an installed recorder and print the
    per-stage cost table.
"""

from __future__ import annotations

import argparse
import sys


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="cora",
                        help="benchmark name (see `datasets` command)")
    parser.add_argument("--scale", type=float, default=0.15,
                        help="proportional dataset scale in (0, 1]")
    parser.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    from .tensor.backend import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="BOURNE unified graph anomaly detection (ICDE 2024 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train BOURNE on a benchmark")
    _add_common(train)
    train.add_argument("--epochs", type=int, default=25)
    train.add_argument("--hidden", type=int, default=64)
    train.add_argument("--subgraph-size", type=int, default=12)
    train.add_argument("--alpha", type=float, default=0.8)
    train.add_argument("--beta", type=float, default=0.2)
    train.add_argument("--rounds", type=int, default=8,
                       help="evaluation rounds R")
    train.add_argument("--workers", type=int, default=None,
                       help="worker processes for sharded gradient "
                            "computation (default: in-process; >1 fans "
                            "accumulation chunks out to a persistent pool "
                            "— losses and weights stay bitwise-identical)")
    train.add_argument("--grain", type=int, default=None,
                       help="targets per gradient-accumulation chunk "
                            "(default: batch size // 8; part of the "
                            "training semantics, unlike --workers)")
    train.add_argument("--save", metavar="PATH",
                       help="write the trained model checkpoint (.npz)")

    score = commands.add_parser("score", help="score a benchmark with a checkpoint")
    _add_common(score)
    score.add_argument("--model", required=True, help="checkpoint from `train --save`")
    score.add_argument("--rounds", type=int, default=8)
    score.add_argument("--workers", type=int, default=None,
                       help="worker processes for sharded scoring (default: "
                            "in-process; >1 fans shards out to a process pool)")
    score.add_argument("--out", default="scores.csv",
                       help="CSV prefix; writes <out>.nodes.csv / <out>.edges.csv")
    score.add_argument("--backend", default=None,
                       choices=BACKENDS,
                       help="tensor backend for inference (default: the "
                            "bitwise-pinned numpy reference; 'fused' trades "
                            "the pin for an allocation-free fast path within "
                            "1e-5 relative tolerance)")

    serve = commands.add_parser(
        "serve", help="serve scores for a mutable graph over NDJSON requests")
    _add_common(serve)
    source = serve.add_mutually_exclusive_group()
    source.add_argument("--model", help="checkpoint from `train --save`")
    source.add_argument("--registry", help="model registry root directory")
    serve.add_argument("--tenants", metavar="SPEC.json", default=None,
                       help="multi-tenant mode: boot one store per tenant "
                            "from a JSON spec file (a list of tenant "
                            "objects, or {\"tenants\": [...]}); tenants "
                            "boot lazily on first request; combinable "
                            "with --model/--registry for a default service")
    serve.add_argument("--idle-ttl", type=float, default=None,
                       help="evict tenants idle this many seconds (their "
                            "specs stay registered, so the next request "
                            "reboots them; with --tenants)")
    serve.add_argument("--eager-tenants", action="store_true",
                       help="boot every tenant at startup instead of "
                            "lazily on first request (with --tenants)")
    serve.add_argument("--replicas", type=int, default=1,
                       help="replica processes for the default service; "
                            ">1 shares the graph read-only via shared "
                            "memory, dispatches reads to the least-loaded "
                            "replica, and fans mutations in through a "
                            "single writer")
    serve.add_argument("--name", help="registry model name (with --registry)")
    serve.add_argument("--model-version", type=int, default=None,
                       help="registry version (default: latest)")
    serve.add_argument("--rounds", type=int, default=8,
                       help="evaluation rounds R per score")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes used by `refresh` requests to "
                            "drain large miss queues through the sharded engine")
    serve.add_argument("--backend", default=None,
                       choices=BACKENDS,
                       help="tensor backend for served inference (default: "
                            "the bitwise-pinned numpy reference)")
    serve.add_argument("--input", default="-",
                       help="NDJSON request file ('-' for stdin); one "
                            "response line per request, in order")
    serve.add_argument("--listen", metavar="HOST:PORT", default=None,
                       help="serve over TCP instead of stdin (NDJSON + "
                            "HTTP/1.1; port 0 picks an ephemeral port)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batch cap: score requests queued while "
                            "a batch scores dispatch together as the next "
                            "forward batch, up to this size")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="admission bound: in-flight requests beyond "
                            "this are shed with a 429-style rejection")
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="per-client token-bucket rate in requests/s "
                            "(default: unlimited)")
    serve.add_argument("--burst", type=float, default=None,
                       help="token-bucket burst allowance "
                            "(default: 2x --rate-limit)")
    serve.add_argument("--poll-interval", type=float, default=None,
                       help="seconds between registry checks for newly "
                            "published model versions to hot-swap "
                            "(with --registry; default: no watching)")
    serve.add_argument("--autotrain", metavar="POLICY.json", default=None,
                       help="enable the continual-learning controller: a "
                            "JSON trigger policy (drift_threshold, "
                            "mutation_threshold, check_interval_s, epochs, "
                            "...) drives background retrains, candidate "
                            "validation, zero-downtime publishes, and "
                            "automatic rollback (requires --registry; "
                            "pair with --poll-interval so the watcher "
                            "swaps published candidates)")
    serve.add_argument("--no-trace", action="store_true",
                       help="disable request tracing (the flight recorder "
                            "and /v1/trace endpoints; tracing is on by "
                            "default and costs about 8%% throughput)")
    serve.add_argument("--trace-slow-ms", type=float, default=250.0,
                       help="requests at least this slow (or errored) are "
                            "retained in the recorder's slow ring beyond "
                            "normal rotation")
    serve.add_argument("--compact-threshold", type=float, default=0.25,
                       help="fold the store's delta overlay into the "
                            "compacted base once pending edges exceed this "
                            "fraction of the base edge count (0 compacts "
                            "after every burst; negative disables automatic "
                            "compaction — use the 'compact' op instead)")

    trace = commands.add_parser(
        "trace", help="inspect request traces (gateway or local profile)")
    trace.add_argument("--connect", metavar="HOST:PORT", default=None,
                       help="query a running gateway's flight recorder "
                            "over HTTP")
    trace.add_argument("--id", dest="trace_id", default=None,
                       help="fetch one trace's span tree by id "
                            "(with --connect)")
    trace.add_argument("--slow-ms", type=float, default=None,
                       help="list only traces at least this slow or "
                            "errored (with --connect)")
    trace.add_argument("--limit", type=int, default=20,
                       help="max traces to list (with --connect)")
    trace.add_argument("--profile", action="store_true",
                       help="run a small train + score locally under a "
                            "flight recorder and print the per-stage "
                            "cost table")
    _add_common(trace)
    trace.add_argument("--epochs", type=int, default=1,
                       help="training epochs for --profile")
    trace.add_argument("--rounds", type=int, default=2,
                       help="evaluation rounds for --profile scoring")
    trace.add_argument("--json", action="store_true",
                       help="emit raw JSON instead of rendered tables")

    experiment = commands.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", help="table2|table3|table4|table5|fig3..fig10|headline")
    experiment.add_argument("--profile", default=None,
                            help="quick|default|full (default: $REPRO_PROFILE)")

    commands.add_parser("datasets", help="list registered datasets")
    return parser


def _cmd_train(args) -> int:
    from .core import BourneConfig, save_model, score_graph, train_bourne
    from .datasets import load_benchmark
    from .eval import normalize_graph
    from .metrics import roc_auc_score

    graph = normalize_graph(load_benchmark(args.dataset, seed=args.seed,
                                           scale=args.scale))
    print(f"loaded {graph}")
    config = BourneConfig(
        hidden_dim=args.hidden, predictor_hidden=2 * args.hidden,
        subgraph_size=args.subgraph_size, alpha=args.alpha, beta=args.beta,
        epochs=args.epochs, eval_rounds=args.rounds, seed=args.seed,
    )
    model, history = train_bourne(graph, config, workers=args.workers,
                                  grain=args.grain)
    print(f"trained: loss {history.losses[0]:.4f} -> {history.losses[-1]:.4f}")
    scores = score_graph(model, graph)
    print(f"node AUC {roc_auc_score(graph.node_labels, scores.node_scores):.4f}  "
          f"edge AUC {roc_auc_score(graph.edge_labels, scores.edge_scores):.4f}")
    if args.save:
        path = save_model(model, args.save)
        print(f"checkpoint written to {path}")
    return 0


def _cmd_score(args) -> int:
    from .core import load_model, score_graph
    from .datasets import load_benchmark
    from .eval import normalize_graph
    from .eval.reporting import write_csv

    graph = normalize_graph(load_benchmark(args.dataset, seed=args.seed,
                                           scale=args.scale))
    model = load_model(args.model)
    if model.num_features != graph.num_features:
        raise SystemExit(
            f"checkpoint expects {model.num_features} features but "
            f"{args.dataset}@{args.scale} has {graph.num_features}; "
            "match --dataset/--scale/--seed with the training run"
        )
    scores = score_graph(model, graph, rounds=args.rounds, workers=args.workers,
                         backend=args.backend)
    node_rows = [[i, float(s), int(label)] for i, (s, label) in
                 enumerate(zip(scores.node_scores, graph.node_labels))]
    edge_rows = [[int(u), int(v), float(s), int(label)] for (u, v), s, label in
                 zip(graph.edges, scores.edge_scores, graph.edge_labels)]
    write_csv(f"{args.out}.nodes.csv", ["node", "score", "label"], node_rows)
    write_csv(f"{args.out}.edges.csv", ["u", "v", "score", "label"], edge_rows)
    print(f"wrote {args.out}.nodes.csv and {args.out}.edges.csv")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import os

    from .gateway import (DEFAULT_SERVICE, TenantSpec, build_tenant_service,
                          load_tenant_specs, run_gateway)

    if not (args.model or args.registry or args.tenants):
        raise SystemExit("serve needs a model source: --model, --registry, "
                         "or --tenants")
    if args.replicas < 1:
        raise SystemExit("--replicas must be >= 1")
    if args.registry and not args.name:
        raise SystemExit("--registry requires --name")
    if args.autotrain and not args.registry:
        raise SystemExit("--autotrain requires --registry (candidates "
                         "publish through the registry)")
    host, port = "127.0.0.1", 0
    if args.listen:
        host, _, port = args.listen.rpartition(":")
        if not host or not port.isdigit() or int(port) > 65535:
            raise SystemExit(f"--listen expects HOST:PORT, got {args.listen!r}")
        port = int(port)

    # Files load before the service build, and --input opens after it so
    # a failed build leaks no descriptor: a missing or malformed file
    # ends serve with one line, before the ready line.
    service = registry = model_version = settings = None
    try:
        if args.autotrain:
            from .lifecycle import load_settings

            settings = load_settings(args.autotrain)
        tenants = load_tenant_specs(args.tenants) if args.tenants else None
        if args.model or args.registry:
            service, registry, model_version = build_tenant_service(TenantSpec(
                DEFAULT_SERVICE, dataset=args.dataset, scale=args.scale,
                seed=args.seed, rounds=args.rounds, model=args.model,
                registry=args.registry, model_name=args.name,
                model_version=args.model_version, backend=args.backend,
                compact_threshold=(None if args.compact_threshold < 0
                                   else args.compact_threshold)))
        stdin = None if args.listen else (
            sys.stdin.fileno() if args.input == "-"
            else os.open(args.input, os.O_RDONLY))
    except (OSError, ValueError) as error:
        raise SystemExit(str(error))

    lifecycle = lifecycle_interval = None
    if settings is not None:
        from .lifecycle import LifecycleController

        lifecycle = LifecycleController.from_settings(
            service, registry, args.name, settings,
            workers=(settings.workers if settings.workers is not None
                     else args.workers))
        lifecycle_interval = settings.check_interval_s
    try:
        asyncio.run(run_gateway(
            service, host, port, stdin=stdin,
            registry=registry, model_name=args.name,
            model_version=model_version, lifecycle=lifecycle,
            lifecycle_interval=lifecycle_interval, max_batch=args.max_batch,
            max_queue=args.max_queue, rate=args.rate_limit,
            burst=args.burst, refresh_workers=args.workers,
            poll_interval=args.poll_interval,
            replicas=args.replicas, tenants=tenants,
            idle_ttl=args.idle_ttl,
            lazy_tenants=not args.eager_tenants,
            tracing=not args.no_trace,
            trace_slow_ms=args.trace_slow_ms,
        ))
    except KeyboardInterrupt:
        pass  # asyncio.run cancelled the gateway; it drained on exit
    except ValueError as error:  # a bad gateway setting, before the ready line
        raise SystemExit(str(error))
    finally:
        if stdin is not None and args.input != "-":
            os.close(stdin)
    return 0


def _http_get_json(host: str, port: int, path: str) -> dict:
    """One HTTP GET against a gateway; returns the decoded JSON body."""
    import http.client
    import json

    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read().decode("utf-8")
    finally:
        conn.close()
    try:
        payload = json.loads(body)
    except ValueError:
        raise SystemExit(f"non-JSON response from GET {path}: {body[:200]!r}")
    if response.status != 200:
        raise SystemExit(f"GET {path} -> {response.status}: "
                         f"{payload.get('error', body[:200])}")
    return payload


def _render_span_node(node: dict, depth: int, out) -> None:
    pad = "  " * depth
    attrs = node.get("attrs") or {}
    attr_text = ("  " + " ".join(f"{k}={v}" for k, v in attrs.items())
                 if attrs else "")
    flag = "" if node.get("status") == "ok" else f"  [{node.get('status')}]"
    out.write(f"{pad}{node['name']:<32s} {node['duration_ms']:9.3f} ms"
              f"  pid={node.get('pid')}{flag}{attr_text}\n")
    for child in node.get("children", ()):
        _render_span_node(child, depth + 1, out)


def _render_stage_table(rows, out) -> None:
    out.write(f"{'stage':<32s} {'calls':>6s} {'total_ms':>10s} "
              f"{'self_ms':>10s} {'mean_ms':>9s} {'max_ms':>9s} "
              f"{'share':>6s}\n")
    for row in rows:
        out.write(f"{row['stage']:<32s} {row['calls']:>6d} "
                  f"{row['total_ms']:>10.2f} {row['self_ms']:>10.2f} "
                  f"{row['mean_ms']:>9.3f} {row['max_ms']:>9.3f} "
                  f"{row['share']:>5.1%}\n")


def _trace_connect(args) -> int:
    import json

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--connect expects HOST:PORT, got {args.connect!r}")
    if args.trace_id:
        payload = _http_get_json(host, int(port),
                                 f"/v1/trace/{args.trace_id}")
        if args.json:
            print(json.dumps(payload["trace"], indent=2))
            return 0
        tree = payload["trace"]
        print(f"trace {tree['trace_id']}  {tree['name']}  "
              f"{tree['duration_ms']:.3f} ms  status={tree['status']}  "
              f"spans={tree['num_spans']}")
        for root in tree["roots"]:
            _render_span_node(root, 1, sys.stdout)
        return 0
    query = f"limit={args.limit}"
    if args.slow_ms is not None:
        query += f"&slow_ms={args.slow_ms}"
    payload = _http_get_json(host, int(port), f"/v1/traces?{query}")
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    stats = payload.get("recorder", {})
    print(f"recorder: {stats.get('recorded', '?')} recorded, "
          f"{stats.get('slow_recorded', '?')} slow/errored "
          f"(slow_ms={stats.get('slow_ms', '?')})")
    print(f"{'trace_id':<20s} {'name':<24s} {'duration_ms':>12s} "
          f"{'spans':>6s} status")
    for summary in payload["traces"]:
        print(f"{summary['trace_id']:<20s} {str(summary['name']):<24s} "
              f"{summary['duration_ms']:>12.3f} {summary['num_spans']:>6d} "
              f"{summary['status']}")
    return 0


def _trace_profile(args) -> int:
    import json

    from .core import BourneConfig, score_graph, train_bourne
    from .datasets import load_benchmark
    from .eval import normalize_graph
    from .obs import trace as obs_trace
    from .obs.trace import FlightRecorder, stage_table

    graph = normalize_graph(load_benchmark(args.dataset, seed=args.seed,
                                           scale=args.scale))
    print(f"profiling train({args.epochs} epochs) + "
          f"score({args.rounds} rounds) on {graph}", file=sys.stderr)
    config = BourneConfig(epochs=args.epochs, eval_rounds=args.rounds,
                          seed=args.seed)
    recorder = FlightRecorder(capacity=4096, slow_ms=float("inf"))
    previous = obs_trace.install(recorder)
    try:
        model, _history = train_bourne(graph, config)
        with obs_trace.trace("score.run") as root:
            root.set(rounds=args.rounds)
            score_graph(model, graph, rounds=args.rounds)
    finally:
        obs_trace.uninstall(previous)
    rows = stage_table(recorder.traces())
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    _render_stage_table(rows, sys.stdout)
    return 0


def _cmd_trace(args) -> int:
    if args.connect:
        return _trace_connect(args)
    if args.profile:
        return _trace_profile(args)
    raise SystemExit("trace needs --connect HOST:PORT or --profile "
                     "(see `repro trace -h`)")


def _cmd_experiment(args) -> int:
    from .eval.experiments import ALL_EXPERIMENTS
    from .eval.runner import get_profile

    if args.name not in ALL_EXPERIMENTS:
        raise SystemExit(f"unknown experiment {args.name!r}; "
                         f"choose from {sorted(ALL_EXPERIMENTS)}")
    profile = get_profile(args.profile)
    result = ALL_EXPERIMENTS[args.name].run(profile=profile)
    result.save()
    print(result.render())
    return 0 if all(holds for _, holds in result.claims) else 1


def _cmd_datasets(_args) -> int:
    from .datasets import PAPER_SPECS

    for name, spec in sorted(PAPER_SPECS.items()):
        print(f"{name:12s} {spec.domain:10s} nodes={spec.num_nodes:>9,} "
              f"edges={spec.num_edges:>9,} attrs={spec.num_attributes:>6,}")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handler = {
        "train": _cmd_train,
        "score": _cmd_score,
        "serve": _cmd_serve,
        "experiment": _cmd_experiment,
        "datasets": _cmd_datasets,
        "trace": _cmd_trace,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
