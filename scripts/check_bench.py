#!/usr/bin/env python
"""Benchmark regression gate: fresh reports vs. committed baselines.

Compares every numeric ``*speedup*`` metric of freshly produced
benchmark reports (``BENCH_parallel.json``, ``BENCH_training.json``,
``BENCH_gateway.json``, ``BENCH_kernel.json`` and the rest) against the
committed baseline copies and fails when a fresh value drops below ``tolerance``
times its baseline — the blocking replacement for the old
``continue-on-error`` benchmark step.

Usage::

    python scripts/check_bench.py --tolerance 0.8 \\
        --baseline-dir /tmp/bench-baselines --fresh-dir .

``--baseline-dir`` discovers every ``BENCH_*.json`` in the baseline
directory and pairs it with the file of the same name under
``--fresh-dir`` (default: the current directory) — new benchmarks join
the gate by existing, without editing the CI invocation.  Explicit
``--pair BASELINE=FRESH`` flags remain supported for ad-hoc
comparisons.  A fresh report that carries
``"pass": false`` fails the gate outright (the benchmark's own absolute
target was missed); ``"pass": null`` means the absolute target was
skipped on that machine (for example, too few cores for the parallel
speedup), in which case the relative regression check still applies.
"""

import argparse
import json
import os
import sys
from glob import glob


def iter_speedups(report, prefix=""):
    """Yield ``(dotted.path, value)`` for every *measured* speedup metric.

    ``target_*`` keys are configuration constants (the benchmark's own
    absolute bar), not measurements, so they are excluded.
    """
    for key in sorted(report):
        value = report[key]
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from iter_speedups(value, path)
        elif isinstance(value, bool):
            continue
        elif key.startswith("target"):
            continue
        elif isinstance(value, (int, float)) and "speedup" in key:
            yield path, float(value)


def lookup(report, path):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def check_pair(baseline_path, fresh_path, tolerance):
    """Compare one report pair; returns a list of failure messages.

    The regression floor for each metric is ``tolerance x baseline``,
    capped at the report's own absolute bar (``target_speedup``) when it
    carries one: a baseline recorded on faster or more parallel hardware
    than the current machine must never make the relative gate stricter
    than the target the benchmark itself enforces.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(fresh_path) as handle:
        fresh = json.load(handle)

    cap = baseline.get("target_speedup")
    if isinstance(cap, bool) or not isinstance(cap, (int, float)):
        cap = None

    failures = []
    metrics = list(iter_speedups(baseline))
    if not metrics:
        failures.append(f"{baseline_path}: no speedup metrics found")
    for path, base_value in metrics:
        fresh_value = lookup(fresh, path)
        if fresh_value is None:
            failures.append(f"{fresh_path}: metric {path!r} missing")
            continue
        floor = tolerance * base_value
        if cap is not None:
            floor = min(floor, float(cap))
        status = "ok" if fresh_value >= floor else "REGRESSION"
        print(
            f"  {path}: baseline {base_value:.2f}x -> fresh {fresh_value:.2f}x "
            f"(floor {floor:.2f}x) {status}"
        )
        if fresh_value < floor:
            failures.append(
                f"{fresh_path}: {path} regressed to {fresh_value:.2f}x, "
                f"below the {floor:.2f}x floor "
                f"({tolerance:.0%} of baseline {base_value:.2f}x)"
            )
    if fresh.get("pass") is False:
        failures.append(f"{fresh_path}: report marked its own target as failed")
    return failures


def discover_pairs(baseline_dir, fresh_dir):
    """Pair every ``BENCH_*.json`` baseline with its fresh counterpart.

    Pairing is by basename; the fresh file need not exist yet — the
    missing-report failure surfaces inside :func:`check_pair` (via the
    open) rather than silently shrinking the gate.
    """
    baselines = sorted(glob(os.path.join(baseline_dir, "BENCH_*.json")))
    return [
        (path, os.path.join(fresh_dir, os.path.basename(path)))
        for path in baselines
    ]


def parse_pair(raw):
    baseline, sep, fresh = raw.partition("=")
    if not sep or not baseline or not fresh:
        raise argparse.ArgumentTypeError(
            f"expected BASELINE=FRESH, got {raw!r}"
        )
    return baseline, fresh


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pair",
        dest="pairs",
        type=parse_pair,
        action="append",
        default=[],
        metavar="BASELINE=FRESH",
        help="baseline and fresh report paths (repeatable)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=None,
        help="discover BENCH_*.json baselines here and pair each with "
        "the same-named fresh report under --fresh-dir",
    )
    parser.add_argument(
        "--fresh-dir",
        default=".",
        help="directory holding fresh reports for --baseline-dir "
        "discovery (default: current directory)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.8,
        help="minimum fresh/baseline ratio before failing (default 0.8)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.tolerance <= 1.0:
        parser.error("--tolerance must be in (0, 1]")

    pairs = list(args.pairs)
    if args.baseline_dir is not None:
        discovered = discover_pairs(args.baseline_dir, args.fresh_dir)
        if not discovered:
            parser.error(
                f"no BENCH_*.json baselines found in {args.baseline_dir!r}"
            )
        pairs.extend(discovered)
    if not pairs:
        parser.error("provide --pair or --baseline-dir")

    failures = []
    for baseline_path, fresh_path in pairs:
        print(f"{baseline_path} vs {fresh_path}:")
        if not os.path.exists(fresh_path):
            failures.append(f"{fresh_path}: fresh report missing")
            continue
        failures.extend(check_pair(baseline_path, fresh_path, args.tolerance))
    if failures:
        print("\nbenchmark regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
