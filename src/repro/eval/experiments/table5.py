"""Experiments E-T5 / E-F6 — Table V and Figure 6: efficiency comparison.

Wall-clock (Table V) and peak memory (Figure 6) of BOURNE vs CoLA vs
SL-GAD for training and inference across datasets of increasing size,
under a **matched budget** — identical epoch count, hidden width,
batch size and evaluation rounds for all three models, exactly like the
paper's protocol ("training and inference epochs are set to 200 for
all", single-layer encoders of equal width).

The reproduced claim is the *shape*: BOURNE is cheaper on both axes and
the gap widens with graph size, because per target-node step CoLA
encodes 2 RWR subgraphs (positive + negative) and SL-GAD 4, while
BOURNE encodes one subgraph plus its dual hypergraph and needs no
negative pairs at all.

Each model is fitted and scored twice with the same seed: once under
``tracemalloc`` for the peaks, and once untraced for the seconds, since
tracemalloc's per-allocation hook slows the models unequally.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

from ...baselines import CoLA, SLGAD
from ...core import score_graph, train_bourne
from ...obs.profiling import ResourceUsage, measure
from ..paper_reference import TABLE5_TIME
from ..runner import EvalProfile, bourne_config, get_profile, prepare_graph
from .common import ExperimentResult

DATASETS = ["cora", "pubmed", "acm", "dgraph"]

#: (dataset, profile.name, scale, seed) -> measured usages; lets the
#: Figure 6 memory view reuse the Table V runs within one process.
_MATCHED_CACHE: Dict[tuple, Dict[str, dict]] = {}


def _seconds(fit, score) -> Tuple[float, float]:
    """Untraced wall seconds of ``fit()`` and of ``score`` on its result."""
    start = time.perf_counter()
    fitted = fit()
    trained = time.perf_counter()
    score(fitted)
    return trained - start, time.perf_counter() - trained


def _peaks(fit, score) -> Tuple[float, float]:
    """tracemalloc peak MB of ``fit()`` and of ``score`` on its result."""
    with measure() as train:
        fitted = fit()
    with measure() as infer:
        score(fitted)
    return train.peak_mb, infer.peak_mb


def _run_matched(dataset: str, profile: EvalProfile) -> Dict[str, dict]:
    """Train/score all three models with one shared budget (memoized)."""
    key = (dataset, profile.name, profile.scale, profile.seed)
    if key in _MATCHED_CACHE:
        return _MATCHED_CACHE[key]
    graph = prepare_graph(dataset, profile)
    epochs = profile.contrastive_epochs
    rounds = profile.contrastive_rounds
    results: Dict[str, dict] = {}

    config = bourne_config(dataset, profile, epochs=epochs, eval_rounds=rounds)
    kwargs = dict(hidden=profile.hidden, subgraph_size=8, epochs=epochs,
                  batch_size=profile.batch_size, eval_rounds=rounds,
                  seed=profile.seed)
    models = {
        "BOURNE": (lambda: train_bourne(graph, config)[0],
                   lambda model: score_graph(model, graph, rounds=rounds)),
        "CoLA": (lambda: CoLA(**kwargs).fit(graph),
                 lambda detector: detector.score_nodes(graph)),
        "SL-GAD": (lambda: SLGAD(**kwargs).fit(graph),
                   lambda detector: detector.score_nodes(graph)),
    }
    for name, (fit, score) in models.items():
        train_mb, infer_mb = _peaks(fit, score)
        train_s, infer_s = _seconds(fit, score)
        results[name] = {"train": ResourceUsage(train_s, train_mb),
                         "infer": ResourceUsage(infer_s, infer_mb)}
    _MATCHED_CACHE[key] = results
    return results


def run(profile: Optional[EvalProfile] = None,
        datasets: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Measure training/inference seconds and peak MB per method/dataset."""
    profile = profile or get_profile()
    datasets = list(datasets) if datasets is not None else DATASETS

    rows, claims = [], []
    for dataset in datasets:
        outcome = _run_matched(dataset, profile)
        train = {name: usage["train"].seconds for name, usage in outcome.items()}
        cola, slgad = (train[name] / train["BOURNE"] for name in ("CoLA", "SL-GAD"))
        claims += [
            (f"{dataset}: SL-GAD/BOURNE training time {slgad:.2f} > 0.8 x "
             f"CoLA/BOURNE {cola:.2f}", slgad > 0.8 * cola),
            (f"{dataset}: CoLA trains slower than BOURNE (CoLA/BOURNE "
             f"training time {cola:.2f} > 1)", cola > 1.0),
        ]
        paper_train = TABLE5_TIME["training"].get(
            {"cora": "Cora", "pubmed": "Pubmed", "acm": "ACM",
             "dgraph": "DGraph"}.get(dataset, ""), {})
        for name in ("CoLA", "SL-GAD", "BOURNE"):
            usage = outcome[name]
            rows.append([
                dataset, name,
                usage["train"].seconds, usage["infer"].seconds,
                usage["train"].peak_mb, usage["infer"].peak_mb,
                paper_train.get(name, ""),
            ])
    return ExperimentResult(
        experiment="table5_efficiency",
        headers=["dataset", "method", "train_s", "infer_s",
                 "train_peak_MB", "infer_peak_MB", "paper_train_s"],
        rows=rows,
        notes=(f"profile={profile.name}; matched budget "
               f"(epochs={profile.contrastive_epochs} for all three "
               "models). Absolute numbers are CPU seconds of an untraced "
               "run / tracemalloc MB of a traced one (paper: GPU). Shape "
               "claim: BOURNE cheapest, gap grows with dataset size."),
        claims=claims,
    )


def acceleration_rates(result: ExperimentResult) -> dict:
    """AR = baseline time / BOURNE time per dataset (cf. Table V)."""
    times: dict = {}
    for dataset, method, train_s, *_ in result.rows:
        times.setdefault(dataset, {})[method] = train_s
    return {
        dataset: {
            method: values[method] / values["BOURNE"]
            for method in values if method != "BOURNE"
        }
        for dataset, values in times.items()
    }


if __name__ == "__main__":
    outcome = run()
    print(outcome.render(precision=2))
    print("\nacceleration rates (training):", acceleration_rates(outcome))
