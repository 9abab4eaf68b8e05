"""Experiment E-F6 — Figure 6: training/inference memory (bar series).

Thin wrapper over the Table V measurement that reshapes the peak-memory
columns into the two bar-chart series of Figure 6.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..runner import EvalProfile, get_profile
from .common import ExperimentResult
from . import table5


def run(profile: Optional[EvalProfile] = None,
        datasets: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Peak-memory bars per method across datasets."""
    profile = profile or get_profile()
    base = table5.run(profile=profile, datasets=datasets)

    series = {}
    order: list = []
    for dataset, method, _, _, train_mb, infer_mb, _ in base.rows:
        if dataset not in order:
            order.append(dataset)
        series.setdefault(f"training/{method}", ([], []))
        series.setdefault(f"inference/{method}", ([], []))
        series[f"training/{method}"][0].append(dataset)
        series[f"training/{method}"][1].append(train_mb)
        series[f"inference/{method}"][0].append(dataset)
        series[f"inference/{method}"][1].append(infer_mb)

    rows = [[d, m, tr, inf] for d, m, _, _, tr, inf, _ in base.rows]
    claims = []
    for dataset in order:
        peaks = [row[2] for row in rows if row[0] == dataset]
        claims.append((f"{dataset}: training peaks {min(peaks):.1f}-"
                       f"{max(peaks):.1f} MB are > 0 and within 20x",
                       min(peaks) > 0 and max(peaks) < 20 * min(peaks)))
        for column, phase in ((2, "training"), (3, "inference")):
            by_method = {row[1]: row[column] for row in rows
                         if row[0] == dataset}
            others = {m: mb for m, mb in by_method.items() if m != "BOURNE"}
            claims.append((
                f"{dataset}: BOURNE's {phase} peak "
                f"{by_method['BOURNE']:.1f} MB is the lowest (others "
                + ", ".join(f"{m} {mb:.1f}" for m, mb in others.items())
                + ")",
                all(by_method["BOURNE"] < mb for mb in others.values())))
    return ExperimentResult(
        experiment="fig6_memory",
        headers=["dataset", "method", "train_peak_MB", "infer_peak_MB"],
        rows=rows,
        series=series,
        notes="Shape claim: BOURNE's bars are the lowest and the gap widens "
              "with dataset size.",
        claims=claims,
    )


if __name__ == "__main__":
    print(run().render(precision=1))
