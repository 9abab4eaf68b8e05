#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from the CSVs under results/p*/.

Collects every experiment CSV produced by scripts/run_experiment.py
(possibly split across parallel result directories), merges rows, and
writes the paper-vs-measured record.
"""

from __future__ import annotations

import csv
import glob
import os
import sys
from collections import defaultdict

RESULTS_GLOBS = [
    os.path.join("results", "*.csv"),        # run_experiment.py outputs
    os.path.join("results", "p*", "*.csv"),  # parallel generation outputs
]

INTRO = """# EXPERIMENTS — paper vs measured

Every table and figure of the paper, regenerated by
`scripts/run_experiment.py`, which also prints whether each of the
paper's shape claims holds and exits 1 when one fails.  Profile:
`default` — synthetic datasets at scale 0.15 of the published sizes,
reduced training budgets.  The reproduction target is each claim's
*shape*, not the paper's absolute numbers: the datasets are synthetic
stand-ins, so absolute AUCs are not comparable.  The digest below
merges whatever result CSVs are present under `results/`; name datasets
on the command line to regenerate a subset.

Regenerate any artifact with, e.g.:

```bash
python scripts/run_experiment.py                 # every experiment
python scripts/run_experiment.py fig5 cora pubmed blogcatalog
```

## Reproduction status summary

| Artifact | Paper claim (shape) | Status |
|---|---|---|
| Table II | dataset sizes + injected anomaly counts | ✓ generators calibrated; anomaly counts follow the §V-A protocol |
| Table III | BOURNE best NAD AUC on every dataset | ✓ at the default budget (40-epoch BOURNE); margins are small, as in the paper |
| Table IV | BOURNE best EAD AUC; GAE weakest | ✓ |
| Table V | BOURNE cheapest; SL-GAD > CoLA > BOURNE; gap grows with size | ✗ **deviation**: under the matched-budget protocol (same epochs/width for all three) CoLA trains faster than BOURNE here — the CoLA/BOURNE training-time ratio read 0.51–0.64 on cora and 0.29–0.34 on pubmed, so the "CoLA slower than BOURNE" claim fails (SL-GAD slower than CoLA holds) |
| Fig. 3/4 | ROC curves dominate baselines | ✓ series emitted per method/dataset |
| Fig. 5 | full model ≥ every ablation | ✓ for w/o PL / w/o SL / w/o HGNN / w/o GNN. **Deviation**: Appendix B reports AUC collapse to ~0.55 without hypergraph perturbation; on our synthetic substrate the unaugmented model does not collapse (the bootstrapped objective finds other variation sources — R-round subgraph sampling already randomizes views) |
| Fig. 6 | BOURNE lowest memory | ✗ **deviation**: on this substrate BOURNE's tracemalloc peak exceeds CoLA/SL-GAD — most of its inference peak is float64 view stacks, 11.5–11.7 MB each at 256 views on cora; the paper's GPU-memory advantage stems from negative-pair residency, which is not the binding constraint here |
| Fig. 7 | citation nets favour high α, social nets high β | ✓ surface emitted; optimum location reproduced qualitatively |
| Fig. 8 | AUC saturates in D', R; improves with τ | ✓ |
| Fig. 10a | BOURNE ≈ SL-GAD on nodes as C_ano → 0 | ✓ |
| Fig. 10b | BOURNE > UGED on edges at all C_ano | ✗ **partial**: BOURNE stays well above chance across the sweep, but our UGED (feature-based link predictor) is stronger than BOURNE's edge scores on attributive-only injection at this reduced budget |
"""


def load_all() -> dict:
    merged: dict = defaultdict(lambda: {"headers": None, "rows": {}})
    paths = []
    for pattern in RESULTS_GLOBS:
        paths.extend(glob.glob(pattern))
    for path in sorted(paths):
        name = os.path.splitext(os.path.basename(path))[0]
        if "__" in name:          # figure series files — skip in the digest
            continue
        with open(path) as handle:
            reader = csv.reader(handle)
            headers = next(reader)
            merged[name]["headers"] = headers
            for row in reader:
                # Dedupe across sources by the leading key columns
                # (dataset/method/parameter); later files win.
                merged[name]["rows"][tuple(row[:3])] = row
    return {
        name: {"headers": entry["headers"],
               "rows": sorted(entry["rows"].values())}
        for name, entry in merged.items()
    }


def markdown_table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        formatted = []
        for value in row:
            try:
                formatted.append(f"{float(value):.4f}")
            except ValueError:
                formatted.append(value)
        lines.append("| " + " | ".join(formatted) + " |")
    return "\n".join(lines)


def headline_section(merged) -> str:
    """Aggregate Section V-D style gains from the merged tables."""
    from repro.eval.experiments import headline
    from repro.eval.experiments.common import ExperimentResult

    lines = ["\n## headline_claims (Section V-D aggregates)\n"]
    for table_name, task in (("table3_nad", "NAD"), ("table4_ead", "EAD")):
        if table_name not in merged or not merged[table_name]["rows"]:
            continue
        entry = merged[table_name]
        rows = [
            [r[0], r[1], float(r[2]), float(r[3]), float(r[4]), r[5]]
            for r in entry["rows"]
        ]
        result = ExperimentResult(table_name, entry["headers"], rows)
        gains = headline._gains(result)
        lines.append(
            f"- **{task}** average gain of BOURNE over the best-AUC "
            f"baseline: precision {gains['precision']:+.2f}%, "
            f"recall {gains['recall']:+.2f}%, AUC {gains['auc']:+.2f}%"
        )
    return "\n".join(lines)


def main(out_path: str = "EXPERIMENTS.md"):
    merged = load_all()
    sections = [INTRO]
    order = ["table2_datasets", "table3_nad", "table4_ead",
             "table5_efficiency", "fig3_roc_nad", "fig4_roc_ead",
             "fig5_ablation", "fig6_memory", "fig7_alpha_beta",
             "fig8_sensitivity", "fig10_correlation"]
    for name in order:
        if name not in merged or not merged[name]["rows"]:
            continue
        entry = merged[name]
        sections.append(f"\n## {name}\n")
        sections.append(markdown_table(entry["headers"], entry["rows"]))
    sections.append(headline_section(merged))
    with open(out_path, "w") as handle:
        handle.write("\n".join(sections) + "\n")
    print(f"wrote {out_path} with {len(merged)} experiments")


if __name__ == "__main__":
    main(*sys.argv[1:])
