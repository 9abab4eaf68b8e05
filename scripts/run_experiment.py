#!/usr/bin/env python
"""Regenerate the paper's tables and figures and check their claims.

Runs the named experiments (all of ``ORDER`` when none are named),
optionally on a dataset subset, prints each rendered result with its
claim verdicts, and writes CSVs under ``results/``.  Every requested
experiment runs before the exit status is decided: 1 when any claim
failed, else 0.

Usage::

    python scripts/run_experiment.py
    python scripts/run_experiment.py table3,table4 cora
    REPRO_RESULTS_DIR=results/p1 python scripts/run_experiment.py fig5 cora
"""

from __future__ import annotations

import sys
import time

from repro.eval.experiments import ALL_EXPERIMENTS
from repro.eval.runner import get_profile

ORDER = ["table2", "table3", "table4", "fig3", "fig4", "table5", "fig6",
         "fig5", "fig8", "fig10", "fig7", "headline"]


def main(argv) -> int:
    names = argv[1].split(",") if len(argv) > 1 else ORDER
    datasets = argv[2:] or None
    profile = get_profile()
    failed = []
    for name in names:
        module = ALL_EXPERIMENTS[name]
        start = time.time()
        print(f"### running {name} datasets={datasets or 'default'} "
              f"profile={profile.name} (scale={profile.scale})", flush=True)
        kwargs = {}
        if datasets:
            if name == "fig10":
                kwargs["dataset"] = datasets[0]
            else:
                kwargs["datasets"] = datasets
        result = module.run(profile=profile, **kwargs)
        result.save()
        print(result.render(), flush=True)
        print(f"### {name} done in {time.time() - start:.1f}s", flush=True)
        if not all(holds for _, holds in result.claims):
            failed.append(name)
    if failed:
        print(f"### claims failed in: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
