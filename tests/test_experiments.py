"""Integration tests for the per-table/figure experiment runners.

All runs use the quick profile with tiny method subsets so the suite
stays fast.  Each runner must return boolean claim verdicts; whether
they hold is only meaningful at the default profile, which
``scripts/run_experiment.py`` runs (CI checks every experiment whose
claims hold on cora).
"""

import numpy as np
import pytest

from repro.eval.experiments import (
    ALL_EXPERIMENTS,
    clear_detection_cache,
    fig3,
    fig4,
    fig5,
    fig7,
    fig8,
    fig10,
    run_detection,
    table2,
    table3,
    table4,
    table5,
)
from repro.eval.runner import QUICK


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_detection_cache()
    yield
    clear_detection_cache()


TINY = QUICK


def assert_verdicts(result):
    assert result.claims
    assert all(isinstance(holds, bool) for _, holds in result.claims)


class TestRegistry:
    def test_every_paper_artifact_has_an_experiment(self):
        assert set(ALL_EXPERIMENTS) == {
            "table2", "table3", "table4", "table5",
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10",
            "headline",
        }

    def test_all_modules_expose_run(self):
        for module in ALL_EXPERIMENTS.values():
            assert callable(module.run)


class TestDetectionCache:
    def test_cache_reuses_bourne(self):
        first = run_detection("cora", TINY, node_methods=[], edge_methods=[])
        second = run_detection("cora", TINY, node_methods=[], edge_methods=[])
        assert first is second
        assert "BOURNE" in first["methods"]

    def test_cache_extends_with_new_methods(self):
        base = run_detection("cora", TINY, node_methods=[], edge_methods=[])
        extended = run_detection("cora", TINY, node_methods=["Radar"],
                                 edge_methods=[])
        assert extended is base
        assert "Radar" in extended["methods"]


class TestTableRunners:
    def test_table2_rows(self):
        result = table2.run(profile=TINY, datasets=["cora"])
        assert len(result.rows) == 1
        assert result.rows[0][0] == "cora"
        assert_verdicts(result)

    def test_table3_shape(self):
        result = table3.run(profile=TINY, datasets=["cora"], methods=["Radar"])
        methods = {row[1] for row in result.rows}
        assert methods == {"Radar", "BOURNE"}
        for row in result.rows:
            assert 0.0 <= row[4] <= 1.0       # AUC column
        assert_verdicts(result)

    def test_table4_shape(self):
        result = table4.run(profile=TINY, datasets=["cora"], methods=["AANE"])
        methods = {row[1] for row in result.rows}
        assert methods == {"AANE", "BOURNE"}
        assert_verdicts(result)

    def test_table5_reports_resources(self):
        result = table5.run(profile=TINY, datasets=["cora"])
        for row in result.rows:
            assert row[2] > 0     # train seconds
            assert row[4] > 0     # train peak MB
        rates = table5.acceleration_rates(result)
        assert "cora" in rates and "CoLA" in rates["cora"]
        assert_verdicts(result)


class TestFigureRunners:
    def test_fig3_series_and_rows(self):
        result = fig3.run(profile=TINY, datasets=["cora"], methods=["Radar"],
                          curve_points=10)
        assert "cora/BOURNE" in result.series
        assert not any(name.startswith("dgraph/") for name in result.series)
        xs, ys = result.series["cora/BOURNE"]
        assert len(xs) == len(ys) == 10
        assert ys[0] <= ys[-1]
        assert_verdicts(result)

    def test_fig4_series(self):
        result = fig4.run(profile=TINY, datasets=["cora"], methods=["GAE"],
                          curve_points=10)
        assert "cora/GAE" in result.series
        assert not any(name.startswith("dgraph/") for name in result.series)
        assert_verdicts(result)

    def test_fig5_variants(self):
        result = fig5.run(profile=TINY, datasets=["cora"],
                          variants=["w/o PL", "full"])
        variants = {row[1] for row in result.rows}
        assert variants == {"w/o PL", "full"}
        # node-only/edge-only produce NaN in the complementary column.
        for row in result.rows:
            assert np.isfinite(row[2]) or np.isfinite(row[3])
        assert_verdicts(result)

    def test_fig7_grid(self):
        result = fig7.run(profile=TINY, datasets=["cora"], grid=[0.5, 1.0])
        assert len(result.rows) == 4
        surface = result.series["cora/auc_surface_row_major"][1]
        assert len(surface) == 4
        assert_verdicts(result)

    def test_fig8_sweeps(self):
        result = fig8.run(profile=TINY, datasets=["cora"],
                          hidden_dims=[8, 16], eval_rounds=[1, 2],
                          decay_rates=[0.5, 0.9])
        parameters = {row[1] for row in result.rows}
        assert parameters == {"hidden_dim", "eval_rounds", "decay_rate"}
        assert "cora/hidden_dim" in result.series
        assert_verdicts(result)

    def test_fig10_correlation_sweep(self):
        result = fig10.run(profile=TINY, dataset="cora",
                           correlations=[1.0, 0.0])
        assert len(result.rows) == 2
        achieved = [row[1] for row in result.rows]
        assert achieved[0] >= achieved[1]
        for row in result.rows:
            for auc in row[2:]:
                assert 0.0 <= auc <= 1.0
        assert_verdicts(result)
