"""Tests for the evaluation harness: profiles, runner, reporting, profiling."""

import numpy as np
import pytest

from repro.eval import (
    DEFAULT,
    FULL,
    QUICK,
    bourne_config,
    format_series,
    format_table,
    get_profile,
    measure,
    normalize_graph,
    prepare_graph,
    write_csv,
)
from repro.eval.experiments.common import ExperimentResult
from repro.eval.paper_reference import (
    HEADLINE_CLAIMS,
    TABLE3_NAD,
    TABLE4_EAD,
    TABLE5_TIME,
)


class TestProfiles:
    def test_three_levels_ordered(self):
        assert QUICK.scale < DEFAULT.scale < FULL.scale
        assert QUICK.bourne_epochs < DEFAULT.bourne_epochs < FULL.bourne_epochs

    def test_get_profile_by_name(self):
        assert get_profile("quick") is QUICK

    def test_get_profile_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert get_profile() is FULL

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_profile("turbo")

    def test_scaled_down(self):
        smaller = DEFAULT.scaled_down(0.5)
        # Only the training budget shrinks; the dataset scale is kept so
        # the injected anomaly rate stays realistic (see EvalProfile).
        assert smaller.scale == DEFAULT.scale
        assert smaller.bourne_epochs < DEFAULT.bourne_epochs


class TestRunnerHelpers:
    def test_normalize_graph_unit_rows(self, tiny_graph):
        normalized = normalize_graph(tiny_graph)
        norms = np.linalg.norm(normalized.features, axis=1)
        np.testing.assert_allclose(norms, 1.0)
        np.testing.assert_array_equal(normalized.edges, tiny_graph.edges)

    def test_normalize_graph_zero_row_safe(self, rng):
        from repro.graph import Graph
        g = Graph(np.zeros((3, 4)), np.array([[0, 1]]))
        normalized = normalize_graph(g)
        assert np.all(np.isfinite(normalized.features))

    def test_prepare_graph_deterministic(self):
        a = prepare_graph("cora", QUICK)
        b = prepare_graph("cora", QUICK)
        np.testing.assert_allclose(a.features, b.features)

    def test_bourne_config_per_dataset(self):
        cora = bourne_config("cora", FULL)
        blog = bourne_config("blogcatalog", FULL)
        assert cora.subgraph_size == 12
        assert blog.subgraph_size == 40      # paper K for social networks
        assert blog.beta > blog.alpha

    def test_bourne_config_caps_subgraph_in_cheap_profiles(self):
        assert bourne_config("blogcatalog", QUICK).subgraph_size <= 8
        assert bourne_config("blogcatalog", DEFAULT).subgraph_size <= 16

    def test_bourne_config_overrides(self):
        cfg = bourne_config("cora", QUICK, alpha=0.3)
        assert cfg.alpha == 0.3


class TestProfiling:
    def test_measure_records_time(self):
        with measure() as usage:
            sum(range(100_000))
        assert usage.seconds > 0
        assert usage.peak_mb >= 0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", 2.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.2346" in text

    def test_format_series(self):
        text = format_series("s", [1, 2], [0.5, 0.75])
        assert "series: s" in text
        assert "0.7500" in text

    def test_write_csv_roundtrip(self, tmp_path):
        path = write_csv(str(tmp_path / "out.csv"), ["a", "b"], [[1, 2]])
        content = open(path).read()
        assert "a,b" in content and "1,2" in content

    def test_experiment_result_render_and_save(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        result = ExperimentResult(
            experiment="demo", headers=["x"], rows=[[1.0]],
            series={"curve": ([0, 1], [0.0, 1.0])}, notes="n",
        )
        text = result.render()
        assert "demo" in text and "curve" in text and "note: n" in text
        result.save()
        assert (tmp_path / "demo.csv").exists()
        assert (tmp_path / "demo__curve.csv").exists()


class TestPaperReference:
    def test_table3_bourne_best_everywhere(self):
        for dataset, methods in TABLE3_NAD.items():
            best = max(methods, key=lambda m: methods[m][2])
            assert best == "BOURNE", dataset

    def test_table4_bourne_best_everywhere(self):
        for dataset, methods in TABLE4_EAD.items():
            best = max(methods, key=lambda m: methods[m][2])
            assert best == "BOURNE", dataset

    def test_table5_bourne_fastest(self):
        for dataset, times in TABLE5_TIME["training"].items():
            numeric = {m: t for m, t in times.items() if isinstance(t, float)}
            if "BOURNE" in numeric and len(numeric) > 1:
                assert numeric["BOURNE"] == min(numeric.values())

    def test_headline_claims_present(self):
        assert HEADLINE_CLAIMS["ead_auc_gain_pct"] == 22.53
