"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main


class TestDatasetsCommand:
    def test_lists_all_six(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("cora", "pubmed", "acm", "blogcatalog", "flickr", "dgraph"):
            assert name in out


class TestTrainCommand:
    def test_train_reports_aucs(self, capsys, tmp_path):
        code = main([
            "train", "--dataset", "cora", "--scale", "0.08",
            "--epochs", "2", "--hidden", "16", "--subgraph-size", "4",
            "--rounds", "2",
            "--save", str(tmp_path / "model.npz"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "node AUC" in out and "edge AUC" in out
        assert (tmp_path / "model.npz").exists()


class TestScoreCommand:
    def test_roundtrip_train_then_score(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "model.npz")
        main(["train", "--dataset", "cora", "--scale", "0.08",
              "--epochs", "1", "--hidden", "16", "--subgraph-size", "4",
              "--rounds", "1", "--save", checkpoint])
        capsys.readouterr()
        out_prefix = str(tmp_path / "scores")
        code = main(["score", "--dataset", "cora", "--scale", "0.08",
                     "--model", checkpoint, "--rounds", "1",
                     "--out", out_prefix])
        assert code == 0
        assert os.path.exists(out_prefix + ".nodes.csv")
        assert os.path.exists(out_prefix + ".edges.csv")
        with open(out_prefix + ".nodes.csv") as handle:
            header = handle.readline().strip()
        assert header == "node,score,label"

    def test_feature_mismatch_rejected(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "model.npz")
        main(["train", "--dataset", "cora", "--scale", "0.08",
              "--epochs", "1", "--hidden", "16", "--subgraph-size", "4",
              "--rounds", "1", "--save", checkpoint])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["score", "--dataset", "cora", "--scale", "0.12",
                  "--model", checkpoint])


class TestServeCommand:
    def _train_checkpoint(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "model.npz")
        main(["train", "--dataset", "cora", "--scale", "0.08",
              "--epochs", "1", "--hidden", "16", "--subgraph-size", "4",
              "--rounds", "1", "--save", checkpoint])
        capsys.readouterr()
        return checkpoint

    def test_jsonl_session(self, tmp_path, capsys):
        checkpoint = self._train_checkpoint(tmp_path, capsys)
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join([
            json.dumps({"op": "score", "nodes": [0, 1, 2]}),
            json.dumps({"op": "add_edge", "u": 0, "v": 5}),
            json.dumps({"op": "score", "nodes": [0]}),
            json.dumps({"op": "refresh"}),
            json.dumps({"op": "bogus"}),
            json.dumps([1, 2]),          # valid JSON, not an object
            json.dumps({"op": "stats"}),
        ]))
        code = main(["serve", "--model", checkpoint, "--dataset", "cora",
                     "--scale", "0.08", "--rounds", "1",
                     "--input", str(requests)])
        assert code == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert lines[0]["op"] == "ready" and lines[0]["num_nodes"] > 0
        score_line = lines[1]
        assert score_line["ok"] and set(score_line["scores"]) == {"0", "1", "2"}
        assert lines[2]["added"] is True
        assert lines[4]["rescored"] > 0
        assert lines[5]["ok"] is False  # unknown op reported, not fatal
        assert lines[6]["ok"] is False  # non-object JSON reported, not fatal
        assert lines[7]["stats"]["requests"] >= 4

    def test_registry_source(self, tmp_path, capsys):
        from repro.core import load_model
        from repro.serving import ModelRegistry

        checkpoint = self._train_checkpoint(tmp_path, capsys)
        registry = ModelRegistry(str(tmp_path / "registry"))
        registry.publish(load_model(checkpoint), "cora-detector")
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"op": "score", "nodes": [3]}) + "\n")
        code = main(["serve", "--registry", str(tmp_path / "registry"),
                     "--name", "cora-detector", "--dataset", "cora",
                     "--scale", "0.08", "--rounds", "1",
                     "--input", str(requests)])
        assert code == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert lines[1]["ok"] and "3" in lines[1]["scores"]

    def test_registry_requires_name(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--registry", str(tmp_path), "--dataset", "cora",
                  "--input", os.devnull])

    def test_malformed_json_reports_structured_error(self, tmp_path, capsys):
        """A malformed line gets a structured error response (with
        error_type), and the loop keeps serving subsequent requests."""
        checkpoint = self._train_checkpoint(tmp_path, capsys)
        requests = tmp_path / "requests.jsonl"
        requests.write_text("{not json at all\n"
                            + json.dumps({"op": "stats", "id": "after"}) + "\n")
        code = main(["serve", "--model", checkpoint, "--dataset", "cora",
                     "--scale", "0.08", "--rounds", "1",
                     "--input", str(requests)])
        assert code == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert lines[1]["ok"] is False
        assert "invalid JSON" in lines[1]["error"]
        assert lines[1]["error_type"] == "ValueError"
        assert lines[2]["ok"] is True and lines[2]["id"] == "after"

    def test_invalid_listen_rejected(self, tmp_path, capsys):
        checkpoint = self._train_checkpoint(tmp_path, capsys)
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["serve", "--model", checkpoint, "--dataset", "cora",
                  "--scale", "0.08", "--listen", "nonsense"])


class TestServeLoop:
    """The request loop's robustness contract, tested in isolation."""

    def _service(self, tmp_path):
        import numpy as np

        from repro.core import Bourne, BourneConfig
        from repro.graph import Graph
        from repro.serving import GraphStore, ScoringService

        rng = np.random.default_rng(0)
        features = rng.normal(size=(20, 4))
        edges = np.array([[i, (i + 1) % 20] for i in range(20)])
        model = Bourne(4, BourneConfig(hidden_dim=8, predictor_hidden=16,
                                       subgraph_size=4, hop_size=2,
                                       eval_rounds=1, seed=0))
        store = GraphStore.from_graph(Graph(features, edges),
                                      influence_radius=2)
        return ScoringService(model, store, rounds=1)

    def test_responses_flushed_per_line(self, tmp_path):
        from repro.cli import _serve_loop

        class CountingOut:
            def __init__(self):
                self.flushes = 0
                self.lines = []

            def write(self, text):
                self.lines.append(text)

            def flush(self):
                self.flushes += 1

        out = CountingOut()
        source = [json.dumps({"op": "stats"}), "", json.dumps({"op": "stats"})]
        assert _serve_loop(self._service(tmp_path), source, out) == 0
        assert len(out.lines) == 2
        assert out.flushes == 2  # one flush per response line

    def test_broken_pipe_exits_cleanly(self, tmp_path):
        from repro.cli import _serve_loop

        class BrokenOut:
            def __init__(self):
                self.writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise BrokenPipeError("downstream went away")

            def flush(self):
                pass

        out = BrokenOut()
        source = [json.dumps({"op": "stats"})] * 5
        # The loop must stop serving and return cleanly, not raise.
        assert _serve_loop(self._service(tmp_path), source, out) == 0
        assert out.writes == 2


class TestExperimentCommand:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])

    def test_table2_quick(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        code = main(["experiment", "table2", "--profile", "quick"])
        assert code == 0
        assert "table2_datasets" in capsys.readouterr().out

    def test_failed_claim_exits_nonzero(self, capsys, monkeypatch, tmp_path):
        from types import SimpleNamespace

        from repro.eval.experiments import ALL_EXPERIMENTS, ExperimentResult

        def run(profile):
            return ExperimentResult(
                "stub", ["x"], [[1]],
                claims=[("stub holds", True), ("stub fails", False)])

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.setitem(ALL_EXPERIMENTS, "stub", SimpleNamespace(run=run))
        assert main(["experiment", "stub", "--profile", "quick"]) == 1
        out = capsys.readouterr().out
        assert "[holds] stub holds" in out
        assert "[FAILS] stub fails" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
