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

    def test_bad_gateway_setting_exits_before_ready(self, tmp_path, capsys):
        """``--rate-limit 0`` would refuse every request: serve exits
        non-zero with one line naming the setting, before the ready
        line."""
        checkpoint = self._train_checkpoint(tmp_path, capsys)
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--model", checkpoint, "--dataset", "cora",
                  "--scale", "0.08", "--rate-limit", "0",
                  "--input", os.devnull])
        message = exited.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "rate" in message
        assert "ready" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--poll-interval", "0"),
                                            ("--poll-interval", "-1"),
                                            ("--idle-ttl", "0")])
    def test_non_positive_interval_exits_before_ready(self, tmp_path, capsys,
                                                      flag, value):
        """A zero or negative interval would spin the registry watcher
        or evict every idle tenant on each sweep: serve exits with one
        line naming it, before the ready line."""
        checkpoint = self._train_checkpoint(tmp_path, capsys)
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--model", checkpoint, "--dataset", "cora",
                  "--scale", "0.08", flag, value, "--input", os.devnull])
        message = exited.value.code
        assert isinstance(message, str) and "\n" not in message
        assert flag[2:].replace("-", "_") + " must be positive" in message
        assert "ready" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag,content", [
        ("--autotrain", None),
        ("--autotrain", "{not json"),
        ("--autotrain", '{"drift_treshold": 1}'),
        ("--autotrain", '{"grain": 0}'),
        ("--tenants", None),
    ], ids=["policy-missing", "policy-not-json", "policy-unknown-key",
            "policy-bad-value", "tenants-missing"])
    def test_bad_settings_file_exits_before_ready(self, tmp_path, capsys,
                                                  flag, content):
        """A missing or malformed ``--autotrain`` / ``--tenants`` file
        ends serve with one line naming the file, before the ready
        line."""
        path = tmp_path / "settings.json"
        if content is not None:
            path.write_text(content)
        argv = ["serve", "--dataset", "cora", "--scale", "0.08", flag,
                str(path), "--input", os.devnull]
        if flag == "--autotrain":
            argv += ["--registry", str(tmp_path / "registry"), "--name", "m"]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        message = exited.value.code
        assert isinstance(message, str) and "\n" not in message
        assert str(path) in message
        assert "ready" not in capsys.readouterr().out

    def test_missing_input_file_exits_before_ready(self, tmp_path, capsys):
        """A missing ``--input`` file ends serve with one line naming
        it, before the ready line, as a missing settings file does."""
        tenants = tmp_path / "tenants.json"
        tenants.write_text('[{"name": "t", "model": "m.npz"}]')
        path = tmp_path / "requests.jsonl"
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--tenants", str(tenants), "--input", str(path)])
        message = exited.value.code
        assert isinstance(message, str) and "\n" not in message
        assert str(path) in message
        assert "ready" not in capsys.readouterr().out

    def test_invalid_listen_rejected(self, tmp_path, capsys):
        checkpoint = self._train_checkpoint(tmp_path, capsys)
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["serve", "--model", checkpoint, "--dataset", "cora",
                  "--scale", "0.08", "--listen", "nonsense"])


class TestServeTopologies:
    """Replica pools and tenants answer stdin too, with the scores of
    one in-process service."""

    REQUESTS = [
        {"op": "score", "nodes": [0, 1, 2, 3]},
        {"op": "add_edge", "u": 0, "v": 5},
        {"op": "score_edge", "u": 0, "v": 5},
        {"op": "score", "nodes": [0, 5, 9]},
    ]

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("serve") / "model.npz")
        main(["train", "--dataset", "cora", "--scale", "0.08",
              "--epochs", "1", "--hidden", "16", "--subgraph-size", "4",
              "--rounds", "1", "--save", path])
        return path

    def _scores(self, capsys, tmp_path, argv, service=None):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(
            json.dumps(dict(r, service=service) if service else r)
            for r in self.REQUESTS) + "\n")
        capsys.readouterr()
        assert main(["serve", "--dataset", "cora", "--scale", "0.08",
                     "--rounds", "1", "--input", str(requests)] + argv) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert lines[0]["op"] == "ready"
        assert all(line["ok"] for line in lines), lines
        return [line.get("scores", line.get("score")) for line in lines[1:]
                if line["op"] in ("score", "score_edge")]

    def test_replicas_without_listen(self, checkpoint, capsys, tmp_path):
        single = self._scores(capsys, tmp_path, ["--model", checkpoint])
        pooled = self._scores(capsys, tmp_path,
                              ["--model", checkpoint, "--replicas", "2"])
        assert pooled == single

    def test_tenants_without_listen(self, checkpoint, capsys, tmp_path):
        single = self._scores(capsys, tmp_path, ["--model", checkpoint])
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps([
            {"name": "t", "model": checkpoint, "dataset": "cora",
             "scale": 0.08, "rounds": 1, "replicas": 2}]))
        tenant = self._scores(capsys, tmp_path, ["--tenants", str(spec)],
                              service="t")
        assert tenant == single


class TestServeLoop:
    """The stdin session's robustness contract, tested in isolation: the
    gateway's line loop over a file descriptor."""

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

    def _serve(self, tmp_path, lines, out):
        import asyncio

        from repro.gateway import run_gateway

        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(lines) + "\n")
        fd = os.open(requests, os.O_RDONLY)
        try:
            asyncio.run(run_gateway(self._service(tmp_path), stdin=fd,
                                    out=out))
        finally:
            os.close(fd)

    def test_responses_flushed_per_line(self, tmp_path):
        class CountingOut:
            def __init__(self):
                self.flushes = 0
                self.lines = []

            def write(self, text):
                self.lines.append(text)

            def flush(self):
                self.flushes += 1

        out = CountingOut()
        self._serve(tmp_path, [json.dumps({"op": "stats"}), "",
                               json.dumps({"op": "stats"})], out)
        assert len(out.lines) == 3  # the ready line, then one per request
        assert out.flushes == 3  # one flush per line

    def test_broken_pipe_exits_cleanly(self, tmp_path):
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
        # The session must end at the first failed write and return
        # cleanly, not raise.
        self._serve(tmp_path, [json.dumps({"op": "stats"})] * 5, out)
        assert out.writes == 2

    def test_cancel_drains_the_request_in_flight(self, tmp_path):
        """Cancelling the session (what SIGINT does) while a request
        scores still answers that request before the gateway stops, and
        reads no further line: a queued line is neither answered nor
        rejected."""
        import asyncio
        import io

        from repro.gateway import run_gateway

        service = self._service(tmp_path)
        score_nodes = service.score_nodes
        read_fd, write_fd = os.pipe()
        out = io.StringIO()

        async def scenario():
            loop = asyncio.get_running_loop()
            session = asyncio.ensure_future(
                run_gateway(service, stdin=read_fd, out=out))

            def cancelling_score_nodes(nodes):
                loop.call_soon_threadsafe(session.cancel)
                return score_nodes(nodes)

            service.score_nodes = cancelling_score_nodes
            os.write(write_fd, b'{"op": "score", "nodes": [3]}\n'
                               b'{"op": "stats"}\n')
            with pytest.raises(asyncio.CancelledError):
                await session

        try:
            asyncio.run(scenario())
        finally:
            os.close(write_fd)  # the reader thread's blocked read ends
            os.close(read_fd)
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(lines) == 2  # the ready line and the one answer
        ready, answered = lines
        assert ready["op"] == "ready"
        assert answered["ok"] and "3" in answered["scores"]

    def test_lines_split_across_reads(self, tmp_path):
        """A line that arrives in pieces is answered once it is whole,
        and a last line without a newline is answered at end of input."""
        import asyncio
        import io
        import threading
        import time

        from repro.gateway import run_gateway

        read_fd, write_fd = os.pipe()

        def produce():
            for piece in (b'{"op": "st', b'ats"}\n\n{"op": "score", ',
                          b'"nodes": [3]}'):
                os.write(write_fd, piece)
                time.sleep(0.05)
            os.close(write_fd)

        producer = threading.Thread(target=produce)
        producer.start()
        out = io.StringIO()
        try:
            asyncio.run(run_gateway(self._service(tmp_path), stdin=read_fd,
                                    out=out))
        finally:
            producer.join()
            os.close(read_fd)
        ready, stats, score = [json.loads(line)
                               for line in out.getvalue().splitlines()]
        assert ready["op"] == "ready"
        assert stats["ok"] and stats["op"] == "stats"
        assert score["ok"] and "3" in score["scores"]

    def test_without_stdin_the_gateway_listens(self, tmp_path):
        """``run_gateway(service)`` listens on an ephemeral port of
        127.0.0.1 until cancelled; only ``stdin`` selects the stdin
        session."""
        import asyncio
        import io

        from repro.gateway import run_gateway

        out = io.StringIO()

        async def scenario():
            session = asyncio.ensure_future(
                run_gateway(self._service(tmp_path), out=out))
            while not out.getvalue():
                await asyncio.sleep(0.01)
            ready = json.loads(out.getvalue())
            host, port = ready["listen"].rsplit(":", 1)
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(b'{"op": "stats"}\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            session.cancel()
            with pytest.raises(asyncio.CancelledError):
                await session
            return ready, response

        ready, response = asyncio.run(scenario())
        assert ready["listen"].startswith("127.0.0.1:")
        assert response["ok"] and response["op"] == "stats"


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
