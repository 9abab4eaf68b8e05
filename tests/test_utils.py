"""Tests for shared utilities."""

import json
import logging
import os
import platform
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

from repro.utils import (
    check_edge_array,
    check_positive,
    check_probability,
    get_logger,
    rng_from_seed,
)
from repro.utils import heap
from repro.utils.validation import check_number

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Minor page faults of five repeated numpy reference forwards of one
#: 256-view batch (32 targets x 8 rounds on perfbench's offline config),
#: in the process itself, then in a forked one-worker pool.
FAULT_PROBE = textwrap.dedent("""
    import json
    import resource

    import numpy as np

    from repro.core import Bourne, BourneConfig
    from repro.core.scoring import inference_round_streams
    from repro.datasets import load_benchmark
    from repro.eval import normalize_graph
    from repro.graph.index import derive_target_seeds
    from repro.parallel import WorkerPool
    from repro.tensor.autograd import no_grad


    def forward_faults(_task):
        graph = normalize_graph(load_benchmark("dgraph", seed=0, scale=0.01))
        config = BourneConfig(hidden_dim=64, predictor_hidden=128,
                              subgraph_size=12, alpha=0.8, beta=0.2,
                              eval_rounds=8, seed=1)
        model = Bourne(graph.num_features, config)
        bases, mask_seeds = inference_round_streams(config, 8, None)
        rounds = np.repeat(np.arange(8), 32)
        targets = np.tile(np.arange(32), 8)
        gviews, hviews = model.prepare_batch(
            graph, targets, augment=True,
            target_seeds=derive_target_seeds(bases[rounds], targets))
        faults = []
        with no_grad():
            for _ in range(5):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                model.forward_batch(gviews, hviews, mask_seed=mask_seeds[rounds])
                usage = resource.getrusage(resource.RUSAGE_SELF)
                faults.append(usage.ru_minflt - before)
        return faults


    if __name__ == "__main__":
        process = forward_faults(None)
        with WorkerPool(1) as pool:
            worker = pool.run(forward_faults, [None])[0]
        print(json.dumps({"process": process, "worker": worker}))
""")


class TestSeed:
    def test_rng_deterministic(self):
        a = rng_from_seed(42).random(5)
        b = rng_from_seed(42).random(5)
        np.testing.assert_array_equal(a, b)


class TestValidation:
    def test_check_probability_accepts_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_check_probability_rejects(self):
        with pytest.raises(ValueError, match="p must be"):
            check_probability(1.1, "p")

    def test_check_positive(self):
        assert check_positive(3, "n") == 3
        with pytest.raises(ValueError):
            check_positive(0, "n")

    def test_check_number(self):
        """Ints and floats pass unchanged (bounds are the caller's); a
        bool, a string, a list or null is not a number."""
        for value in (0, -2, 0.25, float("nan")):
            assert check_number(value, "x") is value
        for value in (True, "1", [1], None):
            with pytest.raises(ValueError, match="x must be a number"):
                check_number(value, "x")

    def test_check_edge_array_valid(self):
        edges = check_edge_array(np.array([[0, 1], [1, 2]]), 3)
        assert edges.dtype == np.int64

    def test_check_edge_array_empty(self):
        edges = check_edge_array(np.zeros((0, 2)), 3)
        assert edges.shape == (0, 2)

    def test_check_edge_array_bad_shape(self):
        with pytest.raises(ValueError):
            check_edge_array(np.array([[0, 1, 2]]), 5)

    def test_check_edge_array_self_loop(self):
        with pytest.raises(ValueError):
            check_edge_array(np.array([[1, 1]]), 3)

    def test_check_edge_array_out_of_range(self):
        with pytest.raises(ValueError):
            check_edge_array(np.array([[0, 9]]), 3)


class TestLogging:
    def test_get_logger_idempotent(self):
        a = get_logger("repro.test.logger")
        b = get_logger("repro.test.logger")
        assert a is b
        assert len(a.handlers) == 1

    def test_logger_level(self):
        logger = get_logger("repro.test.level", level=logging.WARNING)
        assert logger.level == logging.WARNING


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy tunes glibc's malloc")
    def test_repeated_reference_forward_takes_no_page_faults(self):
        """Importing repro keeps freed temporaries in the heap: after the
        first forward, a repeated 256-view reference forward no longer
        faults its temporaries in again (about 7,600 minor faults each
        without the policy), and a forked worker inherits the policy.
        A fresh interpreter keeps other tests' heap state out of the
        count.  The bound allows the few faults that remain outside
        malloc's reach: a new page of the interpreter's own object
        arenas, or a worker's first write to a page it shares with its
        parent."""
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
        result = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        faults = json.loads(result.stdout.strip().splitlines()[-1])
        assert max(faults["process"][1:] + faults["worker"][1:]) < 64, faults

    def test_returns_quietly_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(heap.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace())
        assert heap.keep_freed_memory() is None
