"""Tests for shared utilities."""

import logging

import numpy as np
import pytest

from repro.utils import (
    check_edge_array,
    check_positive,
    check_probability,
    get_logger,
    rng_from_seed,
)


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
