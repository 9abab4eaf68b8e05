"""Unit tests for optimizers and the EMA target updater."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Parameter
from repro.optim import Adam, ExponentialMovingAverage
from repro.tensor import Tensor


def quadratic_loss(param, target):
    diff = param - Tensor(target)
    return (diff * diff).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(4))
        target = np.array([1.0, -2.0, 3.0, 0.5])
        optimizer = Adam([param], lr=0.05)
        for _ in range(400):
            optimizer.zero_grad()
            quadratic_loss(param, target).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, target, atol=1e-3)

    def test_skips_params_without_grad(self):
        a, b = Parameter(np.ones(2)), Parameter(np.ones(2))
        optimizer = Adam([a, b], lr=0.1)
        a.grad = np.ones(2)
        optimizer.step()
        np.testing.assert_array_equal(b.data, np.ones(2))
        assert not np.allclose(a.data, np.ones(2))

    def test_weight_decay_shrinks_params(self):
        param = Parameter(np.full(3, 10.0))
        optimizer = Adam([param], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            optimizer.zero_grad()
            param.grad = np.zeros(3)
            optimizer.step()
        assert np.all(np.abs(param.data) < 10.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_zero_grad(self):
        param = Parameter(np.ones(2))
        param.grad = np.ones(2)
        Adam([param]).zero_grad()
        assert param.grad is None

    def test_first_step_size_close_to_lr(self):
        # Adam's bias correction makes the first update ≈ lr·sign(grad).
        param = Parameter(np.zeros(1))
        optimizer = Adam([param], lr=0.01)
        param.grad = np.array([5.0])
        optimizer.step()
        assert abs(param.data[0] + 0.01) < 1e-6


class TestEMA:
    def test_initialize_copies(self):
        online = [Parameter(np.full(3, 5.0))]
        target = [Parameter(np.zeros(3))]
        ema = ExponentialMovingAverage(online, target, decay=0.9)
        ema.initialize()
        np.testing.assert_array_equal(target[0].data, online[0].data)

    def test_update_formula(self):
        online = [Parameter(np.full(2, 1.0))]
        target = [Parameter(np.zeros(2))]
        ema = ExponentialMovingAverage(online, target, decay=0.9)
        ema.update()
        np.testing.assert_allclose(target[0].data, [0.1, 0.1])

    def test_converges_to_online(self):
        online = [Parameter(np.full(2, 1.0))]
        target = [Parameter(np.zeros(2))]
        ema = ExponentialMovingAverage(online, target, decay=0.5)
        for _ in range(60):
            ema.update()
        np.testing.assert_allclose(target[0].data, [1.0, 1.0], atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExponentialMovingAverage([Parameter(np.zeros(2))],
                                     [Parameter(np.zeros(3))])

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExponentialMovingAverage([Parameter(np.zeros(2))], [])

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            ExponentialMovingAverage([Parameter(np.zeros(1))],
                                     [Parameter(np.zeros(1))], decay=1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.99),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0))
    def test_update_stays_between_endpoints(self, decay, start, online_value):
        online = [Parameter(np.array([online_value]))]
        target = [Parameter(np.array([start]))]
        ExponentialMovingAverage(online, target, decay=decay).update()
        low, high = min(start, online_value), max(start, online_value)
        assert low - 1e-9 <= target[0].data[0] <= high + 1e-9

