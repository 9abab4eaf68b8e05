"""Property-based tests (hypothesis) for the autodiff engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.tensor import Tensor

from gradcheck import gradcheck

FINITE = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False, width=64)
POSITIVE = st.floats(min_value=0.2, max_value=3.0, allow_nan=False,
                     allow_infinity=False, width=64)


def small_arrays(shape=(3,), elements=FINITE):
    return arrays(np.float64, shape, elements=elements)


@settings(max_examples=25, deadline=None)
@given(small_arrays((3, 2)), small_arrays((3, 2)))
def test_add_gradient_property(a, b):
    gradcheck(lambda x, y: x + y, [a, b])


@settings(max_examples=25, deadline=None)
@given(small_arrays((4,)), small_arrays((4,)))
def test_mul_gradient_property(a, b):
    gradcheck(lambda x, y: x * y, [a, b])


@settings(max_examples=25, deadline=None)
@given(small_arrays((2, 3)), small_arrays((3, 2)))
def test_matmul_gradient_property(a, b):
    gradcheck(lambda x, y: x @ y, [a, b])


@settings(max_examples=25, deadline=None)
@given(small_arrays((5,)))
def test_tanh_gradient_property(a):
    gradcheck(lambda x: x.tanh(), [a])


@settings(max_examples=25, deadline=None)
@given(small_arrays((5,), elements=POSITIVE))
def test_log_gradient_property(a):
    gradcheck(lambda x: x.log(), [a])


@settings(max_examples=25, deadline=None)
@given(small_arrays((2, 4)))
def test_sum_axis_gradient_property(a):
    gradcheck(lambda x: x.sum(axis=1), [a])


@settings(max_examples=20, deadline=None)
@given(small_arrays((3, 3)))
def test_addition_commutes(a):
    x, y = Tensor(a), Tensor(a[::-1].copy())
    np.testing.assert_allclose((x + y).data, (y + x).data)


@settings(max_examples=20, deadline=None)
@given(small_arrays((3, 3)), small_arrays((3, 3)))
def test_distributive_law(a, b):
    x, y = Tensor(a), Tensor(b)
    lhs = (x + y) * 2.0
    rhs = x * 2.0 + y * 2.0
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(small_arrays((4, 2)))
def test_double_transpose_identity(a):
    t = Tensor(a)
    np.testing.assert_allclose(t.T.T.data, a)


@settings(max_examples=20, deadline=None)
@given(small_arrays((6,)))
def test_sigmoid_symmetry(a):
    # σ(−x) = 1 − σ(x)
    t = Tensor(a)
    np.testing.assert_allclose(
        (-t).sigmoid().data, 1.0 - t.sigmoid().data, atol=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(small_arrays((4, 3)))
def test_mean_equals_sum_over_count(a):
    t = Tensor(a)
    np.testing.assert_allclose(t.mean(axis=0).data, t.sum(axis=0).data / 4.0,
                               atol=1e-12)
