"""Unit tests for the reverse-mode autodiff engine."""

import sys
import threading

import numpy as np
import pytest

from repro.tensor import Tensor, concat, is_grad_enabled, no_grad
from repro.tensor.autograd import _unbroadcast

from gradcheck import gradcheck


class TestTensorBasics:
    def test_construction_coerces_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.dtype, np.floating)

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.shape == (3, 4)
        assert t.ndim == 2
        assert t.size == 12

    def test_item_on_scalar(self):
        assert Tensor(np.array(2.5)).item() == 2.5

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor(np.zeros(2), requires_grad=True))
        assert "requires_grad" not in repr(Tensor(np.zeros(2)))

    def test_detach_shares_data_but_no_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_copy_is_independent(self):
        t = Tensor(np.ones(3))
        c = t.copy()
        c.data[0] = 99.0
        assert t.data[0] == 1.0

    def test_numpy_returns_underlying_array(self):
        t = Tensor(np.arange(3.0))
        assert t.numpy() is t.data


class TestBackwardMechanics:
    def test_backward_requires_grad_flag(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.backward(np.ones(3))

    def test_backward_scalar_default_grad(self):
        t = Tensor(np.array(3.0), requires_grad=True)
        (t * 2.0).backward()
        assert t.grad == pytest.approx(2.0)

    def test_backward_nonscalar_needs_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = t * 2.0
        with pytest.raises(RuntimeError):
            out.backward()

    def test_grad_accumulates_across_backward_calls(self):
        t = Tensor(np.array(1.0), requires_grad=True)
        (t * 3.0).backward()
        (t * 3.0).backward()
        assert t.grad == pytest.approx(6.0)

    def test_zero_grad(self):
        t = Tensor(np.array(1.0), requires_grad=True)
        (t * 3.0).backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = x*x + x*x should give dy/dx = 4x
        x = Tensor(np.array(3.0), requires_grad=True)
        a = x * x
        b = x * x
        (a + b).backward()
        assert x.grad == pytest.approx(12.0)

    def test_no_grad_blocks_graph_construction(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_shared_subexpression(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = x * 3.0
        z = y * y          # z = 9x², dz/dx = 18x = 36
        z.backward()
        assert x.grad == pytest.approx(36.0)


class TestArithmetic:
    def test_add_gradcheck(self, rng):
        gradcheck(lambda a, b: a + b, [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])

    def test_add_broadcast_gradcheck(self, rng):
        gradcheck(lambda a, b: a + b, [rng.normal(size=(3, 4)), rng.normal(size=(4,))])

    def test_sub_gradcheck(self, rng):
        gradcheck(lambda a, b: a - b, [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))])

    def test_rsub_with_scalar(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = 5.0 - x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, -1.0])

    def test_mul_gradcheck(self, rng):
        gradcheck(lambda a, b: a * b, [rng.normal(size=(3,)), rng.normal(size=(3,))])

    def test_div_gradcheck(self, rng):
        a = rng.normal(size=(3,))
        b = rng.uniform(1.0, 2.0, size=(3,))
        gradcheck(lambda x, y: x / y, [a, b])

    def test_rdiv_with_scalar(self):
        x = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        (1.0 / x).sum().backward()
        np.testing.assert_allclose(x.grad, [-0.25, -0.0625])

    def test_pow_gradcheck(self, rng):
        gradcheck(lambda a: a ** 3, [rng.uniform(0.5, 2.0, size=(4,))])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** Tensor(np.ones(2))

    def test_neg(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        (-x).sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, -1.0])

    def test_comparison_returns_numpy(self):
        x = Tensor(np.array([1.0, 3.0]))
        assert isinstance(x > 2.0, np.ndarray)
        np.testing.assert_array_equal(x > 2.0, [False, True])
        np.testing.assert_array_equal(x <= 1.0, [True, False])


class TestMatmul:
    def test_2d_2d(self, rng):
        gradcheck(lambda a, b: a @ b, [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])

    def test_2d_1d(self, rng):
        gradcheck(lambda a, b: a @ b, [rng.normal(size=(3, 4)), rng.normal(size=(4,))])

    def test_1d_2d(self, rng):
        gradcheck(lambda a, b: a @ b, [rng.normal(size=(4,)), rng.normal(size=(4, 2))])

    def test_1d_1d_dot(self, rng):
        gradcheck(lambda a, b: a @ b, [rng.normal(size=(5,)), rng.normal(size=(5,))])

    def test_value_matches_numpy(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)


class TestShapes:
    def test_transpose_default(self, rng):
        gradcheck(lambda a: a.T * 2.0, [rng.normal(size=(3, 4))])

    def test_transpose_axes(self, rng):
        gradcheck(lambda a: a.transpose((1, 0)) * 2.0, [rng.normal(size=(2, 5))])

    def test_reshape(self, rng):
        gradcheck(lambda a: a.reshape(6) * 3.0, [rng.normal(size=(2, 3))])

    def test_reshape_tuple_arg(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape((2, 3)).shape == (2, 3)
        assert t.reshape(3, 2).shape == (3, 2)

    def test_getitem_int_row(self, rng):
        gradcheck(lambda a: a[1], [rng.normal(size=(3, 4))])

    def test_getitem_slice(self, rng):
        gradcheck(lambda a: a[1:3], [rng.normal(size=(4, 2))])

    def test_getitem_fancy_index_with_repeats(self):
        # Repeated rows must accumulate gradient, not overwrite.
        x = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0, 0.0])

    def test_concat_axis0(self, rng):
        gradcheck(lambda a, b: concat([a, b], axis=0),
                  [rng.normal(size=(2, 3)), rng.normal(size=(4, 3))])

    def test_concat_axis1(self, rng):
        gradcheck(lambda a, b: concat([a, b], axis=1),
                  [rng.normal(size=(2, 3)), rng.normal(size=(2, 2))])


class TestReductions:
    def test_sum_all(self, rng):
        gradcheck(lambda a: a.sum(), [rng.normal(size=(3, 4))])

    def test_sum_axis0(self, rng):
        gradcheck(lambda a: a.sum(axis=0), [rng.normal(size=(3, 4))])

    def test_sum_axis1_keepdims(self, rng):
        gradcheck(lambda a: a.sum(axis=1, keepdims=True), [rng.normal(size=(3, 4))])

    def test_mean_axis(self, rng):
        gradcheck(lambda a: a.mean(axis=0), [rng.normal(size=(5, 2))])

    def test_mean_value(self):
        t = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]))
        np.testing.assert_allclose(t.mean().data, 4.0)
        np.testing.assert_allclose(t.mean(axis=0).data, [3.0, 5.0])

    def test_max_axis_gradient_no_ties(self):
        x = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]), requires_grad=True)
        x.max(axis=0).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_max_splits_gradient_on_ties(self):
        x = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.0])


class TestElementwise:
    def test_exp(self, rng):
        gradcheck(lambda a: a.exp(), [rng.normal(size=(4,))])

    def test_log(self, rng):
        gradcheck(lambda a: a.log(), [rng.uniform(0.5, 3.0, size=(4,))])

    def test_sqrt(self, rng):
        gradcheck(lambda a: a.sqrt(), [rng.uniform(0.5, 3.0, size=(4,))])

    def test_abs(self, rng):
        gradcheck(lambda a: a.abs(), [rng.normal(size=(4,)) + 0.5])

    def test_tanh(self, rng):
        gradcheck(lambda a: a.tanh(), [rng.normal(size=(4,))])

    def test_sigmoid(self, rng):
        gradcheck(lambda a: a.sigmoid(), [rng.normal(size=(4,))])

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor(np.array([-1000.0, 1000.0]))
        s = t.sigmoid().data
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, [0.0, 1.0], atol=1e-12)

    def test_relu(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_clip_gradient_masks_outside(self):
        x = Tensor(np.array([-5.0, 0.5, 5.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestHelpers:
    def test_unbroadcast_to_row(self):
        grad = np.ones((3, 4))
        out = _unbroadcast(grad, (4,))
        np.testing.assert_allclose(out, [3.0] * 4)

    def test_unbroadcast_keepdim_axis(self):
        grad = np.ones((3, 4))
        out = _unbroadcast(grad, (3, 1))
        np.testing.assert_allclose(out, [[4.0]] * 3)

    def test_unbroadcast_noop_when_same_shape(self):
        grad = np.ones((2, 2))
        assert _unbroadcast(grad, (2, 2)) is grad


class TestGradModeThreads:
    def test_interleaved_no_grad_blocks_leave_every_thread_enabled(self):
        """Thread A enters ``no_grad``, B enters, A exits, B exits: the
        order two serving threads can produce.  Every thread must
        record gradients again afterwards."""
        a_in, b_in = threading.Event(), threading.Event()
        a_out, b_out = threading.Event(), threading.Event()
        enabled = {}

        def thread_a():
            with no_grad():
                a_in.set()
                b_in.wait(10)
            a_out.set()
            b_out.wait(10)
            enabled["a"] = is_grad_enabled()

        def thread_b():
            a_in.wait(10)
            with no_grad():
                b_in.set()
                a_out.wait(10)
            b_out.set()
            enabled["b"] = is_grad_enabled()

        threads = [threading.Thread(target=thread_a),
                   threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        enabled["main"] = is_grad_enabled()
        assert enabled == {"a": True, "b": True, "main": True}
        assert Tensor(np.ones(2), requires_grad=True).requires_grad

    def test_no_grad_on_one_thread_leaves_others_recording(self):
        inside, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with no_grad():
                inside.set()
                release.wait(10)

        thread = threading.Thread(target=hold_no_grad)
        thread.start()
        try:
            assert inside.wait(10)
            assert is_grad_enabled()
            assert Tensor(np.ones(2), requires_grad=True).requires_grad
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()

    def test_stress_many_threads_toggling(self):
        """More threads than cores enter and leave ``no_grad`` with a
        short switch interval; each sees only its own flag."""
        errors = []

        def toggle():
            for _ in range(300):
                if not is_grad_enabled():
                    errors.append("disabled outside no_grad")
                with no_grad():
                    if is_grad_enabled():
                        errors.append("enabled inside no_grad")
                    if Tensor(np.ones(1), requires_grad=True).requires_grad:
                        errors.append("graph recorded inside no_grad")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=toggle) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert is_grad_enabled()
