"""Unit tests for functional ops: activations, softmax, cosine, dropout."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    binary_cross_entropy_with_logits,
    cosine_similarity,
    dropout,
    elu,
    frobenius_error_rows,
    l2_normalize,
    leaky_relu,
    log_softmax,
    mse,
    prelu,
    relu,
    softmax,
)

from gradcheck import gradcheck


class TestActivations:
    def test_relu_values(self):
        x = Tensor(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_allclose(relu(x).data, [0.0, 0.0, 3.0])

    def test_leaky_relu_values(self):
        x = Tensor(np.array([-2.0, 3.0]))
        np.testing.assert_allclose(leaky_relu(x, 0.1).data, [-0.2, 3.0])

    def test_leaky_relu_gradcheck(self, rng):
        gradcheck(lambda a: leaky_relu(a, 0.2), [rng.normal(size=(5,)) + 0.01])

    def test_prelu_values(self):
        x = Tensor(np.array([-4.0, 2.0]))
        alpha = Tensor(np.array(0.5))
        np.testing.assert_allclose(prelu(x, alpha).data, [-2.0, 2.0])

    def test_prelu_alpha_receives_gradient(self):
        x = Tensor(np.array([-4.0, 2.0]))
        alpha = Tensor(np.array(0.5), requires_grad=True)
        prelu(x, alpha).sum().backward()
        assert alpha.grad == pytest.approx(-4.0)

    def test_prelu_gradcheck_both_inputs(self, rng):
        gradcheck(lambda a, al: prelu(a, al),
                  [rng.normal(size=(6,)) + 0.05, np.array(0.3)])

    def test_elu_values(self):
        x = Tensor(np.array([-1.0, 2.0]))
        out = elu(x).data
        assert out[0] == pytest.approx(np.expm1(-1.0))
        assert out[1] == pytest.approx(2.0)

    def test_elu_gradcheck(self, rng):
        gradcheck(lambda a: elu(a), [rng.normal(size=(5,)) + 0.01])


class TestSoftmax:
    def test_softmax_sums_to_one(self, rng):
        out = softmax(Tensor(rng.normal(size=(3, 5)))).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(3))

    def test_softmax_stable_with_large_inputs(self):
        out = softmax(Tensor(np.array([1000.0, 1000.0]))).data
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_softmax_gradcheck(self, rng):
        gradcheck(lambda a: softmax(a, axis=-1), [rng.normal(size=(2, 4))])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(2, 4)))
        np.testing.assert_allclose(log_softmax(x).data,
                                   np.log(softmax(x).data), atol=1e-10)

    def test_log_softmax_gradcheck(self, rng):
        gradcheck(lambda a: log_softmax(a, axis=-1), [rng.normal(size=(2, 4))])


class TestNormalizeAndCosine:
    def test_l2_normalize_unit_rows(self, rng):
        out = l2_normalize(Tensor(rng.normal(size=(4, 3)))).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), np.ones(4),
                                   rtol=1e-6)

    def test_l2_normalize_zero_row_is_safe(self):
        out = l2_normalize(Tensor(np.zeros((1, 3)))).data
        assert np.all(np.isfinite(out))

    def test_cosine_of_parallel_vectors_is_one(self):
        a = Tensor(np.array([1.0, 2.0]))
        b = Tensor(np.array([2.0, 4.0]))
        assert cosine_similarity(a, b).item() == pytest.approx(1.0)

    def test_cosine_of_orthogonal_vectors_is_zero(self):
        a = Tensor(np.array([1.0, 0.0]))
        b = Tensor(np.array([0.0, 1.0]))
        assert cosine_similarity(a, b).item() == pytest.approx(0.0, abs=1e-9)

    def test_cosine_rowwise_shape(self, rng):
        a = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(rng.normal(size=(5, 3)))
        assert cosine_similarity(a, b).shape == (5,)

    def test_cosine_gradcheck(self, rng):
        gradcheck(lambda a, b: cosine_similarity(a, b),
                  [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])

    def test_cosine_range(self, rng):
        a = Tensor(rng.normal(size=(50, 8)))
        b = Tensor(rng.normal(size=(50, 8)))
        vals = cosine_similarity(a, b).data
        assert np.all(vals <= 1.0 + 1e-9)
        assert np.all(vals >= -1.0 - 1e-9)


class TestDropout:
    def test_dropout_eval_mode_identity(self, rng):
        x = Tensor(np.ones((4, 4)))
        out = dropout(x, 0.5, rng, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_zero_prob_identity(self, rng):
        x = Tensor(np.ones((4, 4)))
        assert dropout(x, 0.0, rng, training=True) is x

    def test_dropout_scales_survivors(self, rng):
        x = Tensor(np.ones((2000,)))
        out = dropout(x, 0.5, rng, training=True).data
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 2.0)
        assert 0.35 < (out > 0).mean() < 0.65

    def test_dropout_invalid_prob(self, rng):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(2)), 1.0, rng)


class TestLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 3.0]))
        target = Tensor(np.array([0.0, 0.0]))
        assert mse(pred, target).item() == pytest.approx(5.0)

    def test_bce_matches_reference(self, rng):
        logits = rng.normal(size=(20,))
        labels = (rng.random(20) > 0.5).astype(float)
        ours = binary_cross_entropy_with_logits(Tensor(logits), labels).item()
        probs = 1.0 / (1.0 + np.exp(-logits))
        reference = -(labels * np.log(probs) + (1 - labels) * np.log(1 - probs)).mean()
        assert ours == pytest.approx(reference, rel=1e-6)

    def test_bce_gradcheck(self, rng):
        labels = (rng.random(6) > 0.5).astype(float)
        gradcheck(lambda a: binary_cross_entropy_with_logits(a, labels),
                  [rng.normal(size=(6,))])

    def test_bce_stable_extreme_logits(self):
        loss = binary_cross_entropy_with_logits(
            Tensor(np.array([1000.0, -1000.0])), np.array([1.0, 0.0])
        )
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_frobenius_rows(self):
        pred = Tensor(np.array([[3.0, 4.0], [0.0, 0.0]]))
        target = np.zeros((2, 2))
        out = frobenius_error_rows(pred, target).data
        assert out[0] == pytest.approx(5.0)
        assert out[1] == pytest.approx(0.0, abs=1e-5)
