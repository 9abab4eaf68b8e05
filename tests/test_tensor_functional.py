"""Unit tests for functional ops: activations, cosine, logistic loss."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    binary_cross_entropy_with_logits,
    cosine_similarity,
    l2_normalize,
    leaky_relu,
    prelu,
)

from gradcheck import gradcheck


class TestActivations:
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


class TestLosses:
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
