"""Unit tests for sparse-dense products."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import Tensor, no_grad, spmm, to_csr


class TestToCsr:
    def test_from_dense(self):
        m = to_csr(np.eye(3))
        assert sp.issparse(m)
        np.testing.assert_allclose(m.toarray(), np.eye(3))

    def test_from_coo(self):
        coo = sp.coo_matrix(np.eye(2))
        assert to_csr(coo).format == "csr"


class TestSpmm:
    def test_forward_matches_dense(self, rng):
        operator = sp.random(6, 5, density=0.4, random_state=1, format="csr")
        x = rng.normal(size=(5, 3))
        out = spmm(operator, Tensor(x))
        np.testing.assert_allclose(out.data, operator @ x)

    def test_backward_is_transpose_product(self, rng):
        operator = sp.random(4, 5, density=0.5, random_state=2, format="csr")
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = spmm(operator, x)
        grad = rng.normal(size=(4, 3))
        out.backward(grad)
        np.testing.assert_allclose(x.grad, operator.T @ grad)

    def test_gradcheck_against_numerical(self, rng):
        from gradcheck import gradcheck
        operator = sp.random(4, 4, density=0.5, random_state=3, format="csr")
        gradcheck(lambda a: spmm(operator, a).tanh(), [rng.normal(size=(4, 2))])

    def test_vector_rhs(self, rng):
        operator = sp.eye(3, format="csr") * 2.0
        out = spmm(operator, Tensor(np.ones(3)))
        np.testing.assert_allclose(out.data, [2.0, 2.0, 2.0])

    def test_shape_mismatch_raises(self):
        operator = sp.eye(3, format="csr")
        with pytest.raises(ValueError):
            spmm(operator, Tensor(np.ones((4, 2))))

    def test_dense_operator_accepted(self, rng):
        x = rng.normal(size=(3, 2))
        out = spmm(np.eye(3), Tensor(x))
        np.testing.assert_allclose(out.data, x)

    def test_no_grad_when_input_constant(self):
        operator = sp.eye(2, format="csr")
        out = spmm(operator, Tensor(np.ones((2, 2))))
        assert not out.requires_grad

    def test_transpose_built_only_when_a_gradient_flows(self, rng):
        class CountingCSR(sp.csr_matrix):
            transposes = 0

            def transpose(self, *args, **kwargs):
                self.transposes += 1
                return super().transpose(*args, **kwargs)

        operator = CountingCSR(
            sp.random(4, 5, density=0.5, random_state=4, format="csr"))
        with no_grad():
            spmm(operator, Tensor(rng.normal(size=(5, 3)), requires_grad=True))
        spmm(operator, Tensor(rng.normal(size=(5, 3))))
        assert operator.transposes == 0
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = spmm(operator, x)
        assert operator.transposes == 0
        grad = rng.normal(size=(4, 3))
        out.backward(grad)
        assert operator.transposes == 1
        np.testing.assert_allclose(x.grad, operator.toarray().T @ grad)
