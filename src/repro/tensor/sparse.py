"""Sparse-dense products with autograd support.

Graph propagation multiplies a *constant* sparse operator (normalized
adjacency, incidence, or hypergraph Laplacian) by a dense parameter-
dependent feature matrix.  The sparse operand never requires gradients,
so the backward rule is simply ``grad_X = Aᵀ · grad_out``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .autograd import Tensor, as_tensor


def to_csr(matrix) -> sp.csr_matrix:
    """Coerce a dense or sparse matrix to CSR format."""
    if sp.issparse(matrix):
        return matrix.tocsr()
    return sp.csr_matrix(np.asarray(matrix))


def spmm(operator, x: Tensor) -> Tensor:
    """Multiply a constant sparse ``operator`` by a dense tensor ``x``.

    Parameters
    ----------
    operator:
        A ``scipy.sparse`` matrix (or dense array, auto-converted) of
        shape ``(m, n)``.  Treated as a constant — no gradient flows to it.
    x:
        Dense tensor of shape ``(n, d)`` or ``(n,)``.

    Returns
    -------
    Tensor of shape ``(m, d)`` (or ``(m,)``).
    """
    operator = to_csr(operator)
    x = as_tensor(x)
    if operator.shape[1] != x.data.shape[0]:
        raise ValueError(
            f"spmm shape mismatch: operator {operator.shape} @ x {x.data.shape}"
        )
    data = operator @ x.data

    def backward(grad: np.ndarray) -> None:
        # Built only when a gradient flows: never under no_grad or for
        # a constant input.
        x._accumulate(operator.T.tocsr() @ grad)

    return Tensor._make(np.asarray(data), (x,), backward)
