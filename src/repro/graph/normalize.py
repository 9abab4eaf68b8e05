"""Propagation-operator constructions: the GCN operator (Eq. 4), single
and batched, and block-diagonal stacking (for the CoLA / SL-GAD baseline
views).

The HGNN operator (Eq. 10) is built for a whole batch of views in
:mod:`repro.core.views`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def gcn_operator(adjacency, add_self_loops: bool = True) -> sp.csr_matrix:
    """Symmetric GCN normalization ``D̃^{-1/2} Ã D̃^{-1/2}`` (Eq. 4).

    Zero-degree rows are left as zeros (their normalization coefficient
    is defined as 0), so isolated nodes simply keep a zero message —
    BOURNE's anonymized target nodes instead carry an explicit self-loop
    entry in the extended adjacency.
    """
    if not sp.issparse(adjacency):
        adjacency = sp.csr_matrix(np.asarray(adjacency, dtype=np.float64))
    adjacency = adjacency.tocsr().astype(np.float64)
    if add_self_loops:
        adjacency = adjacency + sp.eye(adjacency.shape[0], format="csr")
    degrees = np.asarray(adjacency.sum(axis=1)).reshape(-1)
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = degrees[nonzero] ** -0.5
    d_inv = sp.diags(inv_sqrt)
    return (d_inv @ adjacency @ d_inv).tocsr()


def block_diag_csr(blocks: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal CSR from a uniform dense block stack ``(B, r, c)``.

    Pure index arithmetic — no per-block Python loop (unlike
    ``scipy.sparse.block_diag`` over a block list).  Explicit zeros are
    dropped, matching what ``block_diag`` produces from dense blocks.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    num_blocks, rows_per, cols_per = blocks.shape
    mask = blocks != 0.0
    block_id, row_in, col_in = np.nonzero(mask)      # row-major order
    data = blocks[mask]
    rows = block_id * rows_per + row_in
    cols = block_id * cols_per + col_in
    indptr = np.zeros(num_blocks * rows_per + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_blocks * rows_per),
              out=indptr[1:])
    return sp.csr_matrix((data, cols, indptr),
                         shape=(num_blocks * rows_per,
                                num_blocks * cols_per))


def batched_gcn_operator(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric GCN normalization of a dense adjacency stack ``(B, n, n)``.

    Per-block results are bitwise identical to normalizing each block
    alone.
    Self-loops are added here (Ã = A + I); zero-degree rows get zero
    coefficients.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    a_tilde = adjacency + np.eye(adjacency.shape[1])
    degrees = a_tilde.sum(axis=2)
    inv_sqrt = np.zeros_like(degrees)
    positive = degrees > 0
    inv_sqrt[positive] = degrees[positive] ** -0.5
    return a_tilde * inv_sqrt[:, :, None] * inv_sqrt[:, None, :]
