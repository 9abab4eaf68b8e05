"""Numerical gradient checking for the autograd engine — a test helper.

Central finite differences against the analytical backward pass.  Used
throughout the test suite (including hypothesis property tests) to
guarantee the optimizer sees correct gradients.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor import Tensor


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    index: int,
    epsilon: float = 1e-6,
) -> np.ndarray:
    """Finite-difference gradient of ``sum(fn(*inputs))`` w.r.t. ``inputs[index]``."""
    arrays = [np.asarray(a, dtype=np.float64).copy() for a in inputs]
    target = arrays[index]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        plus = float(fn(*[Tensor(a) for a in arrays]).sum().item())
        flat[i] = original - epsilon
        minus = float(fn(*[Tensor(a) for a in arrays]).sum().item())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * epsilon)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    atol: float = 1e-5,
    rtol: float = 1e-4,
    epsilon: float = 1e-6,
) -> bool:
    """Verify analytical gradients of ``fn`` against finite differences.

    ``fn`` receives one :class:`Tensor` per input array and must return a
    tensor; its sum is used as the scalar objective.  Raises
    ``AssertionError`` with a diagnostic message on mismatch.
    """
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in inputs]
    output = fn(*tensors)
    output.sum().backward()
    for i, tensor in enumerate(tensors):
        analytical = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numerical = numerical_gradient(fn, inputs, i, epsilon=epsilon)
        if not np.allclose(analytical, numerical, atol=atol, rtol=rtol):
            worst = np.max(np.abs(analytical - numerical))
            raise AssertionError(
                f"gradcheck failed for input {i}: max abs diff {worst:.3e}\n"
                f"analytical:\n{analytical}\nnumerical:\n{numerical}"
            )
    return True
