"""From-scratch reverse-mode autodiff substrate (numpy-backed)."""

from .backend import BACKENDS, TensorBackend, resolve_backend
from .autograd import Tensor, as_tensor, concat, is_grad_enabled, no_grad
from .functional import (
    binary_cross_entropy_with_logits,
    cosine_similarity,
    l2_normalize,
    leaky_relu,
    prelu,
)
from .sparse import spmm, to_csr

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "no_grad",
    "is_grad_enabled",
    "leaky_relu",
    "prelu",
    "l2_normalize",
    "cosine_similarity",
    "binary_cross_entropy_with_logits",
    "spmm",
    "to_csr",
    "BACKENDS",
    "TensorBackend",
    "resolve_backend",
]
