"""Neural-network layers built on the autodiff substrate."""

from .activations import ELU, LeakyReLU, PReLU, ReLU, Sigmoid, Tanh
from .attention import GATConv
from .conv import GCNConv
from .dropout import Dropout
from .linear import MLP, Linear
from .losses import bce_with_logits, cosine_disagreement, mse_loss, reconstruction_errors
from .module import Module, Parameter, Sequential

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "MLP",
    "GCNConv",
    "GATConv",
    "Dropout",
    "PReLU",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "ELU",
    "LeakyReLU",
    "mse_loss",
    "bce_with_logits",
    "cosine_disagreement",
    "reconstruction_errors",
]
