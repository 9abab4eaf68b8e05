"""Neural-network layers built on the autodiff substrate."""

from .activations import PReLU
from .attention import GATConv
from .conv import GCNConv
from .linear import MLP, Linear
from .module import Module, Parameter

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "GCNConv",
    "GATConv",
    "PReLU",
]
