"""BOURNE core: the paper's primary contribution."""

from .config import BourneConfig
from .discriminator import discriminate
from .model import BatchScores, Bourne
from .persistence import load_model, save_model
from .scoring import AnomalyScores, score_graph
from .trainer import BourneTrainer, TrainingHistory, train_bourne
from .variants import (
    ABLATIONS,
    without_gnn,
    without_hgnn,
    without_patch_level,
    without_perturbation,
    without_subgraph_level,
)
from .views import BatchedGraphViews, BatchedHypergraphViews

__all__ = [
    "Bourne",
    "BourneConfig",
    "BourneTrainer",
    "TrainingHistory",
    "train_bourne",
    "AnomalyScores",
    "score_graph",
    "BatchScores",
    "save_model",
    "load_model",
    "discriminate",
    "ABLATIONS",
    "without_patch_level",
    "without_subgraph_level",
    "without_hgnn",
    "without_gnn",
    "without_perturbation",
    "BatchedGraphViews",
    "BatchedHypergraphViews",
]
