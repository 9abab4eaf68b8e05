"""BOURNE hyper-parameter configuration (Section V-C defaults)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..utils.validation import check_probability


@dataclass
class BourneConfig:
    """All knobs of the BOURNE model and trainer.

    Paper defaults (Section V-C): hop size k = 2; subgraph size K = 12
    (40 for the denser social networks); one-layer encoders of width
    128; predictor hidden size 512; τ = 0.99; lr = 1e-3; R = 160
    evaluation rounds; α, β grid-searched in [0.2, 1.0].  The
    per-dataset K, α and β the experiments run are
    :func:`repro.eval.runner.bourne_config`'s.

    Attributes beyond the paper's table:

    mode:
        ``"unified"`` (full model), ``"node_only"`` (w/o HGNN ablation),
        or ``"edge_only"`` (w/o GNN ablation).
    feature_mask_prob / incidence_drop_prob:
        Γ1 node-feature masking and Γ2 hyperedge perturbation rates.
    targets_per_epoch:
        Optional subsampling of target nodes per epoch (CPU budget);
        ``None`` covers every node each epoch, as in Algorithm 1.
    """

    # View construction
    hop_size: int = 2
    subgraph_size: int = 12
    feature_mask_prob: float = 0.2
    incidence_drop_prob: float = 0.2
    augment_at_inference: bool = True

    # Architecture
    hidden_dim: int = 128
    predictor_hidden: int = 512
    num_layers: int = 1

    # Discriminator
    alpha: float = 0.6
    beta: float = 0.4

    # Optimization
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    decay_rate: float = 0.99
    epochs: int = 100
    batch_size: int = 256
    targets_per_epoch: int | None = None

    # Inference
    eval_rounds: int = 160

    # Variants
    mode: str = "unified"
    seed: int = 0

    def __post_init__(self):
        check_probability(self.feature_mask_prob, "feature_mask_prob")
        check_probability(self.incidence_drop_prob, "incidence_drop_prob")
        check_probability(self.alpha, "alpha")
        check_probability(self.beta, "beta")
        if not 0.0 <= self.decay_rate < 1.0:
            raise ValueError("decay_rate must be in [0, 1)")
        if self.mode not in ("unified", "node_only", "edge_only"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.subgraph_size < 1:
            raise ValueError("subgraph_size must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")

    def updated(self, **kwargs) -> "BourneConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

