"""Dataset specifications mirroring Table II of the paper.

The original evaluation uses six public datasets.  This repository has
no network access, so each dataset is replaced by a **seeded synthetic
generator calibrated to the published statistics** (node count, edge
count, attribute dimensionality, and the anomaly-injection parameters).
The injected-anomaly protocol — which is what the detectors are actually
evaluated on — is identical to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one benchmark dataset.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"cora"``.
    domain:
        ``"citation"``, ``"social"``, or ``"financial"`` — selects the
        generator family.
    num_nodes, num_edges, num_attributes:
        Published sizes (Table II).
    clique_count:
        ``q`` — number of 15-node cliques injected as structural
        anomalies (Section V-A; ``n_p`` is fixed at 15).
    has_ground_truth_nodes:
        True for DGraph, whose node anomalies are real fraud labels
        rather than injected.
    """

    name: str
    domain: str
    num_nodes: int
    num_edges: int
    num_attributes: int
    clique_count: int
    has_ground_truth_nodes: bool = False

    def scaled(self, scale: float) -> "DatasetSpec":
        """Return a proportionally shrunk spec (minimum sizes enforced).

        Node and edge counts scale linearly; the attribute dimension
        scales with a floor of 16 so feature structure survives; the
        clique count scales with a floor of 2 so structural anomalies
        remain present.
        """
        if scale <= 0 or scale > 1:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        if scale == 1.0:
            return self
        return replace(
            self,
            num_nodes=max(200, int(self.num_nodes * scale)),
            num_edges=max(400, int(self.num_edges * scale)),
            num_attributes=max(16, int(self.num_attributes * scale)),
            clique_count=max(2, int(round(self.clique_count * scale))),
        )


#: Table II of the paper (clique counts q from Section V-A).
PAPER_SPECS: Dict[str, DatasetSpec] = {
    "cora": DatasetSpec("cora", "citation", 2_708, 5_429, 1_433, clique_count=5),
    "pubmed": DatasetSpec("pubmed", "citation", 19_717, 44_338, 500, clique_count=200),
    "acm": DatasetSpec("acm", "citation", 16_484, 71_980, 8_337, clique_count=20),
    "blogcatalog": DatasetSpec("blogcatalog", "social", 5_196, 343_486, 8_189, clique_count=10),
    "flickr": DatasetSpec("flickr", "social", 7_575, 479_476, 12_047, clique_count=15),
    # DGraph is 3.7M nodes in the paper; the synthetic stand-in defaults
    # to 50k nodes and keeps the 17 profile attributes and ground-truth
    # (planted) fraud labels.
    "dgraph": DatasetSpec("dgraph", "financial", 50_000, 58_000, 17,
                          clique_count=0, has_ground_truth_nodes=True),
}

#: Published anomaly counts (Table II), for reporting alongside ours.
PAPER_ANOMALY_COUNTS: Dict[str, Dict[str, int]] = {
    "cora": {"nodes": 150, "edges": 1_232},
    "pubmed": {"nodes": 600, "edges": 7_878},
    "acm": {"nodes": 600, "edges": 5_332},
    "blogcatalog": {"nodes": 300, "edges": 3_154},
    "flickr": {"nodes": 450, "edges": 4_729},
    "dgraph": {"nodes": 15_509, "edges": 20_312},
}


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name."""
    try:
        return PAPER_SPECS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(PAPER_SPECS)}")
