"""Every baseline evaluated in the paper, implemented from scratch.

Node anomaly detection: Radar, ANOMALOUS, DOMINANT, AnomalyDAE, DGI,
CoLA, SL-GAD.  Edge anomaly detection: AANE, UGED, GAE.
"""

from .aane import AANE
from .anomalous import Anomalous
from .anomaly_dae import AnomalyDAE
from .base import BaseDetector, sample_negative_edges
from .cola import CoLA
from .dgi import DGI
from .dominant import Dominant
from .gae import GAE
from .radar import Radar
from .slgad import SLGAD
from .uged import UGED

#: Node-anomaly baselines keyed by the names used in Table III.
NODE_BASELINES = {
    "Radar": Radar,
    "ANOMALOUS": Anomalous,
    "DOMINANT": Dominant,
    "AnomalyDAE": AnomalyDAE,
    "DGI": DGI,
    "CoLA": CoLA,
    "SL-GAD": SLGAD,
}

#: Edge-anomaly baselines keyed by the names used in Table IV.
EDGE_BASELINES = {
    "AANE": AANE,
    "UGED": UGED,
    "GAE": GAE,
}

__all__ = [
    "BaseDetector",
    "sample_negative_edges",
    "Radar",
    "Anomalous",
    "Dominant",
    "AnomalyDAE",
    "DGI",
    "CoLA",
    "SLGAD",
    "GAE",
    "UGED",
    "AANE",
    "NODE_BASELINES",
    "EDGE_BASELINES",
]
