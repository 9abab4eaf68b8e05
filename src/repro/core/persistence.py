"""Saving and loading trained BOURNE models.

Checkpoints are a single ``.npz`` holding every online/target parameter
plus a JSON-encoded config, so a trained detector can be shipped and
reused for scoring without retraining.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .config import BourneConfig
from .model import Bourne

#: Current checkpoint layout version.  Version 1 checkpoints (written
#: before the key existed) carry no ``__format_version__`` entry and
#: load identically; bump this when the payload layout changes.
FORMAT_VERSION = 2

#: Config keys of removed options, each with the one value this build
#: runs.  Checkpoints written before the removal carry them; a key that
#: holds that value is dropped on load, any other value is refused.
_RETIRED_CONFIG_KEYS = {"readout": "mean", "backbone": "gcn",
                        "grad_through_target": False}


def save_model(model: Bourne, path: str) -> str:
    """Serialize ``model`` (parameters + config) to ``path`` (.npz)."""
    payload = {"__format_version__": np.array([FORMAT_VERSION], dtype=np.int64)}
    for name, param in model.online.named_parameters():
        payload[f"online::{name}"] = param.data
    for name, param in model.target.named_parameters():
        payload[f"target::{name}"] = param.data
    config_json = json.dumps(dataclasses.asdict(model.config))
    payload["__config__"] = np.frombuffer(config_json.encode("utf-8"),
                                          dtype=np.uint8)
    payload["__num_features__"] = np.array([model.num_features])
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    np.savez(path, **payload)
    return path


def load_model(path: str) -> Bourne:
    """Reconstruct a :class:`Bourne` model saved by :func:`save_model`."""
    archive = np.load(path, allow_pickle=False)
    if "__format_version__" in archive.files:
        format_version = int(archive["__format_version__"][0])
    else:
        format_version = 1
    if format_version > FORMAT_VERSION:
        raise ValueError(
            f"checkpoint {path!r} uses format version {format_version}, but "
            f"this build reads up to version {FORMAT_VERSION}; re-save the "
            "model with a matching version of repro")
    config_json = bytes(archive["__config__"]).decode("utf-8")
    config_dict = json.loads(config_json)
    for key, supported in _RETIRED_CONFIG_KEYS.items():
        value = config_dict.pop(key, supported)
        if value != supported:
            raise ValueError(
                f"checkpoint {path!r} sets the removed option {key}={value!r}; "
                f"this build only runs {key}={supported!r}")
    config = BourneConfig(**config_dict)
    num_features = int(archive["__num_features__"][0])

    model = Bourne(num_features, config)
    online_state = {}
    target_state = {}
    for key in archive.files:
        if key.startswith("online::"):
            online_state[key[len("online::"):]] = archive[key]
        elif key.startswith("target::"):
            target_state[key[len("target::"):]] = archive[key]
    model.online.load_state_dict(online_state)
    model.target.load_state_dict(target_state)
    return model
