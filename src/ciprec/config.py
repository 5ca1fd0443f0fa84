"""Run configuration: dataset defaults, config files, flag overrides.

Precedence is CLI flags, then config-file values, then per-dataset
defaults. ``delta`` is always seconds internally; config files may give
``delta_minutes`` instead and it is converted on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

MODEL_KINDS = ("cip-u", "cip-i", "deepcip", "fism", "popularity")

DATASET_DEFAULTS: dict[str, dict] = {
    "ml-100k": dict(fmt="ml-tab", delta_h=10, delta=60, k_users=50, k_items=30,
                    window=5, top_n=10, n_train=75000, n_valid=5000,
                    n_test=20000, min_weight=30),
    "ml-1m": dict(fmt="ml-dcolon", delta_h=30, delta=60, k_users=50, k_items=30,
                  window=5, top_n=10, n_train=970209, n_valid=10000,
                  n_test=20000, min_weight=30),
    "ciao": dict(fmt="csv", delta_h=10, delta=6000, k_users=50, k_items=30,
                 window=5, top_n=10, n_train=19396, n_valid=1000,
                 n_test=2000, min_weight=2),
}


@dataclass
class RunConfig:
    """Everything a run needs; see DATASET_DEFAULTS for presets."""

    dataset: str | None = None
    path: str | None = None
    fmt: str | None = None
    model: str | None = None
    delta_h: int = 10
    delta: int = 60
    k_users: int = 50
    k_items: int = 30
    window: int = 5
    top_n: int = 10
    n_train: int | None = None
    n_valid: int | None = None
    n_test: int | None = None
    min_weight: float = 30
    hop_back: int = 2
    hop_fwd: int = 3
    dim: int = 100
    negatives: int = 5
    lr: float = 0.025
    epochs: int = 5
    workers: int = 1
    seed: int = 1
    alpha: float = 0.5
    batch_q: int = 1000


_FIELDS = {f.name: f.type for f in fields(RunConfig)}    # annotations, e.g. "int | None"
# the JSON values each annotation admits: a float field takes an int
_JSON_TYPES = {"int": (int,), "float": (float, int), "str": (str,), "None": (type(None),)}


def load_config_file(path) -> dict:
    """JSON object of RunConfig fields; ``delta_minutes`` converts to
    ``delta`` seconds, and a file may not give both. Unknown keys are
    rejected, and so is a value its field's type does not admit: an int
    field refuses a bool or a float, and only a field that may be None
    takes null."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(data) - _FIELDS.keys() - {"delta_minutes"}
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in data.items():
        annotation = _FIELDS["delta" if key == "delta_minutes" else key]
        types = sum((_JSON_TYPES[t] for t in annotation.split(" | ")), ())
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{path}: config key {key!r} must be {annotation}, got {value!r}")
    if "delta_minutes" in data:
        if "delta" in data:
            raise ValueError(f"{path}: config gives both 'delta' and 'delta_minutes'; "
                             "give one pack gap")
        data["delta"] = data.pop("delta_minutes") * 60
    return data


def resolve(dataset: str | None = None, file_cfg: dict | None = None,
            overrides: dict | None = None) -> RunConfig:
    """Merge defaults, config file and overrides into one RunConfig."""
    merged: dict = {}
    if dataset is not None:
        if dataset not in DATASET_DEFAULTS:
            raise ValueError(f"unknown dataset {dataset!r}; expected one of "
                             f"{sorted(DATASET_DEFAULTS)} or a config/flags run")
        merged.update(DATASET_DEFAULTS[dataset])
        merged["dataset"] = dataset
    if file_cfg:
        merged.update({k: v for k, v in file_cfg.items() if v is not None})
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**{k: v for k, v in merged.items() if k in _FIELDS})
    if cfg.model is not None and cfg.model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {cfg.model!r}; expected one of "
                         f"{MODEL_KINDS}")
    return cfg
