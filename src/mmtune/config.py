"""Run configuration: a JSON document with model/train/data/modality
sections. Unknown keys are rejected with their full path; the defaults are
those of the config dataclasses.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .cognitive import DecoderConfig
from .encoders import ModalityConfig
from .errors import ConfigError
from .training import TrainConfig

_DATA_DEFAULTS = {
    "seed": 0,
    "mix": {"n_per_source": None},
}


def default_config() -> dict:
    return {"model": asdict(DecoderConfig()),
            "train": asdict(TrainConfig()),
            "modality": asdict(ModalityConfig()),
            "data": json.loads(json.dumps(_DATA_DEFAULTS))}


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, value in user.items():
        here = f"{path}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here} must be an object")
            out[key] = _merge(defaults[key], value, here + ".")
        else:
            out[key] = value
    return out


def validate_config(user: dict) -> dict:
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(default_config(), user)


def load_config(path: str | None, seed: int | None = None) -> dict:
    """Load and validate a config file; returns the merged plain dict plus
    constructed config objects under 'objects'."""
    if path is None:
        merged = default_config()
    else:
        try:
            with open(path, encoding="utf-8") as f:
                user = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        except ValueError as e:  # malformed JSON or UTF-8
            raise ConfigError(f"{path}: invalid JSON ({e})") from e
        merged = validate_config(user)
    if seed is not None:
        merged["train"]["seed"] = seed
        merged["data"]["seed"] = seed
    data_seed, n = merged["data"]["seed"], merged["data"]["mix"]["n_per_source"]
    if type(data_seed) is not int:  # a bool is no seed or count
        raise ConfigError(f"data.seed must be an int, got {data_seed!r}")
    if n is not None and (type(n) is not int or n < 1):
        raise ConfigError(f"data.mix.n_per_source must be null or an int "
                          f">= 1, got {n!r}")
    try:
        objects = {"model": DecoderConfig(**merged["model"]),
                   "train": TrainConfig(**merged["train"]),
                   "modality": ModalityConfig(**merged["modality"])}
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    merged["objects"] = objects
    return merged
