"""Experiment configuration: flat key=value config files.

Unknown keys are rejected. The seed can be overridden with the
``MAGNETDML_SEED`` environment variable.
"""

import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional

from .errors import ConfigurationError, ParseError

SEED_ENV_VAR = "MAGNETDML_SEED"

OBJECTIVES = ("magnet", "triplet", "nca", "ncm", "ncmc", "softmax")

MAX_BATCH = 48  # cap on m*d, the examples in one magnet minibatch


@dataclass
class ExperimentConfig:
    objective: str = "magnet"
    # dataset source: either a CSV path (plus optional attributes CSV) or a
    # mixture-spec JSON that is generated and split on the fly
    dataset: Optional[str] = None
    dataset_attributes: Optional[str] = None
    mixture_spec: Optional[str] = None
    test_fraction: float = 0.2

    layer_dims: List[int] = field(default_factory=lambda: [2, 32, 16])
    learning_rate: float = 0.01
    momentum: float = 0.9
    anneal_factor: float = 1.0
    epoch_length: int = 100

    alpha: float = 1.0
    k: int = 2
    m: int = 4
    d: int = 4
    refresh_interval: int = 100

    impostor_fraction: float = 1.0
    batch_size: int = 16
    ncm_k: int = 2

    eval_l: int = 128
    sigma_decay: float = 0.99

    iterations: int = 1000
    eval_interval: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigurationError(f"unknown objective {self.objective!r}")
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigurationError(f"{f.name} must be finite")
        if not self.layer_dims or min(self.layer_dims) < 1:
            raise ConfigurationError("layer_dims must be a non-empty list of sizes >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigurationError("momentum must lie in [0, 1)")
        if not 0 < self.anneal_factor <= 1:
            raise ConfigurationError("anneal_factor must lie in (0, 1]")
        for name, low in (("epoch_length", 1), ("m", 2), ("d", 1), ("k", 1), ("ncm_k", 1),
                          ("eval_l", 1)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}")
        if not 0 <= self.sigma_decay < 1:
            raise ConfigurationError("sigma_decay must lie in [0, 1)")
        if not 0 < self.impostor_fraction <= 1:
            raise ConfigurationError("impostor_fraction must lie in (0, 1]")
        if self.objective == "triplet" and self.alpha < 0:
            raise ConfigurationError("alpha must be >= 0 for objective = triplet")
        if self.objective == "magnet" and self.m * self.d > MAX_BATCH:
            raise ConfigurationError(
                f"m*d = {self.m * self.d} exceeds the batch cap {MAX_BATCH}"
            )
        if self.iterations < 0 or self.eval_interval < 1 or self.refresh_interval < 1:
            raise ConfigurationError(
                "iterations must be >= 0, eval_interval and refresh_interval >= 1")
        if self.seed < 0 or self.batch_size < 1:
            raise ConfigurationError("seed must be >= 0 and batch_size >= 1")


def _int_list(raw: str) -> List[int]:
    return [int(v) for v in raw.split(",") if v.strip()]


# a config key's parser, by the type of the ExperimentConfig field it sets
_PARSERS = {
    f.name: {int: int, float: float, str: str, Optional[str]: str, List[int]: _int_list}[f.type]
    for f in fields(ExperimentConfig)
}


def parse_config(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ParseError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise ParseError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from exc
    return ExperimentConfig(**values)
