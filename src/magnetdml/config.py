"""Experiment configuration: flat key=value config files.

Unknown keys are rejected. The seed can be overridden with the
``MAGNETDML_SEED`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .errors import ConfigurationError, ParseError
from .model import OptimizerConfig

SEED_ENV_VAR = "MAGNETDML_SEED"

OBJECTIVES = ("magnet", "triplet", "nca", "ncm", "ncmc", "softmax")


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
    max_batch: int = 48

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
        if self.objective == "magnet" and self.m * self.d > self.max_batch:
            raise ConfigurationError(
                f"m*d = {self.m * self.d} exceeds the batch cap {self.max_batch}"
            )
        if self.iterations < 0 or self.eval_interval < 1 or self.refresh_interval < 1:
            raise ConfigurationError(
                "iterations must be >= 0, eval_interval and refresh_interval >= 1")

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            anneal_factor=self.anneal_factor,
            epoch_length=self.epoch_length,
        )


_INT_KEYS = {
    "epoch_length", "k", "m", "d", "refresh_interval", "max_batch", "batch_size",
    "ncm_k", "eval_l", "iterations", "eval_interval", "seed",
}
_FLOAT_KEYS = {
    "test_fraction", "learning_rate", "momentum", "anneal_factor", "alpha",
    "impostor_fraction", "sigma_decay",
}
_STR_KEYS = {"objective", "dataset", "dataset_attributes", "mixture_spec"}


def parse_config(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        try:
            if key in _INT_KEYS:
                values[key] = int(raw)
            elif key in _FLOAT_KEYS:
                values[key] = float(raw)
            elif key in _STR_KEYS:
                values[key] = raw
            elif key == "layer_dims":
                values[key] = [int(v) for v in raw.split(",") if v.strip()]
            else:
                raise ParseError(f"{path}: line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise ParseError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from exc
    return ExperimentConfig(**values)
