"""The training loop's abort on a non-finite loss, and the batch it names."""

import json

import numpy as np
import pytest

from magnetdml import ExperimentConfig
from magnetdml.errors import ContractError
from magnetdml.training import _MagnetStep, train

from test_metrics_pin import COMMON, CONFIGS, pin_data


@pytest.mark.parametrize("objective, iteration, key, size", [
    ("triplet", 7, "triplets", 3 * 16),
    ("nca", 10, "examples", 16),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts_naming_the_batch(objective, iteration, key, size):
    config = ExperimentConfig(**{**COMMON, **CONFIGS[objective], "learning_rate": 0.5})
    with pytest.raises(ContractError) as info:
        train(config, *pin_data())
    head, batch = str(info.value).split("; offending batch: ")
    assert head == f"non-finite loss at iteration {iteration}"
    batch = json.loads(batch)
    assert list(batch) == [key]
    assert len(batch[key]) == size


def test_magnet_batch_names_cluster_rows():
    config = ExperimentConfig(**{**COMMON, **CONFIGS["magnet"]})
    step = _MagnetStep(config, *pin_data())
    step.refresh(0)
    _, batch = step.step(0, np.random.default_rng(0))
    rows = batch["clusters"]
    assert len(rows) == config.m
    # each run of d examples was drawn from the index row in the same slot
    np.testing.assert_array_equal(step.index.example_cluster[batch["examples"]],
                                  np.repeat(rows, config.d))
    written = json.loads(json.dumps(batch, default=lambda a: a.tolist()))  # as the abort does
    assert written["clusters"] == [int(r) for r in rows]
