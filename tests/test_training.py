"""The training step's abort on a non-finite loss, before it writes the model,
and the batch it names."""

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



def test_non_finite_loss_aborts_before_the_step_writes_anything():
    config = ExperimentConfig(**{**COMMON, **CONFIGS["magnet"]})
    step = _MagnetStep(config, *pin_data())
    rng = np.random.default_rng(0)
    step.refresh(0)
    step.step(0, rng)  # so that the velocities, the loss cache and sigma are set
    model = step.model
    arrays = lambda: [a.tobytes() for a in model.weights + model.biases + model.w_velocity
                      + model.b_velocity + [step.loss_cache]]
    before, sigma2 = arrays(), step.sigma.value
    objective = step.objective
    step.objective = lambda model, nb: (np.nan, *objective(model, nb)[1:])
    with pytest.raises(ContractError, match="^non-finite loss at iteration 1; offending batch: "):
        step.step(1, rng)
    assert arrays() == before
    assert step.sigma.value == sigma2
    assert model.version == 1
