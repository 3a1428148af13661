"""The training step's abort on a non-finite loss or gradient (the softmax
head's too), before it writes the model, and the batch it names; the state dumps the loop takes;
the refusal of a test set of another dimension."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from magnetdml import Dataset, ExperimentConfig, training
from magnetdml.errors import ConfigurationError, ContractError
from magnetdml.losses import LinearHead
from magnetdml.training import _MagnetStep, _SoftmaxStep, train

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
    # the batch is read from the abort of a NaN loss, as the step writes it
    config = ExperimentConfig(**{**COMMON, **CONFIGS["magnet"]})
    step = _MagnetStep(config, *pin_data())
    rng = np.random.default_rng(0)
    step.refresh(rng)
    drawn, sample, objective = [], step.sample, step.objective
    step.sample = lambda rng: drawn.append(sample(rng)) or drawn[-1]
    step.objective = lambda model, nb: (np.nan, *objective(model, nb)[1:])
    with pytest.raises(ContractError) as info:
        step.step(0, rng)
    written = json.loads(str(info.value).split("; offending batch: ")[1])
    rows = written["clusters"]
    assert len(rows) == config.m
    # each run of d examples was drawn from the index row in the same slot
    np.testing.assert_array_equal(step.index.example_cluster[written["examples"]],
                                  np.repeat(rows, config.d))
    assert rows == [int(r) for r in drawn[0].clusters]
    assert written["examples"] == drawn[0].example_indices.tolist()


def assert_abort_writes_nothing(corrupt, fault):
    """Step a magnet step once, then once more with ``corrupt`` wrapped
    around its objective: the second step names ``fault`` and leaves the
    model, the velocities, the loss cache and sigma as they were."""
    config = ExperimentConfig(**{**COMMON, **CONFIGS["magnet"]})
    step = _MagnetStep(config, *pin_data())
    rng = np.random.default_rng(0)
    step.refresh(rng)
    step.step(0, rng)  # so that the velocities, the loss cache and sigma are set
    model = step.model
    arrays = lambda: [a.tobytes() for a in model.weights + model.biases + model.w_velocity
                      + model.b_velocity + [step.loss_cache]]
    before, sigma2 = arrays(), step.sigma.value
    step.objective = corrupt(step.objective)
    with pytest.raises(ContractError) as info:
        step.step(1, rng)
    assert str(info.value).startswith(f"non-finite {fault} at iteration 1; offending batch: ")
    assert arrays() == before
    assert step.sigma.value == sigma2
    assert model.version == 1


def test_non_finite_loss_aborts_before_the_step_writes_anything():
    assert_abort_writes_nothing(
        lambda objective: lambda model, nb: (np.nan, *objective(model, nb)[1:]), "loss")


@pytest.mark.parametrize("layer, kind, entries", [(0, "weight", 1), (1, "bias", 3)])
def test_non_finite_gradient_aborts_before_the_step_writes_anything(layer, kind, entries):
    def corrupt(objective):
        def corrupted(model, nb):  # a finite loss with NaN in one gradient
            loss, grads, kinks, out = objective(model, nb)
            g = grads[kind == "bias"][layer]
            g.flat[:entries] = np.nan
            return loss, grads, kinks, out
        return corrupted

    size = {"weight": (64, 128), "bias": (16, 8)}[kind][layer]  # layer_dims [4, 16, 8]
    assert_abort_writes_nothing(
        corrupt, f"gradient (layer {layer} {kind}, {entries} of {size} entries)")


def test_non_finite_head_gradient_aborts_before_either_step(monkeypatch):
    # the head's gradients used to be applied unchecked, after the
    # embedding's step had run
    config = ExperimentConfig(**{**COMMON, **CONFIGS["softmax"]})
    step = _SoftmaxStep(config, *pin_data())
    rng = np.random.default_rng(0)
    step.step(0, rng)  # so that the velocities are set
    arrays = lambda: [a.tobytes() for m in (step.model, step.head)
                      for a in m.weights + m.biases + m.w_velocity + m.b_velocity]
    before = arrays()
    loss_and_grads = LinearHead.loss_and_grads

    def corrupted(head, reps, labels):
        loss, rep_grads, (w_grads, b_grads) = loss_and_grads(head, reps, labels)
        w_grads[0].flat[0] = np.inf
        return loss, rep_grads, (w_grads, b_grads)

    monkeypatch.setattr(LinearHead, "loss_and_grads", corrupted)
    with pytest.raises(ContractError) as info:
        step.step(1, rng)
    assert str(info.value).startswith(  # head layers [8, 4]
        "non-finite head gradient (layer 0 weight, 1 of 32 entries) at iteration 1; "
        "offending batch: ")
    assert arrays() == before
    assert step.model.version == step.head.version == 1


def test_first_non_finite_gradient_is_named_by_layer():
    # layer 0's bias comes before layer 1's weight, whatever the list order
    grads = ([np.ones((4, 16)), np.full((16, 8), np.inf)], [np.array([1.0, np.nan]), np.ones(8)])
    assert training._non_finite_gradient(grads) == "gradient (layer 0 bias, 1 of 2 entries)"
    assert training._non_finite_gradient(([np.full((2, 2), 1e308)], [np.zeros(2)])) is None


@pytest.mark.parametrize("iterations, dumps", [(1000, 20), (1020, 20), (30, 1)])
def test_state_is_dumped_once_per_written_boundary(iterations, dumps, tmp_path, monkeypatch):
    # the run's first boundary is dumped only when the final save writes it
    config = ExperimentConfig(**{**COMMON, **CONFIGS["ncm"], "iterations": iterations,
                                 "refresh_interval": 50, "eval_interval": iterations})
    calls = []
    dump = training._dump_state
    monkeypatch.setattr(training, "_dump_state", lambda *args: calls.append(args[2]) or dump(*args))
    train(config, *pin_data(), checkpoint_dir=tmp_path)
    assert len(calls) == dumps
    written = json.loads((tmp_path / "training_state.json").read_text())
    assert written["iteration"] == calls[-1]


def test_state_is_replaced_once_per_boundary_of_an_off_boundary_run(tmp_path, monkeypatch):
    # the end at 50 exports the model only: the state of 40 is on disk already
    save, replace, replaced = training._save_training_state, os.replace, []

    def save_counting(outdir, step, rng, iteration, *rest):
        def counting(src, dst):
            if Path(dst).name == "training_state.json":
                replaced.append(iteration)
            replace(src, dst)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "replace", counting)
            save(outdir, step, rng, iteration, *rest)

    monkeypatch.setattr(training, "_save_training_state", save_counting)
    config = ExperimentConfig(**{**COMMON, **CONFIGS["nca"], "iterations": 50,
                                 "refresh_interval": 20})
    train(config, *pin_data(), checkpoint_dir=tmp_path)
    assert replaced == [20, 40]
    assert json.loads((tmp_path / "training_state.json").read_text())["iteration"] == 40


@pytest.mark.parametrize("objective", sorted(CONFIGS))
def test_test_set_of_another_dimension_is_refused(objective):
    # ncm and ncmc used to raise numpy's raw matmul ValueError at the first eval
    config = ExperimentConfig(**{**COMMON, **CONFIGS[objective]})
    train_data, test_data = pin_data()
    narrow = Dataset(test_data.inputs[:, :3], test_data.labels)
    with pytest.raises(ConfigurationError,
                       match="^the test set has dimension 3, the training set has 4$"):
        train(config, train_data, narrow)
