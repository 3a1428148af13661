"""Resume from any state the training loop writes, for every objective.

Each case trains 60 iterations with a refresh every 20, once without a stop
and once halted at 40 (a refresh boundary) or 50 (inside a refresh window,
which leaves the state of the boundary at 40) and resumed to 60. The resumed
metrics.csv and weights must equal those of the uninterrupted run byte for
byte, whatever became of the exported checkpoint.bin, which resume never
reads. Every state on disk is at a refresh boundary. A state the config
cannot continue (past its iterations, a model of other layer sizes, any
other config field but ``iterations``, or a training set other than the
saved loss cache's) is rejected.
"""

import dataclasses
import json
import re

import pytest

from magnetdml import ExperimentConfig, training
from magnetdml.cli import main
from magnetdml.errors import ConfigurationError, ParseError
from magnetdml.data import Dataset
from magnetdml.training import train, write_metrics_csv

from test_metrics_pin import COMMON, CONFIGS, pin_data


def run(config, outdir, resume_from=None):
    train_data, test_data = pin_data()
    result = train(config, train_data, test_data, resume_from=resume_from, checkpoint_dir=outdir)
    write_metrics_csv(result.metrics, outdir / "metrics.csv")
    return (outdir / "metrics.csv").read_bytes(), result.model.to_bytes()


@pytest.mark.parametrize("halt", [40, 50])
@pytest.mark.parametrize("objective", sorted(CONFIGS))
def test_resume_matches_uninterrupted(objective, halt, tmp_path):
    config = ExperimentConfig(**{**COMMON, **CONFIGS[objective],
                                 "iterations": 60, "refresh_interval": 20})
    full = run(config, tmp_path / "full")
    run(dataclasses.replace(config, iterations=halt), tmp_path / "half")
    assert run(config, tmp_path / "resumed", resume_from=tmp_path / "half") == full


EXPORT_EDITS = {
    "other-run": lambda path, other: path.write_bytes(other.read_bytes()),
    "deleted": lambda path, other: path.unlink(),
    "truncated": lambda path, other: path.write_bytes(path.read_bytes()[:40]),
}


@pytest.mark.parametrize("edit", sorted(EXPORT_EDITS))
def test_resume_ignores_the_exported_checkpoint(edit, tmp_path):
    # checkpoint.bin is an export for eval; resume reads only the state
    config = ExperimentConfig(**{**COMMON, **CONFIGS["magnet"], "iterations": 20})
    full = run(config, tmp_path / "full")
    run(dataclasses.replace(config, iterations=10), tmp_path / "half")
    EXPORT_EDITS[edit](tmp_path / "half" / "checkpoint.bin", tmp_path / "full" / "checkpoint.bin")
    assert run(config, tmp_path / "resumed", resume_from=tmp_path / "half") == full


def test_missing_key_rejected(tmp_path):
    config = ExperimentConfig(**{**COMMON, **CONFIGS["nca"], "iterations": 10})
    run(config, tmp_path)
    path = tmp_path / "training_state.json"
    state = json.loads(path.read_text())
    del state["rng_state"]
    path.write_text(json.dumps(state))
    with pytest.raises(ParseError, match="rng_state"):
        train(config, *pin_data(), resume_from=tmp_path)


@pytest.mark.parametrize("objective", sorted(CONFIGS))
def test_every_saved_state_is_at_a_refresh_boundary(objective, tmp_path, monkeypatch):
    save, saved = training._save_training_state, []

    def save_and_read(outdir, step, rng, iteration, *rest):
        save(outdir, step, rng, iteration, *rest)
        state = json.loads((outdir / "training_state.json").read_text())
        saved.append((iteration, state["iteration"]))

    monkeypatch.setattr(training, "_save_training_state", save_and_read)
    config = ExperimentConfig(**{**COMMON, **CONFIGS[objective],
                                 "iterations": 50, "refresh_interval": 20})
    run(config, tmp_path)
    assert saved == [(20, 20), (40, 40), (50, 40)]


def test_run_shorter_than_one_refresh_interval_resumes(tmp_path):
    # its only boundary is iteration 0: the resume re-runs all 25 iterations
    config = ExperimentConfig(**{**COMMON, **CONFIGS["ncmc"], "iterations": 60})
    assert config.refresh_interval == 30
    full = run(config, tmp_path / "full")
    run(dataclasses.replace(config, iterations=25), tmp_path / "half")
    assert json.loads((tmp_path / "half" / "training_state.json").read_text())["iteration"] == 0
    assert run(config, tmp_path / "resumed", resume_from=tmp_path / "half") == full


def test_state_past_the_configured_iterations_rejected(tmp_path):
    config = ExperimentConfig(**{**COMMON, **CONFIGS["nca"], "iterations": 60})
    run(config, tmp_path / "full")
    short = dataclasses.replace(config, iterations=40)
    with pytest.raises(ConfigurationError, match=r"iteration 60.*iterations = 40"):
        train(short, *pin_data(), resume_from=tmp_path / "full",
              checkpoint_dir=tmp_path / "resumed")
    assert not (tmp_path / "resumed").exists()


@pytest.mark.parametrize("objective", ["nca", "ncm"])
def test_model_other_than_the_configured_one_rejected(objective, tmp_path):
    config = ExperimentConfig(**{**COMMON, **CONFIGS[objective], "iterations": 20})
    run(config, tmp_path / "half")
    saved, other = config.layer_dims, [4, 5, 3] if objective == "nca" else [4, 5]
    resumed = dataclasses.replace(config, iterations=40, layer_dims=other)
    with pytest.raises(ConfigurationError, match=re.escape(f"{saved}, the config's model has {other}")):
        train(resumed, *pin_data(), resume_from=tmp_path / "half")


@pytest.mark.parametrize("field, value", [("seed", 99), ("k", 3)])
def test_config_other_than_the_saved_one_rejected(field, value, tmp_path):
    config = ExperimentConfig(**{**COMMON, **CONFIGS["magnet"], "iterations": 40})
    run(config, tmp_path / "half")
    resumed = dataclasses.replace(config, iterations=60, **{field: value})
    saved = getattr(config, field)
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{field} = {saved!r}, the config has {field} = {value!r}")):
        train(resumed, *pin_data(), resume_from=tmp_path / "half")


def test_loss_cache_of_another_training_set_rejected(tmp_path):
    config = ExperimentConfig(**{**COMMON, **CONFIGS["magnet"], "iterations": 40})
    run(config, tmp_path / "half")
    train_data, test_data = pin_data()
    first = Dataset(train_data.inputs[:128], train_data.labels[:128])
    resumed = dataclasses.replace(config, iterations=60)
    with pytest.raises(ConfigurationError, match=r"\b256 entries.*\b128 examples"):
        train(resumed, first, test_data, resume_from=tmp_path / "half")
