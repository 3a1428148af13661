"""Resume from any state the training loop writes, for every objective.

Each case trains 60 iterations with a refresh every 20, once without a stop
and once halted at 40 (a refresh boundary) or 50 (inside a refresh window)
and resumed to 60. The resumed metrics.csv and weights must equal those of
the uninterrupted run byte for byte.
"""

import dataclasses
import json

import pytest

from magnetdml import ExperimentConfig
from magnetdml.cli import main
from magnetdml.errors import ParseError
from magnetdml.training import load_training_state, train, write_metrics_csv

from test_metrics_pin import COMMON, CONFIGS, pin_data


def run(config, outdir, resume_from=None):
    train_data, test_data = pin_data()
    state = None if resume_from is None else load_training_state(resume_from)
    result = train(config, train_data, test_data, resume_state=state, checkpoint_dir=outdir)
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


def test_mismatched_pair_rejected(tmp_path):
    config = ExperimentConfig(**{**COMMON, **CONFIGS["magnet"], "iterations": 10})
    run(config, tmp_path / "a")
    run(dataclasses.replace(config, iterations=20), tmp_path / "b")
    (tmp_path / "a" / "checkpoint.bin").write_bytes((tmp_path / "b" / "checkpoint.bin").read_bytes())
    with pytest.raises(ParseError, match="checkpoint"):
        load_training_state(tmp_path / "a")


def test_missing_key_rejected(tmp_path):
    config = ExperimentConfig(**{**COMMON, **CONFIGS["nca"], "iterations": 10})
    run(config, tmp_path)
    path = tmp_path / "training_state.json"
    state = json.loads(path.read_text())
    del state["refresh"]  # as in a state written before the refresh record
    path.write_text(json.dumps(state))
    with pytest.raises(ParseError, match="refresh"):
        load_training_state(tmp_path)
