"""A save cut short, or a killed run, resumes to the uninterrupted run.

Every objective trains 60 iterations with a refresh every 20. In turn, one
temporary-file write or one ``os.replace`` of a single save raises: of the
save at iteration 40 (a refresh boundary) or of the final save at 60 (a
boundary, which writes the state and the export) of the 60-iteration run, or
of the final save of a run halted at 50 (inside a refresh window, which
writes the export only). Resuming the same directory to 60 must give the
metrics.csv and weights of the uninterrupted run byte for byte. One
``magnetdml train`` process is also killed with SIGKILL once its first state
is on disk, and resumed.
"""

import dataclasses
import functools
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import magnetdml
from magnetdml import ExperimentConfig, training
from magnetdml.cli import main

from test_cli import write_config
from test_metrics_pin import COMMON, CONFIGS
from test_resume import run


def config_of(objective):
    return ExperimentConfig(**{**COMMON, **CONFIGS[objective],
                               "iterations": 60, "refresh_interval": 20})


@functools.lru_cache(maxsize=None)
def uninterrupted(objective):
    with tempfile.TemporaryDirectory() as outdir:
        return run(config_of(objective), Path(outdir))


# (owner, function, which of its calls in the save raises)
FAULTS = {
    "write-1": (Path, "write_bytes", 1),
    "replace-1": (os, "replace", 1),
    "write-2": (Path, "write_bytes", 2),
    "replace-2": (os, "replace", 2),
}


def fail_in_save(monkeypatch, at, owner, name, call):
    """Make the ``call``-th ``owner.name`` call of the save at iteration
    ``at`` raise an OSError, as a full disk or a kill would cut it short."""
    save, original, calls = training._save_training_state, getattr(owner, name), []

    def failing(*args):
        calls.append(args)
        if len(calls) == call:
            raise OSError("injected fault")
        return original(*args)

    def save_failing_at(outdir, step, rng, iteration, *rest):
        with pytest.MonkeyPatch.context() as patch:
            if iteration == at:
                patch.setattr(owner, name, failing)
            save(outdir, step, rng, iteration, *rest)

    monkeypatch.setattr(training, "_save_training_state", save_failing_at)


# (id, halt, at, the faults its save can meet): the export-only save meets two
SAVES = [("save-at-40", 60, 40, sorted(FAULTS)),
         ("final-save-at-50", 50, 50, ["replace-1", "write-1"]),
         ("final-save-at-60", 60, 60, sorted(FAULTS))]


@pytest.mark.parametrize("halt, at, fault", [
    pytest.param(halt, at, fault, id=f"{name}-{fault}")
    for name, halt, at, faults in SAVES for fault in faults])
@pytest.mark.parametrize("objective", sorted(CONFIGS))
def test_resume_after_a_failed_save_matches_uninterrupted(objective, halt, at, fault, tmp_path):
    config = config_of(objective)
    with pytest.MonkeyPatch.context() as patch:
        fail_in_save(patch, at, *FAULTS[fault])
        with pytest.raises(OSError, match="injected fault"):
            run(dataclasses.replace(config, iterations=halt), tmp_path)
    assert run(config, tmp_path, resume_from=tmp_path) == uninterrupted(objective)


def test_killed_run_resumes_to_the_uninterrupted_run(tmp_path):
    config = write_config(tmp_path, iterations=1000)
    killed, resumed, full = tmp_path / "killed", tmp_path / "resumed", tmp_path / "full"
    src = str(Path(magnetdml.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.Popen([sys.executable, "-m", "magnetdml.cli", "train", str(config),
                             str(killed)], env=env, stdout=subprocess.DEVNULL)
    try:
        while not (killed / "training_state.json").exists() and proc.poll() is None:
            time.sleep(0.002)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL, "the run ended before it was killed"
    assert main(["train", str(config), str(resumed), "--resume", str(killed)]) == 0
    assert main(["train", str(config), str(full)]) == 0
    for name in ("metrics.csv", "checkpoint.bin"):
        assert (resumed / name).read_bytes() == (full / name).read_bytes()
