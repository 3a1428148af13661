"""A save cut short, or a killed run, resumes to the uninterrupted run.

Every objective trains 60 iterations with a refresh every 20. In turn, one
temporary-file write (``os.write``, after the file's blocks are allocated)
or one ``os.replace`` of a single save raises: of the save at iteration 40
(a refresh boundary) or of the final save at 60 (a boundary, which writes the
state and the export) of the 60-iteration run, or of the final save of a run
halted at 50 (inside a refresh window, which writes the export only). A
write raises before it writes a byte, or after it wrote the first half of
its bytes, which leaves a half-written ``.tmp`` behind. Resuming the same
directory to 60 must give the metrics.csv and weights of the uninterrupted
run byte for byte. One ``magnetdml train`` process is also killed with
SIGKILL once its first state is on disk, and resumed.

Each temporary file is allocated to its whole length before it is written,
and a save writes the same bytes whether or not ``os.posix_fallocate``
exists: the digests below were recorded before the allocation was added.
Like the ``metrics.csv`` pins, they hold on the kernels that
``tests/test_metrics_pin.py`` names. Nothing is fsynced, so a power cut
soon after a save can leave a state of zeros; resume refuses it.
"""

import dataclasses
import functools
import hashlib
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
from magnetdml.errors import ParseError

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


# (owner, function, which of its calls in the save raises); a "half-" write
# first writes half of its bytes
FAULTS = {
    "write-1": (os, "write", 1),
    "half-write-1": (os, "write", 1),
    "replace-1": (os, "replace", 1),
    "write-2": (os, "write", 2),
    "replace-2": (os, "replace", 2),
}


def fail_in_save(monkeypatch, at, owner, name, call, half=False):
    """Make the ``call``-th ``owner.name`` call of the save at iteration
    ``at`` raise an OSError, as a full disk or a kill would cut it short;
    with ``half``, that ``os.write`` call first writes half of its bytes."""
    save, original, calls = training._save_training_state, getattr(owner, name), []

    def failing(*args):
        calls.append(args)
        if len(calls) == call:
            if half:
                fd, data = args
                original(fd, data[:len(data) // 2])
            raise OSError("injected fault")
        return original(*args)

    def save_failing_at(outdir, step, rng, iteration, *rest):
        with pytest.MonkeyPatch.context() as patch:
            if iteration == at:
                patch.setattr(owner, name, failing)
            save(outdir, step, rng, iteration, *rest)

    monkeypatch.setattr(training, "_save_training_state", save_failing_at)


# (id, halt, at, the faults its save can meet): the export-only save writes
# one file
SAVES = [("save-at-40", 60, 40, sorted(FAULTS)),
         ("final-save-at-50", 50, 50, ["half-write-1", "replace-1", "write-1"]),
         ("final-save-at-60", 60, 60, sorted(FAULTS))]


@pytest.mark.parametrize("halt, at, fault", [
    pytest.param(halt, at, fault, id=f"{name}-{fault}")
    for name, halt, at, faults in SAVES for fault in faults])
@pytest.mark.parametrize("objective", sorted(CONFIGS))
def test_resume_after_a_failed_save_matches_uninterrupted(objective, halt, at, fault, tmp_path):
    config = config_of(objective)
    with pytest.MonkeyPatch.context() as patch:
        fail_in_save(patch, at, *FAULTS[fault], half=fault.startswith("half-"))
        with pytest.raises(OSError, match="injected fault"):
            run(dataclasses.replace(config, iterations=halt), tmp_path)
    if fault.startswith("half-"):
        (tmp,) = tmp_path.glob("*.tmp")
        assert tmp.stat().st_size > 0
    assert run(config, tmp_path, resume_from=tmp_path) == uninterrupted(objective)


def test_each_temporary_file_is_allocated_to_its_length_before_it_is_written(tmp_path, monkeypatch):
    events = []
    for name in ("posix_fallocate", "write", "replace"):
        def record(*args, name=name, original=getattr(os, name)):
            events.append((name, args))
            return original(*args)
        monkeypatch.setattr(os, name, record)
    run(config_of("magnet"), tmp_path)
    # the saves at 20, 40 and 60 each write the state, then the export
    names = [name for name, _ in events]
    assert names == ["posix_fallocate", "write", "replace"] * 6
    for (_, allocated), (_, (fd, data)), (_, (src, dst)) in zip(*[iter(events)] * 3):
        assert allocated == (fd, 0, len(data))
        assert Path(src) == Path(dst).with_name(Path(dst).name + ".tmp")
    assert [Path(dst).name for _, (_, dst) in events[2::3]] == [
        "training_state.json", "checkpoint.bin"] * 3


# SHA-256 of training_state.json, checkpoint.bin and metrics.csv, joined, of a
# run to 50 or 60 iterations with a refresh every 20
SAVED_SHA256 = {
    ("magnet", 50): "1c7a3b17c536e9f96491f3a9454ff6afb1269a808c38ee1564ac800494259d06",
    ("magnet", 60): "300ad45cb30d63f0ea2b046be66b204dcfe5c7ccf03b7f587a722af49d86a4a7",
    ("nca", 50): "1f655fdff537bedcd473b9299adaf6861e7c39bcc9e4bdcca8382bb9c3b18395",
    ("nca", 60): "c30fef32560e2299ddb6aac4e7f915a6f17e5e9fd9a95c2550f2f8f6334098a5",
    ("ncm", 50): "fbcc5edb4ef062108ed471f26d9b4784acc54b306389f1c522a00cc3d1f775d2",
    ("ncm", 60): "35820fb9aa3aac23b2c33383ed3148928ee11d178086de9287091eab760e71aa",
    ("ncmc", 50): "2f6f16913b58ac0590760992523b1024b3c694ebb7cea47c3a903e3770339f8f",
    ("ncmc", 60): "7d4f4c9947303f1334889653c60bb5b17884627f9269ae54f8311f5cad72a2f1",
    ("softmax", 50): "17ae0914f54307944394a47c3228a20e62d161bea1b2ea20fbe36de8420c0e14",
    ("softmax", 60): "22308b2acfcd858ca3094e4d266d4e98f44208c735c1e6558b47e6d32aced06f",
    ("triplet", 50): "db2891746fa61ea33af34deecc1a2a5626abafa03db3ee2cd8860df79bd4cd9c",
    ("triplet", 60): "550a12697c3e7dfb0b8b291cbf35c71735d55e2b9d13984665a9147fba3ff834",
}


@pytest.mark.parametrize("allocate", [True, False], ids=["allocated", "no-posix_fallocate"])
@pytest.mark.parametrize("objective, halt", sorted(SAVED_SHA256))
def test_saved_bytes_are_kept(objective, halt, allocate, tmp_path, monkeypatch):
    if not allocate:
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
    run(dataclasses.replace(config_of(objective), iterations=halt), tmp_path)
    saved = b"".join((tmp_path / name).read_bytes()
                     for name in ("training_state.json", "checkpoint.bin", "metrics.csv"))
    assert hashlib.sha256(saved).hexdigest() == SAVED_SHA256[objective, halt]
    assert not any(tmp_path.glob("*.tmp"))


def test_state_of_zeros_is_refused(tmp_path):
    # what a power cut soon after a save can leave: nothing is fsynced
    config = config_of("magnet")
    run(config, tmp_path)
    state = tmp_path / "training_state.json"
    state.write_bytes(bytes(state.stat().st_size))
    with pytest.raises(ParseError, match="bad training state"):
        run(config, tmp_path / "resumed", resume_from=tmp_path)


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
