"""The binary arrays of ``training_state.json`` and the checks on resume.

Every array of the state (the model's weights and biases, the velocities,
the magnet loss cache, the softmax head and the metrics rows) is stored as
base64 of little-endian float64 with its shape; the rest stays JSON. A state
in the old list format, a state without the model, a truncated, non-base64 or
misshapen blob, an iteration off a refresh boundary, an iteration and metrics
that disagree, a bad magnet ``sigma2`` or loss-cache entry, a ``train_loss``
or ``val_error`` no run writes and an rng state that is not a whole state of
the run's generator all fail to load with a ``ParseError``, which the command
line reports as an ``error:`` line with exit status 1.
"""

import base64
import dataclasses
import json
from unittest import mock

import numpy as np
import pytest

from magnetdml import ExperimentConfig
from magnetdml.cli import main
from magnetdml.errors import ParseError
from magnetdml.training import train

from test_cli import write_config
from test_metrics_pin import COMMON, CONFIGS, pin_data


def saved_state(tmp_path, objective="magnet", iterations=50):
    """Train to ``iterations`` with a refresh every 20 and return the config
    and the state's path; a run to 50 leaves the state of the boundary at 40."""
    config = ExperimentConfig(**{**COMMON, **CONFIGS[objective],
                                 "iterations": iterations, "refresh_interval": 20})
    train(config, *pin_data(), checkpoint_dir=tmp_path)
    return dataclasses.replace(config, iterations=60), tmp_path / "training_state.json"


def decode(blob):
    data = np.frombuffer(base64.b64decode(blob["f8"]), dtype="<f8")
    return data.reshape(blob["shape"])


def encode(array):
    array = np.asarray(array, dtype="<f8")
    return {"shape": list(array.shape), "f8": base64.b64encode(array.tobytes()).decode()}


def as_lists(state, key):
    """The state with ``key`` in the list form written before the arrays
    became blobs: NaN as null in the loss cache and in ``val_error``."""
    if key in ("weights", "biases", "w_velocity", "b_velocity"):
        state[key] = [decode(v).tolist() for v in state[key]]
    elif key == "head":
        state[key] = {k: [decode(v).tolist() for v in vs] for k, vs in state[key].items()}
    else:
        state[key] = [None if np.isnan(v) else v for v in decode(state[key]).ravel().tolist()]
        if key == "metrics":
            state[key] = [[int(state[key][i]), *state[key][i + 1:i + 3]]
                          for i in range(0, len(state[key]), 3)]
    return state


def rewrite(path, edit):
    state = json.loads(path.read_text())
    edit(state)
    path.write_text(json.dumps(state))


def test_arrays_round_trip(tmp_path):
    config, path = saved_state(tmp_path)
    state = json.loads(path.read_text())
    cache = decode(state["loss_cache"])
    assert cache.shape == (pin_data()[0].size,)
    assert np.isnan(cache).any() and np.isfinite(cache).any()
    assert state["iteration"] == 40 and "refresh" not in state
    metrics = decode(state["metrics"])
    assert metrics.shape == (40, 3)
    assert metrics[:, 0].tolist() == list(range(40))
    assert np.isnan(metrics[:, 2]).sum() == 40 - 40 // config.eval_interval
    for key in ("weights", "w_velocity"):
        assert [v["shape"] for v in state[key]] == [[16, 4], [8, 16]]
    for key in ("biases", "b_velocity"):
        assert [v["shape"] for v in state[key]] == [[16], [8]]


@pytest.mark.parametrize("objective", ["magnet", "ncm"])
def test_exported_model_blobs_equal_the_state_s(objective, tmp_path):
    # a run that ends on a refresh boundary exports the model the state holds
    _, path = saved_state(tmp_path, objective, iterations=40)
    state = json.loads(path.read_text())
    exported = json.loads((tmp_path / "checkpoint.bin").read_text())
    assert state["iteration"] == 40
    assert exported == {"weights": state["weights"], "biases": state["biases"]}


@pytest.mark.parametrize("objective", ["magnet", "softmax"])
def test_resume_decodes_each_blob_once(objective, tmp_path):
    # the weight blobs used to be decoded twice: once for the layer dims,
    # again to copy them into the model
    config, path = saved_state(tmp_path, objective)
    state = json.loads(path.read_text())
    blobs = [v for v in state.values() if isinstance(v, dict) and "f8" in v]
    blobs += [b for key in ("weights", "biases", "w_velocity", "b_velocity") for b in state[key]]
    blobs += [b for vs in state.get("head", {}).values() for b in vs]
    with mock.patch("magnetdml.model.base64.b64decode", wraps=base64.b64decode) as decode_:
        train(config, *pin_data(), resume_from=tmp_path)
    assert decode_.call_count == len(blobs)


def test_softmax_head_round_trip(tmp_path):
    config, path = saved_state(tmp_path, objective="softmax")
    head = json.loads(path.read_text())["head"]
    shapes = {"weights": [[4, 8]], "biases": [[4]], "w_velocity": [[4, 8]], "b_velocity": [[4]]}
    assert {k: [v["shape"] for v in vs] for k, vs in head.items()} == shapes
    assert all(np.isfinite(decode(v)).all() for vs in head.values() for v in vs)


KEYS = ["loss_cache", "weights", "biases", "w_velocity", "b_velocity", "head", "metrics"]
# the objective whose state holds the key
OBJECTIVE = {"head": "softmax"}


@pytest.mark.parametrize("keys", [[k] for k in KEYS] + [KEYS], ids=KEYS + ["all"])
def test_old_list_format_rejected(keys, tmp_path):
    config, path = saved_state(tmp_path, OBJECTIVE.get(keys[0], "magnet"))
    rewrite(path, lambda state: [as_lists(state, k) for k in keys if k in state])
    with pytest.raises(ParseError, match="old list format"):
        train(config, *pin_data(), resume_from=tmp_path)


def head_of_one_blob_per_array(state):
    """The softmax head as states held it before it was a one-layer model:
    one blob per array, named "w", "b", "w_velocity" and "b_velocity"."""
    head = state["head"]
    state["head"] = {"w": head["weights"][0], "b": head["biases"][0],
                     "w_velocity": head["w_velocity"][0], "b_velocity": head["b_velocity"][0]}


# a state written when checkpoint.bin held the model, and a softmax state
# whose head has its earlier form; each error names what lacks 'weights'
WITHOUT_THE_MODEL = {
    "model": ("magnet", lambda state: [state.pop("weights"), state.pop("biases"),
                                       state.update(checkpoint_sha256="0" * 64)],
              "the saved model: 'weights'"),
    "head": ("softmax", head_of_one_blob_per_array, "the saved head: 'weights'"),
}


@pytest.mark.parametrize("case", sorted(WITHOUT_THE_MODEL))
def test_state_without_the_model_rejected(case, tmp_path):
    objective, edit, message = WITHOUT_THE_MODEL[case]
    config, path = saved_state(tmp_path, objective)
    rewrite(path, edit)
    with pytest.raises(ParseError, match=message):
        train(config, *pin_data(), resume_from=tmp_path)


def test_deeply_nested_state_rejected(tmp_path):
    config, path = saved_state(tmp_path)
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParseError, match="bad training state"):
        train(config, *pin_data(), resume_from=tmp_path)


def truncate(blob):
    blob["f8"] = blob["f8"][:len(blob["f8"]) // 2]


def truncate_whole_quads(blob):
    # still valid base64, but some floats short of the recorded shape
    blob["f8"] = blob["f8"][:-12]


def not_base64(blob):
    blob["f8"] = "!" + blob["f8"][1:]


CORRUPTIONS = {"truncated": truncate, "truncated-quads": truncate_whole_quads,
               "not-base64": not_base64}
BLOBS = {
    "loss_cache": lambda state: state["loss_cache"],
    "weights": lambda state: state["weights"][-1],
    "biases": lambda state: state["biases"][0],
    "w_velocity": lambda state: state["w_velocity"][0],
    "b_velocity": lambda state: state["b_velocity"][-1],
    "head": lambda state: state["head"]["weights"][0],
    "metrics": lambda state: state["metrics"],
}


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
@pytest.mark.parametrize("key", sorted(BLOBS))
def test_corrupt_blob_rejected(key, corrupt, tmp_path):
    config, path = saved_state(tmp_path, OBJECTIVE.get(key, "magnet"))
    rewrite(path, lambda state: CORRUPTIONS[corrupt](BLOBS[key](state)))
    with pytest.raises(ParseError, match=key):
        train(config, *pin_data(), resume_from=tmp_path)


def resume_cli(tmp_path, capsys, edit, objective="magnet"):
    """Train 50 iterations through the command line, edit the state, resume
    to 60; return the exit status and standard error."""
    out = tmp_path / "half"
    half = write_config(tmp_path, name="half.cfg", objective=objective, iterations=50)
    full = write_config(tmp_path, name="full.cfg", objective=objective, iterations=60)
    assert main(["train", str(half), str(out)]) == 0
    rewrite(out / "training_state.json", edit)
    capsys.readouterr()
    status = main(["train", str(full), str(tmp_path / "res"), "--resume", str(out)])
    return status, capsys.readouterr().err


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
@pytest.mark.parametrize("key", ["loss_cache", "weights", "w_velocity", "b_velocity"])
def test_cli_resume_from_corrupt_blob_errors(key, corrupt, tmp_path, capsys):
    status, err = resume_cli(tmp_path, capsys,
                             lambda state: CORRUPTIONS[corrupt](BLOBS[key](state)))
    assert status == 1
    assert err.startswith("error:") and key in err


def test_cli_resume_from_old_list_format_errors(tmp_path, capsys):
    status, err = resume_cli(tmp_path, capsys,
                             lambda state: [as_lists(state, k) for k in KEYS if k in state])
    assert status == 1
    assert err.startswith("error:") and "old list format" in err


def poison(key):
    """An edit that makes the first value of the ``key`` blob NaN."""
    def edit(state):
        blob = BLOBS[key](state)
        values = decode(blob).copy()
        values.flat[0] = np.nan
        blob.update(encode(values))
    return edit


def renumber_metrics(state):
    rows = decode(state["metrics"]).copy()
    rows[:, 0] += 1
    state["metrics"] = encode(rows)


def off_boundary(state):
    """The state as if saved at 50, between the refresh boundaries at 40 and
    60: one metrics row for each iteration before it."""
    rows = np.column_stack([np.arange(50), np.ones(50), np.full(50, np.nan)])
    state.update(iteration=50, metrics=encode(rows))


def test_state_off_a_refresh_boundary_rejected(tmp_path):
    config, path = saved_state(tmp_path)
    rewrite(path, off_boundary)
    with pytest.raises(ParseError, match="'iteration' = 50 is not a multiple of refresh_interval"):
        train(config, *pin_data(), resume_from=tmp_path)


def test_cli_resume_from_state_off_a_refresh_boundary_errors(tmp_path, capsys):
    status, err = resume_cli(tmp_path, capsys, off_boundary)
    assert status == 1
    assert err.startswith("error:") and "'iteration'" in err
    assert not (tmp_path / "res" / "metrics.csv").exists()


# each used to resume, into metrics.csv rows that skip or repeat iterations:
# 30 rows jumped from iteration 29 to 50; 49.7 was truncated to 49 and gave 61
# rows for 60 iterations
BAD_PROGRESS = {
    "metrics-cut": ("metrics", lambda state: state.update(
        metrics=encode(decode(state["metrics"])[:30]))),
    "metrics-renumbered": ("metrics", renumber_metrics),
    "iteration-fraction": ("iteration", lambda state: state.update(iteration=49.7)),
    "iteration-text": ("iteration", lambda state: state.update(iteration="50")),
}


@pytest.mark.parametrize("case", sorted(BAD_PROGRESS))
def test_iteration_and_metrics_that_disagree_rejected(case, tmp_path):
    key, edit = BAD_PROGRESS[case]
    config, path = saved_state(tmp_path)
    rewrite(path, edit)
    with pytest.raises(ParseError, match=f"'{key}'"):
        train(config, *pin_data(), resume_from=tmp_path)


# NaN trained on and failed at the first eval, naming no state; 0.0 resumed
@pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), 0.0, -1.0, "0.5"])
def test_bad_magnet_sigma2_rejected(sigma2, tmp_path):
    config, path = saved_state(tmp_path)
    rewrite(path, lambda state: state.update(sigma2=sigma2))
    with pytest.raises(ParseError, match="'sigma2'"):
        train(config, *pin_data(), resume_from=tmp_path)


@pytest.mark.parametrize("key", ["weights", "biases", "w_velocity", "b_velocity", "head"])
def test_non_finite_model_array_rejected(key, tmp_path):
    config, path = saved_state(tmp_path, OBJECTIVE.get(key, "magnet"))
    rewrite(path, poison(key))
    array = "head: 'weights'" if key == "head" else f"'{key}'"
    with pytest.raises(ParseError, match=f"{array} holds a non-finite value"):
        train(config, *pin_data(), resume_from=tmp_path)


def set_cache_entry(value):
    def edit(state):
        cache = decode(state["loss_cache"]).copy()
        cache[np.flatnonzero(np.isfinite(cache))[0]] = value
        state["loss_cache"] = encode(cache)
    return edit


# -1.0 and inf used to load; the first step then raised numpy's "Probabilities
# are not non-negative" or "contain NaN" from rng.choice, or trained on
@pytest.mark.parametrize("value", [-1.0, -1e-300, float("inf"), float("-inf")])
def test_bad_loss_cache_entry_rejected(value, tmp_path):
    config, path = saved_state(tmp_path)
    rewrite(path, set_cache_entry(value))
    with pytest.raises(ParseError, match="'loss_cache' holds a value that is not NaN"):
        train(config, *pin_data(), resume_from=tmp_path)


def set_metrics_cell(column, value):
    def edit(state):
        rows = decode(state["metrics"]).copy()
        rows[19, column] = value  # iteration 19 is an eval
        state["metrics"] = encode(rows)
    return edit


# each loaded and was copied into metrics.csv
BAD_METRICS = {
    "train_loss-nan": (set_metrics_cell(1, np.nan), "train_loss that is not finite"),
    "train_loss-inf": (set_metrics_cell(1, np.inf), "train_loss that is not finite"),
    "val_error-above-one": (set_metrics_cell(2, 7.0), "val_error that is not NaN or in"),
    "val_error-negative": (set_metrics_cell(2, -0.5), "val_error that is not NaN or in"),
    "val_error-inf": (set_metrics_cell(2, np.inf), "val_error that is not NaN or in"),
}


@pytest.mark.parametrize("case", sorted(BAD_METRICS))
def test_bad_metrics_value_rejected(case, tmp_path):
    edit, message = BAD_METRICS[case]
    config, path = saved_state(tmp_path)
    rewrite(path, edit)
    with pytest.raises(ParseError, match=f"'metrics' holds a {message}"):
        train(config, *pin_data(), resume_from=tmp_path)


def test_cli_resume_from_bad_rng_state_errors(tmp_path, capsys):
    # was a raw OverflowError traceback from setting the generator's state
    status, err = resume_cli(tmp_path, capsys,
                             lambda state: state["rng_state"]["state"].update(state=-5))
    assert status == 1
    assert err.startswith("error:") and "bad training state" in err


def set_rng(key, value):
    def edit(state):
        *path, last = key.split(".")
        target = state["rng_state"]
        for name in path:
            target = target[name]
        target[last] = value
    return edit


# numpy loaded each of these but the generator name and 2**32, truncating a
# float to an int or keeping a has_uint32 it never writes, so resume went on
# along another stream; a wrong name or 2**32 was an error naming no key
BAD_RNG = {
    "other-generator": ("bit_generator", "MT19937"),
    "fractional-state": ("state.state", 1.5),
    "bool-state": ("state.state", True),
    "fractional-inc": ("state.inc", 1.5),
    "has_uint32-two": ("has_uint32", 2),
    "has_uint32-negative": ("has_uint32", -1),
    "fractional-uinteger": ("uinteger", 1.5),
    "uinteger-too-big": ("uinteger", 2**32),
}


@pytest.mark.parametrize("case", sorted(BAD_RNG))
def test_bad_rng_state_rejected(case, tmp_path):
    key, value = BAD_RNG[case]
    config, path = saved_state(tmp_path)
    rewrite(path, set_rng(key, value))
    with pytest.raises(ParseError, match=f"'rng_state.{key}' = {value!r} is not"):
        train(config, *pin_data(), resume_from=tmp_path)


# null and a number were a ParseError from base64 naming no key; a missing
# 'f8' named only 'f8'
@pytest.mark.parametrize("f8", [None, 5, "missing"])
@pytest.mark.parametrize("key", ["loss_cache", "weights", "metrics"])
def test_blob_without_base64_text_names_the_key(key, f8, tmp_path):
    config, path = saved_state(tmp_path)
    edit = (lambda blob: blob.pop("f8")) if f8 == "missing" else (lambda blob: blob.update(f8=f8))
    rewrite(path, lambda state: edit(BLOBS[key](state)))
    with pytest.raises(ParseError, match=f"'{key}' has an 'f8' of {f8 if f8 != 'missing' else None}"):
        train(config, *pin_data(), resume_from=tmp_path)
