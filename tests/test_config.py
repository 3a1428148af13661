"""Config files: every key round-trips, bad values fail at the boundary, and
no input to ``parse_config`` or ``load_dataset`` escapes as an untyped error."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnetdml import ExperimentConfig, load_dataset, parse_config
from magnetdml.config import SEED_ENV_VAR
from magnetdml.errors import ConfigurationError, ParseError

# a value other than the default for every field
EVERY_FIELD = dict(
    objective="triplet", dataset="d.csv", dataset_attributes="a.csv", mixture_spec="s.json",
    test_fraction=0.3, layer_dims=[3, 5, 2], learning_rate=0.02, momentum=0.5,
    anneal_factor=0.9, epoch_length=7, alpha=0.25, k=3, m=5, d=6, refresh_interval=11,
    impostor_fraction=0.4, batch_size=9, ncm_k=4, eval_l=17, sigma_decay=0.5,
    iterations=13, eval_interval=3, seed=8,
)


def write_config(path, values):
    text = "".join(
        f"{k} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
        for k, v in values.items())
    path.write_text(text)
    return path


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def test_every_field_round_trips(tmp_path):
    defaults = ExperimentConfig()
    assert list(EVERY_FIELD) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert all(v != getattr(defaults, k) for k, v in EVERY_FIELD.items())
    parsed = parse_config(write_config(tmp_path / "run.cfg", EVERY_FIELD))
    for name, value in EVERY_FIELD.items():
        assert getattr(parsed, name) == value and type(getattr(parsed, name)) is type(value)


@pytest.mark.parametrize("overrides, match", [
    ({"learning_rate": "nan"}, "learning_rate must be finite"),
    ({"learning_rate": "inf"}, "learning_rate must be finite"),
    ({"objective": "triplet", "alpha": "nan"}, "alpha must be finite"),
    ({"momentum": "-inf"}, "momentum must be finite"),
    ({"seed": "-1"}, "seed must be >= 0"),
    ({"objective": "triplet", "batch_size": "0"}, "batch_size >= 1"),
    ({"m": "7", "d": "7"}, "exceeds the batch cap 48"),
    ({"learning_rate": "0"}, "learning_rate must be positive"),
    ({"momentum": "1"}, r"momentum must lie in \[0, 1\)"),
    ({"anneal_factor": "0"}, r"anneal_factor must lie in \(0, 1\]"),
    ({"anneal_factor": "1.5"}, r"anneal_factor must lie in \(0, 1\]"),
    ({"epoch_length": "0"}, "epoch_length must be >= 1"),
    ({"objective": "triplet", "alpha": "-0.5"}, "alpha must be >= 0 for objective = triplet"),
    ({"eval_l": "0"}, "eval_l must be >= 1"),
    ({"sigma_decay": "1"}, r"sigma_decay must lie in \[0, 1\)"),
    ({"sigma_decay": "-0.1"}, r"sigma_decay must lie in \[0, 1\)"),
    ({"impostor_fraction": "0"}, r"impostor_fraction must lie in \(0, 1\]"),
    ({"impostor_fraction": "1.5"}, r"impostor_fraction must lie in \(0, 1\]"),
    ({"m": "1"}, "m must be >= 2"),
    ({"d": "0"}, "d must be >= 1"),
    ({"k": "0"}, "k must be >= 1"),
    ({"ncm_k": "0"}, "ncm_k must be >= 1"),
])
def test_bad_values_rejected(tmp_path, overrides, match):
    with pytest.raises(ConfigurationError, match=match):
        parse_config(write_config(tmp_path / "run.cfg", overrides))


def test_negative_env_seed_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "-1")
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        parse_config(write_config(tmp_path / "run.cfg", {}))


def test_max_batch_is_not_a_key(tmp_path):
    with pytest.raises(ParseError, match="unknown key 'max_batch'"):
        parse_config(write_config(tmp_path / "run.cfg", {"max_batch": 64}))


@pytest.mark.parametrize("name", ["run.cfg", "data.csv", "attrs.csv"])
def test_non_utf8_file_rejected(tmp_path, name):
    files = {"run.cfg": b"seed = 1\n", "data.csv": b"label,f0\n0,1.0\n1,2.0\n",
             "attrs.csv": b"a0\n1\n0\n"}
    for n, raw in files.items():
        (tmp_path / n).write_bytes(raw.replace(b"1", b"\xff", 1) if n == name else raw)
    with pytest.raises(ParseError, match=name):
        parse_config(tmp_path / "run.cfg")  # parses unless it is the file broken
        load_dataset(tmp_path / "data.csv", attributes_path=tmp_path / "attrs.csv")


KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)] + ["max_batch", "bogus"]
VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "48", "0.5", "nan", "inf", "1e999", "2,3", "magnet",
                     "ncm", "", "x", "9" * 5000]),
    st.text(max_size=12),
)
CONFIG_LINES = st.one_of(
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(KEYS), VALUES),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(CONFIG_LINES, max_size=8), junk=st.binary(max_size=4))
def test_parse_config_fuzz(tmp_path_factory, lines, junk):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_bytes("\n".join(lines).encode() + junk)
    try:
        config = parse_config(path)
    except (ParseError, ConfigurationError):
        return
    assert isinstance(config, ExperimentConfig)


CELLS = st.one_of(
    st.sampled_from(["label", "f0", "0", "1", "-3", "0.5", "nan", "inf", "", '"', "1e999",
                     " 1 ", " 0.5", "  ", "1_0", "٣", "١٢", '"1.5"', '"a""b"', "300",
                     str(2**63), str(-(2**63) - 1)]),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(header=st.sampled_from([["label"], ["label", "f0"], ["label", "f0", "f1"]])
       | st.lists(CELLS, max_size=3),
       rows=st.lists(st.lists(CELLS, max_size=4), max_size=6), junk=st.binary(max_size=4),
       attributes=st.none() | st.lists(st.lists(CELLS, max_size=3), max_size=6))
@example(header=["label", "f0"], rows=[["0", "nan"], ["1", "x", '"']], junk=b"", attributes=None)
@example(header=["label", "f0"], rows=[[], ["-3", " 0.5"], [], [str(2**63), "1_0"]],
         junk=b"\n", attributes=[["a0"], ["1"], ["300"]])
def test_load_dataset_fuzz(tmp_path_factory, header, rows, junk, attributes):
    tmp = tmp_path_factory.mktemp("csv")
    (tmp / "data.csv").write_bytes(
        "\n".join(",".join(r) for r in [header, *rows]).encode() + junk)
    attributes_path = None
    if attributes is not None:
        attributes_path = tmp / "attrs.csv"
        attributes_path.write_bytes("\n".join(",".join(r) for r in attributes).encode())
    try:
        dataset = load_dataset(tmp / "data.csv", attributes_path=attributes_path)
    except (ParseError, ConfigurationError):
        return
    assert dataset.size == len(dataset.labels)
