"""``load_dataset`` against the per-row list parser it replaced.

``reference_load_dataset`` builds each row as a list of floats and converts
the list of rows at the end; the package parses each row straight into one
float buffer. Both must give the same ``inputs``, ``labels`` and
``attributes`` bytes, or raise the same exception type with the same message,
so that the first bad line still wins and ``metrics.csv`` does not move. The
reference's attribute reader checks each value for 0 or 1 as it reads it, as
the package does; before that check a ``300`` escaped as a raw
``OverflowError`` from the int8 cast.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnetdml import Dataset, load_dataset, save_dataset
from magnetdml.data import _csv_rows
from magnetdml.errors import ConfigurationError, ParseError

ROOT = Path(__file__).resolve().parents[1]


def reference_load_dataset(path, attributes_path=None) -> Dataset:
    rows_in = _csv_rows(path)
    _, header = next(rows_in, (1, None))
    if header is None:
        raise ParseError(f"{path}: empty file")
    if not header or header[0] != "label":
        raise ParseError(f"{path}: line 1: first column must be 'label'")
    dim = len(header) - 1
    raw_labels, rows = [], []
    for lineno, row in rows_in:
        if not row:
            continue
        if len(row) != dim + 1:
            raise ParseError(
                f"{path}: line {lineno}: expected {dim + 1} columns, got {len(row)}"
            )
        try:
            raw_labels.append(int(row[0]))
            rows.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise ParseError(f"{path}: line {lineno}: non-finite feature value")
    if not rows:
        raise ParseError(f"{path}: no data rows")

    remap = {}
    labels = []
    for raw in raw_labels:
        if raw not in remap:
            remap[raw] = len(remap)
        labels.append(remap[raw])

    attributes = None
    if attributes_path is not None:
        attributes = reference_load_attributes(attributes_path, expected_rows=len(rows))
    return Dataset(inputs=np.asarray(rows), labels=np.asarray(labels), attributes=attributes)


def reference_load_attributes(path, expected_rows):
    rows_in = _csv_rows(path)
    _, header = next(rows_in, (1, None))
    if header is None:
        raise ParseError(f"{path}: empty file")
    width = len(header)
    rows = []
    for lineno, row in rows_in:
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"{path}: line {lineno}: expected {width} columns")
        values = []
        for v in row:
            try:
                values.append(int(v))
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if values[-1] not in (0, 1):
                raise ParseError(
                    f"{path}: line {lineno}: attribute value {values[-1]} is not 0 or 1")
        rows.append(values)
    if len(rows) != expected_rows:
        raise ParseError(f"{path}: {len(rows)} attribute rows for {expected_rows} examples")
    return np.asarray(rows, dtype=np.int8)


def outcome(loader, path, attributes_path):
    """The arrays' dtypes, shapes and bytes, or the exception's type and message."""
    try:
        ds = loader(path, attributes_path=attributes_path)
    except Exception as exc:  # noqa: BLE001 - the type itself is compared
        return type(exc), str(exc)
    arrays = [ds.inputs, ds.labels] + ([] if ds.attributes is None else [ds.attributes])
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def assert_same(tmp, data_text, attributes_text=None):
    path = tmp / "data.csv"
    path.write_bytes(data_text.encode())
    attributes_path = None
    if attributes_text is not None:
        attributes_path = tmp / "attrs.csv"
        attributes_path.write_bytes(attributes_text.encode())
    got = outcome(load_dataset, path, attributes_path)
    assert got == outcome(reference_load_dataset, path, attributes_path)
    if isinstance(got, tuple):
        assert got[0] in (ParseError, ConfigurationError)
    return got


# cells that parse, then cells that name a bad line
LABELS = st.sampled_from([" 2 ", "1_0", "٣", str(2**63), str(-(2**63) - 1)]) | st.integers(
    -3, 3).map(str)
FEATURES = st.sampled_from([" 1.25 ", "-0", "1_0", "١٢", '"1.5"', "5e-324"]) | st.floats(
    allow_nan=False, allow_infinity=False).map(repr)
BAD_CELLS = st.sampled_from(["x", "", '"', "nan", "-inf", "1e999", "1.5", "2", "300", "-1"])
ATTRIBUTES = st.sampled_from(["0", "1", " 1 ", '"0"'])


@st.composite
def csv_texts(draw):
    """A dataset CSV text of mostly well-formed rows, with blank, ragged and
    bad-cell lines mixed in, and an optional attributes CSV text whose row
    count usually matches."""
    dim = draw(st.sampled_from([0, 1, 2, 3, 3]))
    header = ["label"] + [f"f{i}" for i in range(dim)]
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.lists(st.sampled_from(["label", "f0", "", '"']), max_size=3))
    lines, rows = [",".join(header)], 0
    # r: a good row, x: a row with one bad cell, g: a ragged row, b: a blank line
    for kind in draw(st.lists(st.sampled_from("rrrrrrrrrrxgb"), max_size=6)):
        if kind == "b":
            lines.append(draw(st.sampled_from(["", " "])))
            continue
        width = dim if kind != "g" else draw(st.integers(0, dim + 2))
        cells = [draw(LABELS)] + draw(st.lists(FEATURES, min_size=width, max_size=width))
        if kind == "x":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(BAD_CELLS)
        lines.append(",".join(cells))
        rows += 1
    data = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    if not draw(st.booleans()):
        return data, None
    width = draw(st.sampled_from([0, 1, 2, 2]))
    count = draw(st.sampled_from([rows, rows, rows, rows + 1, max(rows - 1, 0)]))
    attr_lines = [",".join(f"a{i}" for i in range(width))]
    for _ in range(count):
        cells = draw(st.lists(ATTRIBUTES, min_size=width, max_size=width))
        if cells and draw(st.integers(0, 5)) == 0:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(BAD_CELLS)
        attr_lines.append(",".join(cells))
    return data, "\n".join(attr_lines)


@settings(max_examples=400, deadline=None)
@given(texts=csv_texts())
@example(texts=("label,f0\n0,1.0\n1,2.0\n", "a0,a1\n1,0\n0,300\n"))
def test_matches_reference(tmp_path_factory, texts):
    assert_same(tmp_path_factory.mktemp("csv"), *texts)


@pytest.mark.parametrize("data, attributes, expected", [
    ("label,f0\n\n 5 , 1.5 \n\n7,2.5\n\n", None, [[1.5], [2.5]]),
    ("label,f0\n5,1.5\n  \n7,2.5\n", None, "line 3: expected 2 columns, got 1"),
    ("label,f0,f1\n0, 1.0 ,2.0\n1,3.0,4.0\n", None, [[1.0, 2.0], [3.0, 4.0]]),
    ("label,f0\n1_0,1_0\n٣,١٢\n", None, [[10.0], [12.0]]),
    ("label,f0\n0,1e999\n1,2.0\n", None, "line 2: non-finite"),
    ("label,f0\n0,1.0\n1,nan\n2,x\n", None, "line 3: non-finite"),
    ("label,f0\n0,1.0\n1,2.0,3.0\n2,nan\n", None, "line 3: expected 2 columns, got 3"),
    ('label,f0\n0,"1.5"\n1,"2\n.5"\n', None, "line 3: could not convert"),
    ('label,f0\n0,"1.5"\n1,2.5\n', None, [[1.5], [2.5]]),
    (f"label,f0\n-3,1.0\n{2**63},2.0\n-3,3.0\n{-(2**64)},4.0\n", None,
     [[1.0], [2.0], [3.0], [4.0]]),
    ("label,f0\n0,1.0\n1,2.0\n", "a0,a1\n1,0\n\n0,1\n", [[1.0], [2.0]]),
])
def test_matches_reference_on_edge_cases(tmp_path, data, attributes, expected):
    got = assert_same(tmp_path, data, attributes)
    if isinstance(expected, str):
        assert isinstance(got, tuple) and expected in got[1]
    else:
        inputs = np.frombuffer(got[0][2], dtype=np.float64).reshape(got[0][1])
        assert inputs.tolist() == expected


@pytest.mark.parametrize("workload", ["magnet-ref", "triplet-mined", "baselines"])
def test_matches_reference_on_benchmark_csvs(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(ROOT))
    from trainbench.workloads import WORKLOADS, write_inputs

    write_inputs(workload, 1, tmp_path)
    paths = sorted(tmp_path.glob("data-*.csv"))
    assert len(paths) == WORKLOADS[workload].datasets
    for path in paths:
        got = outcome(load_dataset, path, None)
        assert isinstance(got, list) and got == outcome(reference_load_dataset, path, None)


def test_peak_memory_stays_under_four_times_the_inputs(tmp_path):
    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((4500, 8))
    save_dataset(Dataset(inputs=inputs, labels=np.arange(4500) % 10), tmp_path / "d.csv")
    tracemalloc.start()
    try:
        ds = load_dataset(tmp_path / "d.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.inputs.shape == (4500, 8)
    # the per-row list parser peaked at 6.75x: 36,000 float objects in 4,500 lists
    assert peak < 4 * ds.inputs.nbytes
