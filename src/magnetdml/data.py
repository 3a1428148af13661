"""Datasets: synthetic mixture generation, CSV ingestion, splitting, label collapse.

All operations are pure functions of their inputs and an explicit seed, so they
are safe to call concurrently.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ParseError


@dataclass
class Dataset:
    """Labelled feature vectors with optional per-example binary attributes.

    ``inputs`` is (N, d) finite float64 with N, d >= 1, ``labels`` is (N,)
    integer with every value in [0, class_count) and every class represented
    at least once.
    ``attributes`` is either None or a row-aligned (N, A) 0/1 array; a dataset
    without attributes stores None so attribute metrics refuse to run instead
    of silently reporting zeros.
    """

    inputs: np.ndarray
    labels: np.ndarray
    attributes: Optional[np.ndarray] = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.inputs.size == 0:
            raise ConfigurationError("inputs must be a non-empty (N, d) array with d >= 1")
        if not np.isfinite(self.inputs).all():
            raise ConfigurationError("inputs must be finite (no NaN or inf)")
        if self.labels.shape != (len(self.inputs),):
            raise ConfigurationError("labels must align with inputs")
        if self.labels.min() < 0:
            raise ConfigurationError("labels must be non-negative")
        c = int(self.labels.max()) + 1
        present = np.bincount(self.labels, minlength=c)
        if (present == 0).any():
            missing = int(np.flatnonzero(present == 0)[0])
            raise ConfigurationError(f"class {missing} has no examples")
        if self.attributes is not None:
            self.attributes = np.asarray(self.attributes, dtype=np.int8)
            if self.attributes.shape[0] != len(self.inputs) or self.attributes.ndim != 2:
                raise ConfigurationError("attributes must align with inputs")
            if not np.isin(self.attributes, (0, 1)).all():
                raise ConfigurationError("attributes must be binary")

    @property
    def size(self) -> int:
        return len(self.inputs)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def class_count(self) -> int:
        return int(self.labels.max()) + 1


@dataclass
class Mode:
    """One isotropic Gaussian mode of a class."""

    center: Sequence[float]
    deviation: float
    count: int
    attributes: Optional[Sequence[int]] = None


@dataclass
class MixtureSpec:
    """Per-class mixture of Gaussian modes, optionally with per-mode attributes."""

    classes: list = field(default_factory=list)  # list of lists of Mode

    def validate(self):
        if not self.classes:
            raise ConfigurationError("mixture spec has no classes")
        dims = set()
        attr_dims = set()  # attribute lengths; None marks a mode without attributes
        for c, modes in enumerate(self.classes):
            if not modes:
                raise ConfigurationError(f"class {c} has no modes")
            for mode in modes:
                if mode.count < 1:
                    raise ConfigurationError(f"class {c} has a mode with count < 1")
                if mode.deviation < 0:
                    raise ConfigurationError(f"class {c} has a negative deviation")
                if mode.attributes is not None and any(a not in (0, 1) for a in mode.attributes):
                    raise ConfigurationError(f"class {c} has an attribute value other than 0 or 1")
                dims.add(len(mode.center))
                attr_dims.add(None if mode.attributes is None else len(mode.attributes))
        if len(dims) != 1:
            raise ConfigurationError("all mode centers must share one dimension")
        if None in attr_dims and len(attr_dims) > 1:
            raise ConfigurationError("either all modes or no modes must carry attributes")
        if len(attr_dims) > 1:
            raise ConfigurationError("all attribute vectors must share one length")

    @classmethod
    def from_json(cls, path) -> "MixtureSpec":
        """Read a spec; a file that is not UTF-8 JSON of this shape, or a
        value of the wrong type, is a ``ParseError`` naming the file."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
            classes = [
                [
                    Mode(
                        center=[float(v) for v in m["center"]],
                        deviation=float(m["deviation"]),
                        count=operator.index(m["count"]),
                        attributes=None if m.get("attributes") is None
                        else [operator.index(a) for a in m["attributes"]],
                    )
                    for m in modes
                ]
                for modes in raw["classes"]
            ]
        except KeyError as exc:
            raise ParseError(f"{path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad mixture spec: {exc}") from exc
        return cls(classes=classes)


def generate_mixture(spec: MixtureSpec, seed: int) -> Dataset:
    """Draw a dataset from a class/mode mixture; deterministic given seed."""
    spec.validate()
    if seed < 0:
        raise ConfigurationError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    inputs, labels, attrs = [], [], []
    has_attrs = any(m.attributes is not None for modes in spec.classes for m in modes)
    for c, modes in enumerate(spec.classes):
        for mode in modes:
            center = np.asarray(mode.center, dtype=np.float64)
            x = center + mode.deviation * rng.standard_normal((mode.count, len(center)))
            inputs.append(x)
            labels.extend([c] * mode.count)
            if has_attrs:
                attrs.append(np.tile(np.asarray(mode.attributes, dtype=np.int8), (mode.count, 1)))
    return Dataset(
        inputs=np.vstack(inputs),
        labels=np.asarray(labels),
        attributes=np.vstack(attrs) if has_attrs else None,
    )


def load_dataset(path, attributes_path=None) -> Dataset:
    """Read a dataset CSV (header ``label,f0..f{d-1}``), densely remapping labels.

    Class indices are remapped to [0, C) in order of first appearance. An
    optional companion CSV with header ``a0..a{A-1}`` supplies row-aligned
    binary attributes. Each row is checked as it is read (column count, int
    label, float features, finite values), so the first bad line is named,
    and its features go straight into one float64 buffer.
    """
    rows_in = _csv_rows(path)
    _, header = next(rows_in, (1, None))
    if header is None:
        raise ParseError(f"{path}: empty file")
    if not header or header[0] != "label":
        raise ParseError(f"{path}: line 1: first column must be 'label'")
    dim = len(header) - 1
    remap = {}  # raw label (any Python int) -> dense class index
    labels, values = [], array("d")
    for lineno, row in rows_in:
        if not row:
            continue
        if len(row) != dim + 1:
            raise ParseError(
                f"{path}: line {lineno}: expected {dim + 1} columns, got {len(row)}"
            )
        start = len(values)
        try:
            raw = int(row[0])
            values.extend(map(float, row[1:]))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, values[start:])):
            raise ParseError(f"{path}: line {lineno}: non-finite feature value")
        labels.append(remap.setdefault(raw, len(remap)))
    if not labels:
        raise ParseError(f"{path}: no data rows")

    attributes = None
    if attributes_path is not None:
        attributes = _load_attributes(attributes_path, expected_rows=len(labels))
    inputs = np.array(values, dtype=np.float64).reshape(len(labels), dim)
    return Dataset(inputs=inputs, labels=np.asarray(labels), attributes=attributes)


def _load_attributes(path, expected_rows: int) -> np.ndarray:
    rows_in = _csv_rows(path)
    _, header = next(rows_in, (1, None))
    if header is None:
        raise ParseError(f"{path}: empty file")
    width = len(header)
    rows, values = 0, array("b")
    for lineno, row in rows_in:
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"{path}: line {lineno}: expected {width} columns")
        for v in row:
            try:
                value = int(v)
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if value not in (0, 1):
                raise ParseError(f"{path}: line {lineno}: attribute value {value} is not 0 or 1")
            values.append(value)
        rows += 1
    if rows != expected_rows:
        raise ParseError(f"{path}: {rows} attribute rows for {expected_rows} examples")
    return np.array(values, dtype=np.int8).reshape(rows, width)


def _csv_rows(path):
    """(line number, row) for each row of a CSV file. A file that is not
    UTF-8 text, or that the csv module cannot split, is a ``ParseError``."""
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            yield from enumerate(csv.reader(fh), start=1)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_dataset(dataset: Dataset, path, attributes_path=None):
    """Write a dataset in the CSV schema read back by :func:`load_dataset`."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(dataset.dim)])
        for label, x in zip(dataset.labels, dataset.inputs):
            writer.writerow([int(label)] + [repr(float(v)) for v in x])
    if dataset.attributes is not None and attributes_path is not None:
        with Path(attributes_path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"a{i}" for i in range(dataset.attributes.shape[1])])
            for row in dataset.attributes:
                writer.writerow([int(v) for v in row])


def split(dataset: Dataset, test_fraction: float, seed: int):
    """Stratified train/test split; per class floor(fraction*count), minimum 1."""
    if not 0 < test_fraction < 1:
        raise ConfigurationError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(dataset.size, dtype=bool)
    for c in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == c)
        if len(members) < 2:
            raise ConfigurationError(f"class {c} has a single example; cannot split")
        n_test = max(1, int(test_fraction * len(members)))
        test_mask[rng.choice(members, size=n_test, replace=False)] = True

    def subset(mask):
        return Dataset(
            inputs=dataset.inputs[mask],
            labels=dataset.labels[mask],
            attributes=None if dataset.attributes is None else dataset.attributes[mask],
        )

    return subset(~test_mask), subset(test_mask)


def collapse_labels(dataset: Dataset, pairing):
    """Merge class pairs into superclasses; keeps the fine labels for evaluation.

    ``pairing`` must cover every class exactly once; pair i becomes
    superclass i. Returns (collapsed dataset, original fine labels).
    """
    c = dataset.class_count
    seen = {}
    for i, (a, b) in enumerate(pairing):
        for cls in (a, b):
            if cls in seen:
                raise ConfigurationError(f"class {cls} appears in two pairs")
            if not 0 <= cls < c:
                raise ConfigurationError(f"class {cls} out of range")
            seen[cls] = i
    if len(seen) != c:
        unpaired = sorted(set(range(c)) - set(seen))
        raise ConfigurationError(f"classes {unpaired} are unpaired")
    coarse = np.asarray([seen[int(y)] for y in dataset.labels])
    collapsed = Dataset(inputs=dataset.inputs, labels=coarse, attributes=dataset.attributes)
    return collapsed, dataset.labels.copy()


def random_pairing(class_count: int, seed: int):
    """A deterministic random perfect pairing of an even number of classes."""
    if class_count % 2:
        raise ConfigurationError("class count must be even to pair")
    order = np.random.default_rng(seed).permutation(class_count)
    return [(int(order[i]), int(order[i + 1])) for i in range(0, class_count, 2)]
