"""Feed-forward embedding map, exact backprop, SGD with momentum, the saved form and its codec.

The map is a stack of affine layers with rectifier activations on hidden
layers and identity output. Everything is float64; the finite-difference
checks of :mod:`magnetdml.gradcheck` depend on that.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigurationError, ContractError, ParseError


class ActivationTrace:
    """Per-layer inputs and pre-activations retained for the paired backward."""

    def __init__(self, version: int, layer_inputs, preacts):
        self.version = version
        self.layer_inputs = layer_inputs
        self.preacts = preacts


class EmbeddingModel:
    """MLP mapping inputs to representation space."""

    _ARRAYS = ("weights", "biases", "w_velocity", "b_velocity")  # the saved form's keys

    def __init__(self, layer_dims: Sequence[int], seed: int = 0):
        if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
            raise ConfigurationError("layer_dims needs at least [input, output], all >= 1")
        self.layer_dims = [int(d) for d in layer_dims]
        rng = np.random.default_rng(seed)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            s = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-s, s, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        self.w_velocity = [np.zeros_like(w) for w in self.weights]
        self.b_velocity = [np.zeros_like(b) for b in self.biases]
        self._version = 0

    @property
    def version(self) -> int:
        """Counts parameter writes through :meth:`sgd_step`; a trace of an older
        version is stale."""
        return self._version

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def _checked_input(self, batch) -> np.ndarray:
        x = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise ConfigurationError(
                f"input dimension {x.shape[1]} != model input {self.input_dim}"
            )
        return x

    def forward(self, batch: np.ndarray) -> Tuple[np.ndarray, ActivationTrace]:
        x = self._checked_input(batch)
        layer_inputs, preacts = [], []
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            layer_inputs.append(h)
            z = h @ w.T + b
            preacts.append(z)
            h = z if i == last else np.maximum(z, 0.0)
        return h, ActivationTrace(self._version, layer_inputs, preacts)

    def embed(self, batch: np.ndarray) -> np.ndarray:
        """``forward(batch)[0]`` byte for byte, without the trace: the bias add
        and the rectifier write into each layer's fresh product, so only a
        layer's input and its product are alive at a time."""
        h = self._checked_input(batch)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return h

    def backward(self, trace: ActivationTrace, representation_grads: np.ndarray):
        """Gradients of sum_n <rep_n, rep_grad_n> w.r.t. every parameter.

        Returns (weight_grads, bias_grads) lists matching the parameter shapes.
        """
        if trace.version != self._version:
            raise ContractError("activation trace is stale; rerun forward")
        g = np.atleast_2d(np.asarray(representation_grads, dtype=np.float64))
        if g.shape != trace.preacts[-1].shape:
            raise ContractError("representation gradients do not match the trace")
        w_grads = [None] * len(self.weights)
        b_grads = [None] * len(self.biases)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            gz = g if i == last else g * (trace.preacts[i] > 0)
            w_grads[i] = gz.T @ trace.layer_inputs[i]
            b_grads[i] = gz.sum(axis=0)
            if i > 0:
                g = gz @ self.weights[i]
        return w_grads, b_grads

    def sgd_step(self, gradients, config: ExperimentConfig, iteration: int):
        """velocity <- momentum*velocity - rate*grad; param += velocity, in place, for
        every weight and bias; the rate is ``learning_rate`` annealed by
        ``anneal_factor`` every ``epoch_length`` iterations."""
        rate = config.learning_rate * config.anneal_factor ** (iteration // config.epoch_length)
        w_grads, b_grads = gradients
        for p, v, g in zip(self.weights + self.biases, self.w_velocity + self.b_velocity,
                           [*w_grads, *b_grads]):
            if g.shape != p.shape:
                raise ContractError("gradient shape does not match parameter")
            v *= config.momentum
            v -= rate * g
            p += v
        self._version += 1

    def state(self) -> dict:
        """The weights, biases and velocities as ``training_state.json`` holds them."""
        return {key: [_pack(a) for a in getattr(self, key)] for key in self._ARRAYS}

    def restore(self, raw, name: str):
        """Copy a :meth:`state` into this model in place; saved layers other than
        ``layer_dims`` are a ConfigurationError, any other fault a ValueError,
        each naming the model ``name``."""
        try:
            dims, weights = _unpack_weights(raw["weights"])
            if dims != self.layer_dims:
                raise ConfigurationError(f"the saved {name} has layers {dims}, the config's "
                                         f"{name} has {self.layer_dims}")
            _copy_finite(self.weights, weights, "weights")
            for key in self._ARRAYS[1:]:
                _restore(getattr(self, key), raw[key], key)
        except ConfigurationError:
            raise
        except (LookupError, TypeError, ValueError) as exc:  # a missing key too
            raise ValueError(f"the saved {name}: {exc}") from exc

    def to_bytes(self) -> bytes:
        """JSON of ``weights`` and ``biases`` as ``training_state.json`` holds them."""
        return json.dumps({key: [_pack(a) for a in getattr(self, key)]
                           for key in ("weights", "biases")}).encode()

    def save(self, path):
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path) -> "EmbeddingModel":
        """A :meth:`save` checkpoint; any other file (non-finite weights too) is a ParseError."""
        try:
            raw = json.loads(Path(path).read_bytes())
            dims, weights = _unpack_weights(raw["weights"])
            model = cls(dims, seed=0)
            _copy_finite(model.weights, weights, "weights")
            _restore(model.biases, raw["biases"], "biases")
            return model
        except (LookupError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ParseError(f"{path}: not a model checkpoint: {exc}") from exc


def _pack(array) -> dict:
    """An array as JSON: its shape and base64 of its little-endian float64 bytes."""
    array = np.asarray(array, dtype="<f8")
    return {"shape": list(array.shape), "f8": base64.b64encode(array.tobytes()).decode("ascii")}


def _unpack(blob, key, expected=None) -> np.ndarray:
    """The array :func:`_pack` wrote, of shape ``expected`` if one is given; a
    blob of any other form is a ValueError."""
    if isinstance(blob, list):
        raise ValueError(f"{key!r} is a JSON list, as in the old list format, which is not read")
    if not isinstance(blob, dict):
        raise ValueError(f"{key!r} is not an array blob")
    shape = blob["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{key!r} has a bad shape {shape!r}")
    if expected is not None and tuple(shape) != tuple(expected):
        raise ValueError(f"{key!r} has shape {tuple(shape)}, not {tuple(expected)}")
    f8 = blob.get("f8")
    if not isinstance(f8, str):
        raise ValueError(f"{key!r} has an 'f8' of {f8!r}, not a base64 string")
    try:
        data = base64.b64decode(f8, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"{key!r} is not base64: {exc}") from exc
    if len(data) != 8 * math.prod(shape):
        raise ValueError(f"{key!r} holds {len(data)} bytes, its shape {shape} needs "
                         f"{8 * math.prod(shape)}")
    return np.frombuffer(data, dtype="<f8").reshape(shape)


def _unpack_weights(weight_blobs) -> Tuple[List[int], List[np.ndarray]]:
    """The layer dims and the arrays of these weight blobs, each blob decoded
    once and checked against its bytes; blobs that are not a chain of 2-D
    weights, all dims >= 1, a ValueError."""
    weights = [_unpack(w, "weights") for w in weight_blobs]
    shapes = [w.shape for w in weights]
    dims = [s[-1] for s in shapes[:1]] + [s[0] for s in shapes]
    if not dims or min(dims) < 1 or any(s != (o, i) for s, i, o in zip(shapes, dims, dims[1:])):
        raise ValueError(f"'weights' shapes {shapes} are not a chain of layers")
    return dims, weights


def _restore(arrays, blobs, key):
    """Copy a list of blobs into ``arrays`` in place; a list of another length,
    a blob of another shape or a non-finite value is a ValueError."""
    if not isinstance(blobs, list) or len(blobs) != len(arrays):
        raise ValueError(f"{key!r} is not a list of {len(arrays)} arrays")
    _copy_finite(arrays, (_unpack(blob, key, a.shape) for a, blob in zip(arrays, blobs)), key)


def _copy_finite(arrays, values, key):
    """Copy ``values`` into ``arrays`` in place, one by one; a non-finite
    value is a ValueError."""
    for a, value in zip(arrays, values):
        a[...] = value
        if not np.isfinite(a).all():
            raise ValueError(f"{key!r} holds a non-finite value")
