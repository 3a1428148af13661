"""Feed-forward embedding map with exact backprop and SGD-with-momentum.

The map is a stack of affine layers with rectifier activations on hidden
layers and identity output. Everything is float64; the finite-difference
checks of :mod:`magnetdml.gradcheck` depend on that.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigurationError, ContractError, ParseError

_CHECKPOINT_MAGIC = b"MDML1\x00"


class ActivationTrace:
    """Per-layer inputs and pre-activations retained for the paired backward."""

    def __init__(self, version: int, layer_inputs, preacts):
        self.version = version
        self.layer_inputs = layer_inputs
        self.preacts = preacts


class EmbeddingModel:
    """MLP mapping inputs to representation space."""

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
        """Counts parameter writes through :meth:`sgd_step` and :meth:`set_flat_params`."""
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
        """One :func:`momentum_sgd` step over every weight and bias."""
        w_grads, b_grads = gradients
        momentum_sgd(
            self.weights + self.biases, self.w_velocity + self.b_velocity,
            list(w_grads) + list(b_grads), config, iteration,
        )
        self._version += 1

    # -- flat parameter view used by grad_check ----------------------------------

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate(
            [w.ravel() for w in self.weights] + [b.ravel() for b in self.biases]
        )

    def set_flat_params(self, flat: np.ndarray):
        i = 0
        for arrays in (self.weights, self.biases):
            for a in arrays:
                a[...] = flat[i : i + a.size].reshape(a.shape)
                i += a.size
        if i != flat.size:
            raise ContractError("flat parameter vector has the wrong length")
        self._version += 1

    def to_bytes(self) -> bytes:
        """Binary checkpoint: magic, layer count, dims, then row-major W and b arrays."""
        parts = [_CHECKPOINT_MAGIC, struct.pack("<q", len(self.layer_dims)),
                 np.asarray(self.layer_dims, dtype="<i8").tobytes()]
        for w, b in zip(self.weights, self.biases):
            parts += [w.astype("<f8").tobytes(), b.astype("<f8").tobytes()]
        return b"".join(parts)

    def save(self, path):
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path) -> "EmbeddingModel":
        """Read a checkpoint written by :meth:`save`. Any file that is not one,
        including one whose weights are not finite, is a ``ParseError``."""
        raw = Path(path).read_bytes()
        off = len(_CHECKPOINT_MAGIC) + 8
        if raw[: len(_CHECKPOINT_MAGIC)] != _CHECKPOINT_MAGIC or len(raw) < off:
            raise ParseError(f"{path}: not a model checkpoint")
        (n_dims,) = struct.unpack_from("<q", raw, off - 8)
        if not 2 <= n_dims <= (len(raw) - off) // 8:
            raise ParseError(f"{path}: bad layer count {n_dims}")
        dims = np.frombuffer(raw, dtype="<i8", count=n_dims, offset=off).tolist()
        off += 8 * n_dims
        # check the size the dims imply before allocating anything from them
        if min(dims) < 1 or off + 8 * sum(o * (i + 1) for i, o in zip(dims, dims[1:])) != len(raw):
            raise ParseError(f"{path}: layer dims {dims} do not match the file size")
        model = cls(dims, seed=0)
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            w = np.frombuffer(raw, dtype="<f8", count=fan_out * fan_in, offset=off)
            off += 8 * fan_out * fan_in
            b = np.frombuffer(raw, dtype="<f8", count=fan_out, offset=off)
            off += 8 * fan_out
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ParseError(f"{path}: non-finite weights in layer {i}")
            model.weights[i] = w.reshape(fan_out, fan_in).copy()
            model.biases[i] = b.copy()
        return model


def momentum_sgd(params, velocities, grads, config: ExperimentConfig, iteration: int):
    """velocity <- momentum*velocity - rate*grad; param += velocity, in place.
    Reads four fields of ``config``: the rate is ``learning_rate`` annealed by
    ``anneal_factor`` every ``epoch_length`` iterations, and ``momentum``
    scales the velocity."""
    rate = config.learning_rate * config.anneal_factor ** (iteration // config.epoch_length)
    for p, v, g in zip(params, velocities, grads):
        if g.shape != p.shape:
            raise ContractError("gradient shape does not match parameter")
        v *= config.momentum
        v -= rate * g
        p += v

