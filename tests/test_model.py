import base64
import json
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetdml import EmbeddingModel, ExperimentConfig, grad_check
from magnetdml.errors import ConfigurationError, ContractError, ParseError


def quadratic_probe(inputs):
    def probe(model):
        reps, trace = model.forward(inputs)
        grads = model.backward(trace, 2.0 * reps)
        return float((reps * reps).sum()), grads, trace.preacts[:-1]
    return probe


class TestForward:
    def test_identity_layer(self):
        m = EmbeddingModel([2, 2], seed=0)
        m.weights[0] = np.eye(2)
        m.biases[0][:] = 0
        out, _ = m.forward([[1.0, 2.0]])
        assert np.allclose(out, [[1.0, 2.0]])

    def test_zero_weights_give_bias(self):
        m = EmbeddingModel([3, 4, 2], seed=0)
        for w in m.weights:
            w[:] = 0
        m.biases[-1][:] = [0.5, -1.5]
        out, _ = m.forward(np.random.default_rng(0).standard_normal((5, 3)))
        assert np.allclose(out, np.tile([0.5, -1.5], (5, 1)))

    def test_matches_independent_reimplementation(self):
        # oracle: direct re-evaluation of the affine+rectifier chain
        m = EmbeddingModel([4, 6, 3], seed=7)
        x = np.random.default_rng(1).standard_normal((8, 4))
        out, _ = m.forward(x)
        h = np.maximum(x @ m.weights[0].T + m.biases[0], 0.0)
        expected = h @ m.weights[1].T + m.biases[1]
        assert np.allclose(out, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        m = EmbeddingModel([3, 2], seed=0)
        with pytest.raises(ConfigurationError):
            m.forward(np.zeros((2, 4)))


class TestEmbed:
    @pytest.mark.parametrize("dims", [[5, 3], [5, 7, 3], [5, 7, 6, 3]])
    def test_equals_forward_byte_for_byte(self, dims):
        m = EmbeddingModel(dims, seed=4)
        for b in m.biases:  # nonzero biases and some rectified units
            b[:] = np.random.default_rng(len(b)).standard_normal(len(b))
        x = np.random.default_rng(2).standard_normal((40, 5))
        before = x.copy()
        out = m.embed(x)
        assert out.tobytes() == m.forward(x)[0].tobytes()
        assert x.tobytes() == before.tobytes()

    def test_dimension_mismatch_as_forward(self):
        m = EmbeddingModel([3, 2], seed=0)
        with pytest.raises(ConfigurationError, match="input dimension 4 != model input 3"):
            m.embed(np.zeros((2, 4)))

    def test_peak_holds_one_hidden_layer_and_the_output(self):
        """An N-row embed keeps no trace: at its peak it holds one hidden
        layer's activations and the output. Through ``forward`` it held the
        trace, a second copy of the hidden layer and a bias-add temporary."""
        n, dims = 3600, [8, 64, 32]
        m = EmbeddingModel(dims, seed=0)
        x = np.random.default_rng(0).standard_normal((n, dims[0]))
        tracemalloc.start()
        try:
            m.embed(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * (dims[1] + dims[2]) * 8 + 64 * 1024


class TestBackward:
    def test_zero_grads_give_zero(self):
        m = EmbeddingModel([3, 5, 2], seed=0)
        reps, trace = m.forward(np.random.default_rng(0).standard_normal((4, 3)))
        w_grads, b_grads = m.backward(trace, np.zeros_like(reps))
        assert all((g == 0).all() for g in w_grads + b_grads)

    def test_linear_layer_weight_grad(self):
        # oracle: hand differentiation of y = Wx, dW = sum_n g_n x_n^T
        m = EmbeddingModel([3, 2], seed=0)
        x = np.random.default_rng(2).standard_normal((5, 3))
        g = np.random.default_rng(3).standard_normal((5, 2))
        _, trace = m.forward(x)
        w_grads, b_grads = m.backward(trace, g)
        assert np.allclose(w_grads[0], g.T @ x, atol=1e-12)
        assert np.allclose(b_grads[0], g.sum(axis=0), atol=1e-12)

    def test_stale_trace_rejected(self):
        m = EmbeddingModel([2, 2], seed=0)
        reps, trace = m.forward(np.zeros((1, 2)))
        m.sgd_step(m.backward(trace, reps * 0), ExperimentConfig(learning_rate=0.1), 0)
        with pytest.raises(ContractError):
            m.backward(trace, reps * 0)


class TestSgdStep:
    def test_plain_step(self):
        m = EmbeddingModel([1, 1], seed=0)
        m.weights[0][:] = 1.0
        grads = ([np.array([[2.0]])], [np.zeros(1)])
        m.sgd_step(grads, ExperimentConfig(learning_rate=0.1, momentum=0.0), 0)
        assert np.isclose(m.weights[0][0, 0], 0.8)

    def test_momentum_two_step_displacement(self):
        m = EmbeddingModel([1, 1], seed=0)
        m.weights[0][:] = 0.0
        cfg = ExperimentConfig(learning_rate=0.1, momentum=0.9)
        g = ([np.array([[1.0]])], [np.zeros(1)])
        m.sgd_step(g, cfg, 0)
        before = m.weights[0][0, 0]
        m.sgd_step(g, cfg, 1)
        displacement = m.weights[0][0, 0] - before
        assert np.isclose(abs(displacement), 1.9 * 0.1 * 1.0)

    def test_annealing_exponent(self):
        m = EmbeddingModel([1, 1], seed=0)
        m.weights[0][:] = 0.0
        cfg = ExperimentConfig(learning_rate=0.4, momentum=0.0,
                               anneal_factor=0.5, epoch_length=10)
        g = ([np.array([[1.0]])], [np.zeros(1)])
        m.sgd_step(g, cfg, 25)
        # effective rate = 0.4 * 0.5^2 = 0.1
        assert np.isclose(m.weights[0][0, 0], -0.1)

    def test_zero_gradient_no_motion(self):
        m = EmbeddingModel([2, 3], seed=1)
        before = param_bytes(m)
        g = ([np.zeros_like(m.weights[0])], [np.zeros_like(m.biases[0])])
        m.sgd_step(g, ExperimentConfig(learning_rate=0.5), 0)
        assert param_bytes(m) == before


class TestGradCheck:
    def test_quadratic_probe_passes(self):
        m = EmbeddingModel([3, 2], seed=0)
        x = np.random.default_rng(0).standard_normal((6, 3))
        report = grad_check(m, quadratic_probe(x), tolerance=1e-6)
        assert report.passed, report

    def test_corrupted_backward_fails(self):
        m = EmbeddingModel([3, 4, 2], seed=0)
        x = np.random.default_rng(0).standard_normal((6, 3))
        base = quadratic_probe(x)

        def corrupted(model):
            loss, (w_grads, b_grads), kinks = base(model)
            w_grads[0].flat[0] *= 2.0  # one weight gradient scaled x2
            return loss, (w_grads, b_grads), kinks

        report = grad_check(m, corrupted, tolerance=1e-4, num_coords=param_count(m))
        assert not report.passed

    def test_mlp_quadratic(self):
        m = EmbeddingModel([4, 8, 3], seed=2)
        x = np.random.default_rng(5).standard_normal((10, 4))
        report = grad_check(m, quadratic_probe(x), tolerance=1e-5)
        assert report.passed, report


def param_bytes(model):
    return [a.tobytes() for a in model.weights + model.biases]


def param_count(model):
    return sum(a.size for a in model.weights + model.biases)


def old_binary_checkpoint(model) -> bytes:
    """A checkpoint in the binary format that JSON replaced: magic, layer
    count and dims as int64, then each layer's W and b as float64."""
    parts = [b"MDML1\x00", struct.pack("<q", len(model.layer_dims)),
             struct.pack(f"<{len(model.layer_dims)}q", *model.layer_dims)]
    for w, b in zip(model.weights, model.biases):
        parts += [w.astype("<f8").tobytes(), b.astype("<f8").tobytes()]
    return b"".join(parts)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        m = EmbeddingModel([3, 5, 2], seed=9)
        p = tmp_path / "checkpoint.bin"
        m.save(p)
        back = EmbeddingModel.load(p)
        assert back.layer_dims == m.layer_dims
        for a, b in zip(m.weights + m.biases, back.weights + back.biases):
            assert (a == b).all()

    def test_load_decodes_each_blob_once(self, tmp_path):
        # the weight blobs used to be decoded twice: once for the layer dims,
        # again to copy them into the model
        p = tmp_path / "checkpoint.bin"
        EmbeddingModel([8, 64, 32], seed=9).save(p)
        with mock.patch("magnetdml.model.base64.b64decode", wraps=base64.b64decode) as decode:
            EmbeddingModel.load(p)
        assert decode.call_count == 4  # two weight and two bias blobs

    def test_determinism_of_training_trajectory(self):
        def run():
            m = EmbeddingModel([2, 4, 2], seed=3)
            cfg = ExperimentConfig(learning_rate=0.05)
            x = np.random.default_rng(1).standard_normal((8, 2))
            for it in range(20):
                reps, trace = m.forward(x)
                m.sgd_step(m.backward(trace, 2 * reps), cfg, it)
            return param_bytes(m)

        assert run() == run()

    @pytest.mark.parametrize("cut", [3, 10, 20, 60, -1])
    def test_truncated_rejected(self, tmp_path, cut):
        p = tmp_path / "checkpoint.bin"
        p.write_bytes(EmbeddingModel([3, 5, 2], seed=9).to_bytes()[:cut])
        with pytest.raises(ParseError):
            EmbeddingModel.load(p)

    def test_huge_dims_rejected_before_allocating(self, tmp_path):
        raw = json.loads(EmbeddingModel([3, 5, 2], seed=9).to_bytes())
        raw["weights"][0]["shape"] = [2**40, 3]  # the first layer's rows
        p = tmp_path / "checkpoint.bin"
        p.write_text(json.dumps(raw))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=r"'weights' holds 120 bytes, its shape .* needs"):
                EmbeddingModel.load(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_old_binary_checkpoint_rejected(self, tmp_path):
        p = tmp_path / "checkpoint.bin"
        p.write_bytes(old_binary_checkpoint(EmbeddingModel([3, 5, 2], seed=9)))
        with pytest.raises(ParseError, match="checkpoint.bin: not a model checkpoint"):
            EmbeddingModel.load(p)

    @pytest.mark.parametrize("edit", [
        lambda raw: {**raw, "weights": []},
        lambda raw: {**raw, "weights": raw["weights"][::-1]},  # not a chain
        lambda raw: {**raw, "weights": [{**raw["weights"][0], "shape": [15]}] + raw["weights"][1:]},
        lambda raw: {**raw, "weights": [{"shape": [0, 3], "f8": ""}]},
        lambda raw: {**raw, "biases": raw["biases"][:1]},
        lambda raw: {"weights": raw["weights"]},
        lambda raw: list(raw.values()),
    ], ids=["empty", "broken-chain", "one-d", "zero-dim", "short-biases", "no-biases", "list"])
    def test_bad_layers_rejected(self, tmp_path, edit):
        raw = json.loads(EmbeddingModel([3, 5, 2], seed=9).to_bytes())
        p = tmp_path / "checkpoint.bin"
        p.write_text(json.dumps(edit(raw)))
        with pytest.raises(ParseError, match="checkpoint.bin: not a model checkpoint"):
            EmbeddingModel.load(p)

    def test_deeply_nested_json_rejected(self, tmp_path):
        p = tmp_path / "checkpoint.bin"
        p.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParseError, match="checkpoint.bin: not a model checkpoint"):
            EmbeddingModel.load(p)

    def test_non_finite_weights_rejected(self, tmp_path):
        m = EmbeddingModel([3, 5, 2], seed=9)
        m.biases[1][0] = np.nan
        p = tmp_path / "checkpoint.bin"
        m.save(p)
        with pytest.raises(ParseError, match="checkpoint.bin.*non-finite"):
            EmbeddingModel.load(p)


_CHECKPOINT = EmbeddingModel([3, 4, 2], seed=1).to_bytes()


@settings(max_examples=300, deadline=None)
@given(
    cut=st.integers(0, len(_CHECKPOINT)),
    flips=st.lists(st.tuples(st.integers(0, len(_CHECKPOINT) - 1), st.integers(1, 255)),
                   max_size=4),
)
def test_load_fuzz_loads_or_raises_typed_error(tmp_path_factory, cut, flips):
    raw = bytearray(_CHECKPOINT)
    for pos, mask in flips:
        raw[pos] ^= mask
    p = tmp_path_factory.mktemp("fuzz") / "checkpoint.bin"
    p.write_bytes(bytes(raw[:cut]))
    try:
        model = EmbeddingModel.load(p)
    except (ParseError, ConfigurationError):
        return
    assert all(np.isfinite(a).all() for a in model.weights + model.biases)
    # a file may load and re-export to other bytes (JSON spacing, unused
    # base64 bits), but the re-export reloads to the very arrays it holds
    model.save(p)
    back = EmbeddingModel.load(p)
    assert back.layer_dims == model.layer_dims
    for a, b in zip(model.weights + model.biases, back.weights + back.biases):
        assert a.tobytes() == b.tobytes()
