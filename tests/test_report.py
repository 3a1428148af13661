"""``build_report`` counts the predictions that ``train()`` returns.

``train()`` returns the test split's predictions by an eval at the run's last
iteration: the loop's own when the last iteration is an eval, otherwise those
of one ``predict`` after the loop (no eval at the last iteration, a resume
that starts at the end). The report classifies nothing, not even for a model
stepped or a variance changed after ``train()``, and it must not
change a byte against one built from freshly recomputed predictions, magnet's
kNC index included; its error rate is the last ``val_error``.

The confusion counts and the error rate come from one ``bincount`` in
``evaluate.confusion``; they equal the ``np.add.at`` counts and
``error_rate`` that the report was built from before, to the bit.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magnetdml.training
from magnetdml import Dataset, ExperimentConfig, generate_mixture
from magnetdml.data import MixtureSpec, Mode
from magnetdml.errors import ContractError
from magnetdml.evaluate import confusion, error_rate
from magnetdml.training import build_report, train

from test_metrics_pin import COMMON, CONFIGS, openblas_core, pin_data


def pin_config(objective, **overrides):
    return ExperimentConfig(**{**COMMON, **CONFIGS[objective], **overrides})


def fresh_report(config, result):
    predictions = result.step.predict(config.iterations - 1)
    return build_report(config, dataclasses.replace(result, predictions=predictions))


def refuse_to_classify(monkeypatch, result):
    def refuse(*args):
        raise AssertionError("build_report classified the test split again")

    monkeypatch.setattr(magnetdml.training, "classify_batch", refuse)
    monkeypatch.setattr(result.step, "predict", refuse)


@pytest.mark.parametrize("objective", sorted(CONFIGS))
def test_report_equals_recomputed(objective):
    config = pin_config(objective)
    result = train(config, *pin_data())
    report = build_report(config, result)
    assert report["error_rate"] == result.metrics[-1].val_error  # an eval row
    assert json.dumps(report) == json.dumps(fresh_report(config, result))


@pytest.mark.parametrize("objective", ["magnet", "triplet", "nca"])
def test_report_does_not_classify_again(objective, monkeypatch):
    config = pin_config(objective)
    result = train(config, *pin_data())
    want = json.dumps(build_report(config, result))
    refuse_to_classify(monkeypatch, result)
    assert json.dumps(build_report(config, result)) == want


def unchanged(result):
    return result


def off_eval(config, tmp_path):
    # the last eval is at iteration 99 of 110
    config = dataclasses.replace(config, iterations=110)
    return config, {}, unchanged


def resumed_at_end(config, tmp_path):
    train(config, *pin_data(), checkpoint_dir=tmp_path)
    return config, {"resume_from": tmp_path}, unchanged


def stepped_after_train(config, tmp_path):
    def step(result):
        model = result.step.model
        reps, trace = model.forward(result.step.train_data.inputs[:4])
        model.sgd_step(model.backward(trace, np.ones_like(reps)), config, 0)
        return result

    return config, {}, step


def sigma2_changed(config, tmp_path):
    return config, {}, lambda result: dataclasses.replace(result, sigma2=2.0 * result.sigma2)


FALLBACKS = {f.__name__: f for f in (off_eval, resumed_at_end, stepped_after_train, sigma2_changed)}


@pytest.mark.parametrize("objective", ["magnet", "triplet", "softmax", "ncmc"])
@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallbacks_classify_again(objective, case, monkeypatch, tmp_path):
    # train() predicts once after its loop when the loop did not at the last
    # iteration; the report then classifies nothing, so a model stepped or a
    # variance changed after train() leaves its counts as train() made them
    config, resume, change = FALLBACKS[case](pin_config(objective), tmp_path)
    calls, step_class = [], magnetdml.training._STEPS[objective]
    predict = step_class.predict

    def counting(step, iteration):
        calls.append(iteration)
        return predict(step, iteration)

    with monkeypatch.context() as patch:
        patch.setattr(step_class, "predict", counting)
        result = train(config, *pin_data(), **resume)
    loop_evals = [] if case == "resumed_at_end" else list(range(19, config.iterations, 20))
    after_loop = [] if loop_evals[-1:] == [config.iterations - 1] else [config.iterations - 1]
    assert calls == loop_evals + after_loop
    want = fresh_report(config, result)
    result = change(result)
    refuse_to_classify(monkeypatch, result)
    want["sigma2"] = result.sigma2
    assert json.dumps(build_report(config, result)) == json.dumps(want)


def test_magnet_report_is_its_final_eval():
    # the last eval's kNC index draws the K-means seed of the last iteration,
    # so predicting there again gives its predictions
    config = pin_config("magnet")
    result = train(config, *pin_data())
    report = build_report(config, result)
    preds = result.step.predict(config.iterations - 1)
    assert np.array_equal(result.predictions, preds)
    assert report["error_rate"] == float((preds != result.step.test_data.labels).mean())


@pytest.mark.parametrize("objective", ["magnet", "triplet"])
def test_resumed_report_matches_uninterrupted(objective, tmp_path):
    config = pin_config(objective)
    result = train(config, *pin_data(), checkpoint_dir=tmp_path)
    resumed = train(config, *pin_data(), resume_from=tmp_path)
    assert json.dumps(build_report(config, resumed)) == json.dumps(build_report(config, result))


@pytest.mark.parametrize("objective", ["nca", "softmax"])
def test_confusion_matches_loop_with_a_class_train_lacks(objective):
    spec = MixtureSpec(classes=[[Mode([3.0 * c, 0.0], 1.0, 30)] for c in range(3)])
    full = generate_mixture(spec, seed=3)
    # class 2 is only in the test split
    train_data = Dataset(full.inputs[full.labels < 2][::2], full.labels[full.labels < 2][::2])
    test_data = Dataset(full.inputs[1::2], full.labels[1::2])
    config = ExperimentConfig(**{**COMMON, **CONFIGS[objective], "layer_dims": [2, 8, 4],
                                 "iterations": 40})
    result = train(config, train_data, test_data)
    report = build_report(config, result)
    preds = result.step.predict(config.iterations - 1)
    confusion = np.zeros((3, 3), dtype=int)
    for t, p in zip(test_data.labels, preds):
        confusion[int(t), int(p)] += 1
    assert report["confusion"] == confusion.tolist()
    assert sum(report["confusion"][2]) == np.count_nonzero(test_data.labels == 2)


# sha256 of json.dumps(build_report(...)) on the pin data, recorded when the
# report still counted the confusion with np.add.at and took error_rate. Like
# the metrics.csv pins they hold on the Haswell, SkylakeX and Cooperlake
# OpenBLAS kernels; on Sandybridge and Nehalem magnet and ncmc differ, and on
# Katmai ncm too.
REPORT_SHA256 = {
    "magnet": "14f6ab9f29f7e2a18d975e88c376007105edd206db58387e4d87d99aff7d552f",
    "nca": "5233043f2e2993fbe409e7a6fafb64c74665149fc7b1891b1e73e0477cc93f9b",
    "ncm": "2c4abd8170cb38e53e74447afbf53a73260a1269dd4eff48a8d1adbc2578153d",
    "ncmc": "f20ac386bd3b17b776ba162aca5ab1c125d8ac713427413c75b7846888ec04cb",
    "softmax": "a336926a546ce06dedef6b6146f5ca0364ff0455a77efb4b7e9168056798b11f",
    "triplet": "6cfb1e7536e56938e631c6c713d70b69bac7f5da36f3ab0f233a5034ab6a6a18",
}


@pytest.mark.parametrize("objective", sorted(CONFIGS))
def test_report_bytes_pinned(objective):
    config = pin_config(objective)
    report = json.dumps(build_report(config, train(config, *pin_data())))
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256[objective], (
        f"OPENBLAS_VERBOSE=2 reports this kernel as {openblas_core()!r}")


def add_at_confusion(preds, labels, c):
    counts = np.zeros((c, c), dtype=int)
    np.add.at(counts, (labels, preds), 1)
    return counts


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 300), c=st.integers(1, 12))
def test_confusion_equals_add_at_and_error_rate(data, n, c):
    # predictions only reach the first `predicted` classes, so the rest are
    # absent from them, as a class that only the test split holds is
    predicted = data.draw(st.integers(1, c))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    labels = rng.integers(c, size=n)
    preds = np.where(rng.random(n) < data.draw(st.floats(0, 1)), labels % predicted,
                     rng.integers(predicted, size=n))
    counts, error = confusion(preds, labels, c)
    assert counts.tolist() == add_at_confusion(preds, labels, c).tolist()
    assert repr(error) == repr(error_rate(preds, labels))


@pytest.mark.parametrize("bad", [-1, 4])
def test_prediction_outside_the_classes_raises(bad):
    labels = np.array([0, 1, 2, 3, 1])
    preds = np.array([0, 1, 2, 3, bad])
    # 1 * 4 + 4 and 1 * 4 - 1 are cells of rows 2 and 0: neither may be counted
    with pytest.raises(ContractError, match=r"outside \[0, 4\)"):
        confusion(preds, labels, 4)


ALIGNED = "^predictions and labels must be non-empty and aligned$"


@pytest.mark.parametrize("edit, match", [
    (lambda preds: np.r_[-1, preds[1:]], r"outside \[0, 4\)"),
    (lambda preds: np.r_[4, preds[1:]], r"outside \[0, 4\)"),
    (lambda preds: preds[:0], ALIGNED),
    (lambda preds: preds[:2], ALIGNED),
], ids=["minus-one", "class-count", "empty", "misaligned"])
def test_report_refuses_bad_predictions(edit, match):
    config = pin_config("nca")
    result = train(config, *pin_data())
    result = dataclasses.replace(result, predictions=edit(result.predictions))
    with pytest.raises(ContractError, match=match):
        build_report(config, result)
