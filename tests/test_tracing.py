"""The benchmark's tracer (``trainbench/tracing.py``) wraps names in the
package by module and attribute. A refactor that moves or removes one of them
fails here, in the fast suite, rather than in a benchmark run; so does one
that makes a wrapped call count twice or not at all."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_removes(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from trainbench.tracing import TARGETS, Tracer

    # a KeyError here names an attribute the tracer can no longer find
    originals = [owner.__dict__[attr] for owner, attr, _, _ in TARGETS]
    with Tracer():
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr, _, _), original in zip(TARGETS, originals))
    assert all(owner.__dict__[attr] is original
               for (owner, attr, _, _), original in zip(TARGETS, originals))


def test_traced_softmax_counts_each_step_once(monkeypatch):
    # the head is an EmbeddingModel: its steps count under head_sgd_step
    # alone, neither twice nor under the embedding's sgd_step
    monkeypatch.syspath_prepend(str(ROOT))
    from trainbench.tracing import Tracer
    from magnetdml import ExperimentConfig, train
    from test_metrics_pin import COMMON, CONFIGS, pin_data

    iterations = 20
    config = ExperimentConfig(**{**COMMON, **CONFIGS["softmax"], "iterations": iterations})
    with Tracer() as tracer:
        train(config, *pin_data())
    summary = tracer.summary()
    assert (summary["model.sgd_step.calls"] == summary["model.head_sgd_step.calls"]
            == summary["losses.softmax_head.calls"] == iterations)
