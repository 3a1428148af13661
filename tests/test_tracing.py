"""The benchmark's tracer (``trainbench/tracing.py``) wraps names in the
package by module and attribute. A refactor that moves or removes one of them
fails here, in the fast suite, rather than in a benchmark run."""

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
