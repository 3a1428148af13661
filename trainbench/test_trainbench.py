"""Self-tests of the training benchmark at a tiny iteration count.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q trainbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from magnetdml.errors import ContractError
from trainbench import harness, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SCALE = 0.02


def _measure(workload, trace, tmp_path):
    return harness.measure(workload, seed=3, seconds=0.01, trace=trace, src=ROOT / "src",
                           workdir=tmp_path, scale=SCALE)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_workload_emits_every_end_to_end_metric(workload, tmp_path):
    m = _measure(workload, False, tmp_path)
    result = json.loads(harness.result_line(m))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # every dataset at least once, every objective each time
    spec = workloads.WORKLOADS[workload]
    assert result["attempted"] >= spec.datasets * len(spec.objectives)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the same seed again gives the same inputs and the same metrics.csv
    (tmp_path / "again").mkdir()
    again = workloads.write_inputs(workload, 3, tmp_path / "again", SCALE)[0]
    assert m.tally.record(0, harness.run_pass(again, tmp_path / "again" / "pass"))
    assert m.tally.correct


def test_traced_run_matches_untraced_and_removes_wrappers(tmp_path):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing.TARGETS]
    m = _measure("magnet-ref", True, tmp_path)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    # the traced passes' metrics.csv hashes equalled their untraced pairs'
    assert m.tally.correct and m.tally.failed == 0
    result = json.loads(harness.result_line(m))
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {**tracing.metric_units(), "trace_overhead_frac": "fraction"}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("model.forward", "index.build_index", "index.kmeans", "sampler.sample_neighbourhood",
                 "losses.magnet_minibatch_loss", "evaluate.classify_batch", "training.train"):
        assert metrics[name + ".calls"] > 0 and metrics[name + ".s"] > 0
    assert metrics["index.kmeans.lloyd_iters"] >= metrics["index.kmeans.calls"]
    assert metrics["losses.triplet_loss.calls"] == 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [("training.train", 0.0, 10.0, -1), ("model.forward", 1.0, 3.0, 0),
                    ("index.build_index", 4.0, 8.0, 0), ("index.kmeans", 5.0, 6.0, 2)]
    summary = tracer.summary()
    assert summary["training.train.s"] == 10.0
    assert summary["training.loop_self.s"] == 4.0
    assert summary["index.build_index.self_s"] == 3.0
    assert summary["index.kmeans.calls"] == 1


def test_hash_mismatch_is_a_failure():
    tally = harness.Tally()
    assert tally.record(0, [harness.Outcome("magnet", metrics_sha256="a")])
    assert not tally.record(0, [harness.Outcome("magnet", metrics_sha256="b")])
    assert tally.failed == 1 and not tally.correct


def test_failed_output_check_makes_the_run_incorrect(tmp_path, monkeypatch):
    configs = workloads.write_inputs("magnet-ref", 0, tmp_path, SCALE)[0]
    monkeypatch.setattr(harness, "MAX_VAL_ERROR", 0.0)
    tally = harness.Tally()
    assert not tally.record(0, harness.run_pass(configs, tmp_path / "pass"))
    assert tally.failed == 1 and not tally.correct


def test_non_finite_abort_counts_as_failed(tmp_path, monkeypatch):
    configs = workloads.write_inputs("magnet-ref", 0, tmp_path, SCALE)[0]

    def diverge(*args, **kwargs):
        raise ContractError("non-finite loss at iteration 0")

    monkeypatch.setattr(harness.magnetdml.training, "train", diverge)
    outcomes = harness.run_pass(configs, tmp_path / "pass")
    tally = harness.Tally()
    assert not tally.record(0, outcomes)
    assert tally.failed == 1 and tally.correct
    assert "non-finite" in outcomes[0].error


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "trainbench", tmp_path / "trainbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "trainbench/run.py", "--workload", "magnet-ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **tracing.metric_units(), "trace_overhead_frac": "fraction"}
