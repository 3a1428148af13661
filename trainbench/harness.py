"""Closed-loop training benchmark: one client, one training run at a time.

A pass trains every objective of a workload on one dataset through the steps
of ``magnetdml train``: parse_config -> load_dataset + split ->
train(checkpoint_dir=out) -> write_metrics_csv -> model.save -> build_report.
Untraced passes give the end-to-end metrics; traced passes, each paired with
an untraced pass on the same dataset, give the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import magnetdml.data
import magnetdml.training
from magnetdml.config import parse_config
from magnetdml.errors import ContractError
from magnetdml.model import EmbeddingModel
from trainbench import tracing, workloads
from trainbench.run import THREAD_VARS

END_TO_END = {
    "setup_s": "s",
    "iters_per_s": "1/s",
    "report_s": "s",
    "asymptotic_val_error": "fraction",
    "peak_rss_mb": "MB",
}
# at least this many set-up probes per run, one after each pass
SETUP_PROBES = 9
# build_report takes tens of milliseconds on magnet-ref, so it is called up to
# REPORT_REPEATS times, stopping once the calls have taken REPORT_BUDGET_S.
REPORT_REPEATS = 5
REPORT_BUDGET_S = 0.2
# Chance on ten classes is 0.9; a working objective stays far below this.
MAX_VAL_ERROR = 0.5
PROBE = Path(__file__).with_name("setup_probe.py")


class OutputMismatch(Exception):
    """A training output is malformed or differs from an earlier identical run."""


@dataclass
class Outcome:
    """One objective trained once on one dataset."""

    objective: str
    iterations: int = 0
    train_s: float = 0.0
    report_s: float = 0.0
    metrics_sha256: str = ""
    asymptotic_error: float = 0.0
    error: Optional[str] = None
    # the outputs are wrong, as opposed to missing because training aborted
    wrong: bool = False


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    correct: bool = True
    hashes: Dict[Tuple[int, str], str] = field(default_factory=dict)
    quality: Dict[Tuple[int, str], float] = field(default_factory=dict)

    def record(self, data_index: int, outcomes: List[Outcome]) -> bool:
        """Count the outcomes of one pass; True when every objective succeeded."""
        ok = True
        for o in outcomes:
            self.attempted += 1
            key = (data_index, o.objective)
            if o.error is None and self.hashes.setdefault(key, o.metrics_sha256) != o.metrics_sha256:
                o.error = f"metrics.csv differs from the earlier run on dataset {data_index}"
                o.wrong = True
            self.correct &= not o.wrong
            if o.error is not None:
                self.failed += 1
                self.problems.append(f"{o.objective}: {o.error}")
                ok = False
            else:
                self.quality[key] = o.asymptotic_error
        return ok


def asymptotic_error(metrics) -> float:
    """Mean val_error over the final quarter of evals, as ``bench`` defines it."""
    evals = [row.val_error for row in metrics if row.val_error is not None]
    if not evals:
        raise OutputMismatch("metrics hold no evaluation")
    return float(np.mean(evals[-max(1, len(evals) // 4):]))


def check_outputs(config, result, report: dict, outdir: Path):
    lines = (outdir / "metrics.csv").read_text().splitlines()
    if lines[0] != "iter,train_loss,val_error" or len(lines) != config.iterations + 1:
        raise OutputMismatch(f"metrics.csv has {len(lines) - 1} rows, expected {config.iterations}")
    saved = EmbeddingModel.load(outdir / "checkpoint.bin")
    if not all(np.array_equal(a, b) for a, b in zip(saved.weights, result.model.weights)):
        raise OutputMismatch("checkpoint.bin does not reload to the trained weights")
    if not 0.0 <= report["error_rate"] <= 1.0:
        raise OutputMismatch(f"report error rate {report['error_rate']} outside [0, 1]")


def run_objective(config_path: Path, outdir: Path) -> Outcome:
    config = parse_config(config_path)
    outcome = Outcome(config.objective, iterations=config.iterations)
    full = magnetdml.data.load_dataset(config.dataset)
    train_data, test_data = magnetdml.data.split(full, config.test_fraction, seed=config.seed)
    # as the train command does; _train_ncm never creates checkpoint_dir
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        result = magnetdml.training.train(config, train_data, test_data, checkpoint_dir=outdir)
    except ContractError as exc:
        outcome.error = f"training aborted: {exc}"[:300]
        return outcome
    outcome.train_s = time.perf_counter() - start
    metrics_path = outdir / "metrics.csv"
    magnetdml.training.write_metrics_csv(result.metrics, metrics_path)
    result.model.save(outdir / "checkpoint.bin")
    report_times = []
    while len(report_times) < REPORT_REPEATS and sum(report_times) < REPORT_BUDGET_S:
        start = time.perf_counter()
        report = magnetdml.training.build_report(config, result)
        report_times.append(time.perf_counter() - start)
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    outcome.report_s = statistics.median(report_times)
    outcome.metrics_sha256 = hashlib.sha256(metrics_path.read_bytes()).hexdigest()
    try:
        check_outputs(config, result, report, outdir)
        outcome.asymptotic_error = asymptotic_error(result.metrics)
        if outcome.asymptotic_error > MAX_VAL_ERROR:
            raise OutputMismatch(f"asymptotic val error {outcome.asymptotic_error:.3f} > {MAX_VAL_ERROR}")
    except OutputMismatch as exc:
        outcome.error, outcome.wrong = str(exc), True
    return outcome


def run_pass(configs: Dict[str, Path], passdir: Path) -> List[Outcome]:
    try:
        return [run_objective(path, passdir / objective) for objective, path in configs.items()]
    finally:
        shutil.rmtree(passdir, ignore_errors=True)


def probe_setup(src: Path, config_path: Path) -> float:
    done = subprocess.run(
        [sys.executable, str(PROBE), str(src), str(config_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


@dataclass
class Measurement:
    """Samples and counts of one benchmark run."""

    tally: Tally
    samples: Dict[str, List[float]]
    units: Dict[str, str]
    metrics: Dict[str, float]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool, src: Path,
            workdir: Path, scale: float = 1.0) -> Measurement:
    inputs = workloads.write_inputs(workload, seed, workdir, scale)
    tally = Tally()
    samples: Dict[str, List[float]] = {"iters_per_s": [], "report_s": []}
    traced_ips: List[float] = []
    layers: List[Dict[str, float]] = []

    def timed_pass(n: int, tracer: Optional[tracing.Tracer] = None):
        data_index = n % len(inputs)
        with tracer or contextlib.nullcontext():
            outcomes = run_pass(inputs[data_index], workdir / f"pass-{n}")
        if not tally.record(data_index, outcomes):
            return None
        return (sum(o.iterations for o in outcomes) / sum(o.train_s for o in outcomes),
                sum(o.report_s for o in outcomes))

    setup = samples["setup_s"] = []
    probe_config = next(iter(inputs[0].values()))
    # Untraced runs train every dataset at least once, for the mean error,
    # and compare the hashes whenever the cycle repeats a dataset. Traced
    # runs compare each traced pass with its untraced pair.
    min_passes = 1 if trace else len(inputs)
    start = time.perf_counter()
    n = 0
    while n < min_passes or time.perf_counter() - start < seconds:
        # a traced pass and its untraced pair alternate which runs first
        for traced in ((n % 2 == 1, n % 2 == 0) if trace else (False,)):
            tracer = tracing.Tracer() if traced else None
            timing = timed_pass(n, tracer)
            if timing is None:
                continue
            if traced:
                traced_ips.append(timing[0])
                layers.append(tracer.summary())
            else:
                samples["iters_per_s"].append(timing[0])
                samples["report_s"].append(timing[1])
        if not trace:
            # spread the set-up samples over the run, which the machine's
            # speed drift would otherwise move together
            setup.append(probe_setup(src, probe_config))
        n += 1
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(probe_setup(src, probe_config))

    if not samples["iters_per_s"]:
        tally.correct = False
    if trace:
        units = {**tracing.metric_units(), "trace_overhead_frac": "fraction"}
        for key in tracing.metric_units():
            samples[key] = [layer[key] for layer in layers]
        metrics = {key: _median(samples[key]) for key in tracing.metric_units()}
        untraced = _median(samples["iters_per_s"])
        metrics["trace_overhead_frac"] = (
            1.0 - _median(traced_ips) / untraced if traced_ips and untraced else 0.0)
    else:
        units = dict(END_TO_END)
        metrics = {
            "setup_s": _median(setup),
            "iters_per_s": _median(samples["iters_per_s"]),
            "report_s": _median(samples["report_s"]),
            "asymptotic_val_error": float(np.mean(list(tally.quality.values()))) if tally.quality else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples["asymptotic_val_error"] = list(tally.quality.values())
        if len(tally.quality) != sum(map(len, inputs)):
            tally.correct = False
    return Measurement(tally, samples, units, metrics)


def report_lines(workload: str, m: Measurement) -> List[str]:
    lines = [f"workload {workload}"]
    for name, value in m.metrics.items():
        count = len(m.samples.get(name, [])) or 1
        lines.append(f"  {name:<44} {value:>14.6g} {m.units[name]:<8} n={count}")
    for problem in m.tally.problems:
        lines.append(f"  failed: {problem}")
    return lines


def result_line(m: Measurement) -> str:
    return json.dumps({
        "correct": m.tally.correct,
        "attempted": m.tally.attempted,
        "failed": m.tally.failed,
        "metrics": {name: {"value": value, "unit": m.units[name]} for name, value in m.metrics.items()},
    })


def main(args, root: Path) -> int:
    print("env " + json.dumps(environment()))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    base = root / ".trainbench_work"
    base.mkdir(exist_ok=True)
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{args.seed}-", dir=base))
        try:
            m = measure(name, args.seed, args.seconds, bool(args.trace), root / "src", workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("\n".join(report_lines(name, m)))
        print(result_line(m), flush=True)
    return 0
