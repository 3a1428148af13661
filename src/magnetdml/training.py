"""Training: one loop for every objective, reports, benchmarking, resume.

:func:`train` owns what the objectives share: the rng, the metrics rows, the
refresh and checkpoint schedule and the final save. Every ``refresh_interval``
iterations it saves the state (given a ``checkpoint_dir``), then refreshes
from a frozen model snapshot and, for ``seeded`` objectives, an index seed
drawn from the rng. An objective is a step object: its constructor builds the
fresh model and its own state; ``refresh(iteration, snapshot, seed)`` rebuilds
what derives from the snapshot (magnet index, triplet mining representations);
``step(iteration, rng)`` runs one sample/forward/loss/backward/SGD iteration;
``predict(sigma2, iteration)`` classifies the test split for the eval rows and
the report; ``sigma2()`` is the report variance; ``state()`` adds its own keys
to ``training_state.json`` and ``resume(raw)`` copies them into its own arrays.

Resume contract: any state the loop writes resumes byte for byte, under the
config it was saved with; only ``iterations`` may differ, and not fall below
the saved iteration. A state saved at iteration t holds the config, the model
and velocities, the rng before any draw of iteration t and the metrics; off a
refresh boundary it also holds the snapshot parameters and seed of the refresh
in force, which resume rebuilds. ``train(resume_from=dir)`` restores it in place.
"""

from __future__ import annotations

import base64
import binascii
import csv
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import losses as L
from .config import ExperimentConfig
from .data import Dataset, MixtureSpec, generate_mixture, load_dataset, split
from .errors import ConfigurationError, ContractError, ParseError
from .evaluate import (EvalContext, SigmaTracker, attribute_precision, classify_batch, error_rate,
                       knc_context, reference_sigma2, soft_knn_context)
from .index import build_index
from .model import EmbeddingModel
from .sampler import sample_neighbourhood, sample_triplets


@dataclass
class MetricsRow:
    iteration: int
    train_loss: float
    val_error: Optional[float] = None


@dataclass
class TrainResult:
    model: EmbeddingModel
    metrics: List[MetricsRow]
    sigma2: float
    train_data: Dataset
    test_data: Dataset
    step: "_Step"  # the objective that classifies for build_report


def resolve_datasets(config: ExperimentConfig) -> Tuple[Dataset, Dataset]:
    """Load or generate the train/test datasets named by the config."""
    if config.dataset is not None:
        full = load_dataset(config.dataset, attributes_path=config.dataset_attributes)
    elif config.mixture_spec is not None:
        full = generate_mixture(MixtureSpec.from_json(config.mixture_spec), seed=config.seed)
    else:
        raise ConfigurationError("config must name either 'dataset' or 'mixture_spec'")
    return split(full, config.test_fraction, seed=config.seed)


def train(
    config: ExperimentConfig,
    train_data: Optional[Dataset] = None,
    test_data: Optional[Dataset] = None,
    resume_from: Optional[Path] = None,
    checkpoint_dir: Optional[Path] = None,
) -> TrainResult:
    """Run the configured objective; deterministic given config and seed.

    ``checkpoint_dir`` enables resumable state dumps at refresh boundaries
    and at the end; ``resume_from`` (a directory holding such a dump)
    continues an interrupted run with an identical seed stream.
    """
    if train_data is None or test_data is None:
        train_data, test_data = resolve_datasets(config)
    step = _STEPS[config.objective](config, train_data, test_data)
    rng = np.random.default_rng(config.seed)
    start, metrics, refreshed = 0, [], None
    if resume_from is not None:
        start, metrics, refreshed = _load_training_state(resume_from, step, rng)
        if refreshed is not None:
            step.refresh(*refreshed)

    for it in range(start, config.iterations):
        if it % config.refresh_interval == 0 or refreshed is None:
            if it > start and checkpoint_dir is not None:
                _save_training_state(checkpoint_dir, step, rng, it, metrics, refreshed)
            seed = int(rng.integers(2**31)) if step.seeded else None
            refreshed = (it, step.model.snapshot(), seed)
            step.refresh(*refreshed)
        loss, batch = step.step(it, rng)
        if not np.isfinite(loss):
            raise ContractError("non-finite loss at iteration %d; offending batch: %s" % (
                it, json.dumps(batch, default=lambda a: a.tolist())))
        row = MetricsRow(it, loss)
        if (it + 1) % config.eval_interval == 0:
            row.val_error = error_rate(step.predict(None, it), test_data.labels)
        metrics.append(row)

    if checkpoint_dir is not None:
        _save_training_state(checkpoint_dir, step, rng, config.iterations, metrics, refreshed)
    return TrainResult(step.model, metrics, step.sigma2(), train_data, test_data, step)


class _Step:
    """The part of the loop that differs between objectives (module docstring).
    ``step`` returns the loss and the batch to name if the loss is not finite;
    ``predict`` defaults to soft kNN over the training set, built by ``context``."""

    seeded = False  # refresh takes an index seed drawn from the training rng
    metric = "soft_knn"

    def __init__(self, config, train_data, test_data, model=None):
        self.config, self.train_data, self.test_data = config, train_data, test_data
        self.opt = config.optimizer()
        self.model = model or EmbeddingModel(config.layer_dims, seed=config.seed)

    def refresh(self, iteration, snapshot, seed):
        pass

    def predict(self, sigma2, iteration) -> np.ndarray:
        ctx = self.context(sigma2, iteration)
        return classify_batch(ctx, self.model.embed(self.test_data.inputs))

    def context(self, sigma2, iteration) -> EvalContext:
        return soft_knn_context(self.model.embed(self.train_data.inputs), self.train_data.labels,
                                sigma2, l=self.config.eval_l)

    def sigma2(self) -> float:
        return reference_sigma2(self.model.embed(self.train_data.inputs), self.train_data.labels)

    def state(self) -> dict:
        return {}

    def resume(self, raw: dict):
        pass


class _MagnetStep(_Step):
    seeded = True
    metric = "knc"

    def __init__(self, config, train_data, test_data):
        super().__init__(config, train_data, test_data)
        self.loss_config = L.MagnetConfig(alpha=config.alpha)
        self.sigma = SigmaTracker(decay=config.sigma_decay)
        self.loss_cache = np.full(train_data.size, np.nan)

    def refresh(self, iteration, snapshot, seed):
        # shared, not copied: the cache carries over from index to index
        self.index = build_index(snapshot, self.train_data, k=self.config.k, seed=seed,
                                 loss_cache=self.loss_cache)

    def step(self, iteration, rng):
        nb = sample_neighbourhood(self.index, self.train_data, self.config.m, self.config.d, rng)
        reps, trace = self.model.forward(nb.inputs)
        result = L.magnet_minibatch_loss(
            reps, nb.example_clusters, nb.cluster_classes, self.loss_config)
        self.model.sgd_step(self.model.backward(trace, result.rep_grads), self.opt, iteration)
        self.index.update_loss_cache(zip(nb.example_indices, result.example_losses))
        self.sigma.update(result.batch_variance)
        return result.mean_loss, {"examples": nb.example_indices, "clusters": nb.clusters}

    def context(self, sigma2, iteration) -> EvalContext:
        # a seed of its own: evaluation must not consume the training rng stream
        seed = (self.config.seed * 1_000_003 + iteration) % (2**31)
        return knc_context(self.model.embed(self.train_data.inputs), self.train_data.labels,
                           self.config.k, seed, sigma2 or self.sigma.value, l=self.config.eval_l)

    def sigma2(self) -> float:
        # before any minibatch: the variance of the index the report builds
        return self.context(None, -1).sigma2 if self.sigma.value is None else self.sigma.value

    def state(self) -> dict:
        return {"sigma2": self.sigma.value, "loss_cache": _pack(self.loss_cache)}

    def resume(self, raw):
        cache = _unpack(raw["loss_cache"], "loss_cache")
        if cache.shape != self.loss_cache.shape:
            raise ConfigurationError(
                f"the saved loss cache has {len(cache)} entries, the training set "
                f"has {len(self.loss_cache)} examples")
        self.loss_cache[...] = cache
        self.sigma.value = None if raw["sigma2"] is None else float(raw["sigma2"])


class _TripletStep(_Step):
    def refresh(self, iteration, snapshot, seed):
        self.mined_reps = snapshot.embed(self.train_data.inputs)

    def step(self, iteration, rng):
        seeds, pos, neg = sample_triplets(
            self.mined_reps, self.train_data.labels, self.config.batch_size,
            self.config.impostor_fraction, rng)
        stacked = np.concatenate([seeds, pos, neg])
        reps, trace = self.model.forward(self.train_data.inputs[stacked])
        result = L.triplet_loss(*np.split(reps, 3), self.config.alpha)
        rep_grads = np.concatenate(
            [result.seed_grads, result.positive_grads, result.negative_grads])
        self.model.sgd_step(self.model.backward(trace, rep_grads), self.opt, iteration)
        return result.mean_loss, {"triplets": stacked}


class _NcaStep(_Step):
    def __init__(self, config, train_data, test_data):
        super().__init__(config, train_data, test_data)
        labels = train_data.labels
        pairable = [np.flatnonzero(labels == c) for c in range(train_data.class_count)]
        self.pairable = [m for m in pairable if len(m) >= 2]
        if not self.pairable:
            raise ConfigurationError("nca requires a class with at least two examples")

    def step(self, iteration, rng):
        # sample same-class pairs so every example has a peer
        batch = []
        for _ in range(max(self.config.batch_size // 2, 1)):
            members = self.pairable[int(rng.integers(len(self.pairable)))]
            batch.extend(rng.choice(members, size=2, replace=False).tolist())
        batch = np.asarray(batch)
        reps, trace = self.model.forward(self.train_data.inputs[batch])
        result = L.nca_loss(reps, self.train_data.labels[batch])
        self.model.sgd_step(self.model.backward(trace, result.rep_grads), self.opt, iteration)
        return result.mean_loss, {"examples": batch}


class _SoftmaxStep(_Step):
    metric = "argmax_logits"

    def __init__(self, config, train_data, test_data):
        super().__init__(config, train_data, test_data)
        self.head = L.LinearHead.create(
            self.model.output_dim, train_data.class_count, seed=config.seed + 1
        )

    def step(self, iteration, rng):
        n = self.train_data.size
        batch = rng.choice(n, size=min(self.config.batch_size, n), replace=False)
        reps, trace = self.model.forward(self.train_data.inputs[batch])
        loss, rep_grads, grad_w, grad_b = self.head.loss_and_grads(
            reps, self.train_data.labels[batch])
        self.model.sgd_step(self.model.backward(trace, rep_grads), self.opt, iteration)
        self.head.sgd_step(grad_w, grad_b, self.opt, iteration)
        return loss, {"examples": batch}

    def predict(self, sigma2, iteration) -> np.ndarray:
        return self.head.logits(self.model.embed(self.test_data.inputs)).argmax(axis=1)

    def state(self) -> dict:
        return {"head": {k: v.tolist() for k, v in vars(self.head).items()}}

    def resume(self, raw):
        _copy_saved(list(vars(self.head).values()), [raw["head"][k] for k in vars(self.head)],
                    "head arrays")


class _NcmStep(_Step):
    """Full-batch NCM/NCMC. The learned linear map is the single weight of a
    bias-free one-layer embedding model, which ``ncm.w`` shares."""

    metric = "nearest_class_mean"

    def __init__(self, config, train_data, test_data):
        x, y, out_dim = train_data.inputs, train_data.labels, config.layer_dims[-1]
        k = config.ncm_k if config.objective == "ncmc" else 1
        self.ncm = L.NcmModel.fit_centroids(x, y, out_dim, k=k, seed=config.seed)
        model = EmbeddingModel([train_data.dim, out_dim], seed=0)
        model.weights[0] = self.ncm.w
        super().__init__(config, train_data, test_data, model)

    def step(self, iteration, rng):
        loss, grad_w = L.ncm_loss(self.ncm, self.train_data.inputs, self.train_data.labels)
        self.model.sgd_step(([grad_w], [np.zeros_like(self.model.biases[0])]), self.opt, iteration)
        return loss, {"full_batch": True}

    def predict(self, sigma2, iteration) -> np.ndarray:
        return L.ncm_classify(self.ncm, self.test_data.inputs)


_STEPS = {
    "magnet": _MagnetStep,
    "triplet": _TripletStep,
    "nca": _NcaStep,
    "softmax": _SoftmaxStep,
    "ncm": _NcmStep,
    "ncmc": _NcmStep,
}


# -- reports ----------------------------------------------------------------

def build_report(config: ExperimentConfig, result: TrainResult) -> dict:
    """Evaluation report: error rate, confusion counts, optional extras."""
    train_data, test_data = result.train_data, result.test_data
    preds = result.step.predict(result.sigma2, -1)
    c = max(train_data.class_count, test_data.class_count)
    confusion = np.zeros((c, c), dtype=int)
    for t, p in zip(test_data.labels, preds):
        confusion[int(t), int(p)] += 1
    report = {
        "objective": config.objective,
        "metric": result.step.metric,
        "error_rate": error_rate(preds, test_data.labels),
        "confusion": confusion.tolist(),
        "sigma2": result.sigma2,
    }
    if test_data.attributes is not None:
        reps = result.model.embed(test_data.inputs)
        sizes = [s for s in (5, 10, 20) if s < test_data.size]
        report["attribute_precision"] = {
            str(k): v for k, v in attribute_precision(reps, test_data.attributes, sizes).items()
        }
    return report


def write_metrics_csv(metrics: List[MetricsRow], path):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "train_loss", "val_error"])
        for row in metrics:
            writer.writerow([
                row.iteration,
                repr(row.train_loss),
                "" if row.val_error is None else repr(row.val_error),
            ])


# -- benchmarking ------------------------------------------------------------

@dataclass
class BenchRow:
    objective: str
    iterations_to_target: Optional[int]
    asymptotic_error: float
    ratio_to_first: Optional[float] = None


def bench(
    configs: List[ExperimentConfig],
    target_error: float,
    train_data: Optional[Dataset] = None,
    test_data: Optional[Dataset] = None,
) -> List[BenchRow]:
    """Run each config and report the first iteration whose validation error
    reaches the target, plus the final-quarter mean error."""
    rows = []
    for config in configs:
        result = train(config, train_data, test_data)
        evals = [(r.iteration, r.val_error) for r in result.metrics if r.val_error is not None]
        if not evals:
            raise ConfigurationError("bench requires eval_interval <= iterations")
        reached = next((it for it, err in evals if err <= target_error), None)
        tail = evals[-max(1, len(evals) // 4):]
        rows.append(BenchRow(
            objective=config.objective,
            iterations_to_target=reached,
            asymptotic_error=float(np.mean([e for _, e in tail])),
        ))
    base = rows[0].iterations_to_target
    for row in rows:
        if base is not None and row.iterations_to_target is not None and base > 0:
            row.ratio_to_first = row.iterations_to_target / base
    return rows


# -- resumable training state ------------------------------------------------

def _save_training_state(outdir, step, rng, iteration, metrics, refreshed):
    """Write ``checkpoint.bin`` and ``training_state.json``, each through a
    temporary file and ``os.replace``. The state records the checkpoint's
    SHA-256, so a kill between the two writes leaves a pair that fails to load."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    model = step.model
    checkpoint = model.to_bytes()
    state = {
        "config": dataclasses.asdict(step.config),
        "iteration": iteration,
        "rng_state": rng.bit_generator.state,
        "metrics": _pack(np.array(
            [(r.iteration, r.train_loss, np.nan if r.val_error is None else r.val_error)
             for r in metrics], dtype=np.float64).reshape(-1, 3)),
        "w_velocity": [_pack(v) for v in model.w_velocity],
        "b_velocity": [_pack(v) for v in model.b_velocity],
        # on a refresh boundary, resume refreshes afresh
        "refresh": None if refreshed is None or iteration % step.config.refresh_interval == 0
        else {"iteration": refreshed[0], "params": refreshed[1].get_flat_params().tolist(),
              "seed": refreshed[2]},
        **step.state(),
        "checkpoint_sha256": hashlib.sha256(checkpoint).hexdigest(),
    }
    for name, data in (("checkpoint.bin", checkpoint),
                       ("training_state.json", json.dumps(state).encode())):
        tmp = outdir / (name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, outdir / name)


def _load_training_state(outdir, step, rng) -> Tuple[int, List[MetricsRow], Optional[tuple]]:
    """Restore a state written by :func:`_save_training_state` into ``step``
    and ``rng`` in place; return ``(iteration, metrics, refresh)``. A malformed
    file, a missing key, an array that is not a whole blob (a state in the
    old list format included), a refresh record that no run writes or a
    mismatched checkpoint is a ``ParseError``; a state the config cannot
    continue, a ``ConfigurationError`` naming both values."""
    outdir, config, model = Path(outdir), step.config, step.model
    try:
        saved = EmbeddingModel.load(outdir / "checkpoint.bin")
        raw = json.loads((outdir / "training_state.json").read_text())
        digest = hashlib.sha256((outdir / "checkpoint.bin").read_bytes()).hexdigest()
        if raw["checkpoint_sha256"] != digest:
            raise ValueError("checkpoint.bin is not the checkpoint the state was saved with")
        iteration = int(raw["iteration"])
        if iteration > config.iterations:
            raise ConfigurationError(
                f"the saved state is at iteration {iteration}, past the "
                f"config's iterations = {config.iterations}")
        if saved.layer_dims != model.layer_dims:
            raise ConfigurationError(
                f"the saved model has layers {saved.layer_dims}, the config's model "
                f"has {model.layer_dims}")
        for name, value in dataclasses.asdict(config).items():
            if name != "iterations" and raw["config"][name] != value:
                raise ConfigurationError(
                    f"the saved state has {name} = {raw['config'][name]!r}, "
                    f"the config has {name} = {value!r}")
        model.set_flat_params(saved.get_flat_params())
        velocities = [_unpack(v, "w_velocity") for v in raw["w_velocity"]]
        velocities += [_unpack(v, "b_velocity") for v in raw["b_velocity"]]
        _copy_saved(model.w_velocity + model.b_velocity, velocities, "velocities")
        rng.bit_generator.state = raw["rng_state"]
        step.resume(raw)
        refresh = raw["refresh"]
        _check_refresh(refresh, iteration, config.refresh_interval, step.seeded)
        if refresh is not None:
            params = np.asarray(refresh["params"], dtype=np.float64)
            if params.shape != (model.get_flat_params().size,) or not np.isfinite(params).all():
                raise ValueError("'refresh.params' is not a finite parameter vector of the model")
            snapshot = model.snapshot()
            snapshot.set_flat_params(params)
            refresh = (refresh["iteration"], snapshot, refresh["seed"])
        rows = _unpack(raw["metrics"], "metrics")
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"'metrics' has shape {rows.shape}, not (rows, 3)")
        metrics = [MetricsRow(int(it), float(loss), None if np.isnan(err) else float(err))
                   for it, loss, err in rows]
        return iteration, metrics, refresh
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError, ContractError) as exc:
        raise ParseError(f"{outdir}: bad training state: {exc}") from exc


def _check_refresh(refresh, iteration, interval, seeded):
    """A state off a refresh boundary records the refresh in force: the last
    boundary below ``iteration``, with an index seed drawn as
    ``rng.integers(2**31)`` for seeded objectives and none otherwise. Any
    other record is a ValueError."""
    if refresh is None:
        if iteration % interval:
            raise ValueError(f"'refresh' is null at iteration {iteration}, "
                             f"off a multiple of refresh_interval = {interval}")
        return
    at = refresh["iteration"]
    if type(at) is not int or at != iteration - iteration % interval:
        raise ValueError(f"'refresh.iteration' = {at!r} is not the last multiple of "
                         f"refresh_interval = {interval} at or below iteration {iteration}")
    seed = refresh["seed"]
    if seeded and not (type(seed) is int and 0 <= seed < 2**31):
        raise ValueError(f"'refresh.seed' = {seed!r} is not an int in [0, 2**31)")
    if not seeded and seed is not None:
        raise ValueError(f"'refresh.seed' = {seed!r} is not null")


def _pack(array) -> dict:
    """An array as JSON: its shape and base64 of its little-endian float64 bytes."""
    array = np.asarray(array, dtype="<f8")
    return {"shape": list(array.shape), "f8": base64.b64encode(array.tobytes()).decode("ascii")}


def _unpack(blob, key) -> np.ndarray:
    """The array :func:`_pack` wrote; a blob of any other form is a ValueError."""
    if isinstance(blob, list):
        raise ValueError(f"{key!r} is a JSON list: the state is in the old list format, "
                         "which this version no longer reads")
    if not isinstance(blob, dict):
        raise ValueError(f"{key!r} is not an array blob")
    shape = blob["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{key!r} has a bad shape {shape!r}")
    try:
        data = base64.b64decode(blob["f8"], validate=True)
    except binascii.Error as exc:
        raise ValueError(f"{key!r} is not base64: {exc}") from exc
    if len(data) != 8 * math.prod(shape):
        raise ValueError(f"{key!r} holds {len(data)} bytes, its shape {shape} needs "
                         f"{8 * math.prod(shape)}")
    return np.frombuffer(data, dtype="<f8").reshape(shape)


def _copy_saved(arrays, saved, what):
    """Copy saved values into ``arrays`` in place; any other shape is a ValueError."""
    saved = [np.asarray(v, dtype=np.float64) for v in saved]
    if [v.shape for v in saved] != [a.shape for a in arrays]:
        raise ValueError(f"the saved {what} do not match the model")
    for a, v in zip(arrays, saved):
        a[...] = v
