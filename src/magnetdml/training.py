"""Training: one loop for every objective, reports, benchmarking, resume.

:func:`train` owns what the objectives share: the rng, the metrics rows, the
refresh and checkpoint schedule and the final save. Every ``refresh_interval``
iterations it writes the state (given a ``checkpoint_dir``) as it takes it,
then refreshes the objective from the current model. An objective is a step
object: its constructor builds the fresh model and its own state;
``refresh(rng)`` rebuilds what derives from the model's embedding of the
training set (the magnet index, from an index seed it draws from the rng;
the triplet miner); an iteration is ``sample(rng)``, every rng draw, then
``objective(model, batch) -> (loss, grads, kinks, out)``, pure given the
model and the batch and the one that ``grad-check`` checks, then, if the loss,
the model's gradients and what ``non_finite(out)`` screens (the softmax
head's gradients) are finite, the SGD step and ``after(batch, out, iteration)``;
``predict(iteration)`` classifies the test split for the eval rows and the
report; ``sigma2()`` is the report variance, magnet's the moving average of its
batches' variance that its ``after`` keeps; ``state()`` adds its own keys to
``training_state.json`` and ``resume(raw)`` copies them into its own arrays.
:func:`train` returns the predictions of an eval at the run's last iteration,
made after the loop if the loop did not make them, and the report counts them.

Resume contract: any state the loop writes resumes byte for byte, under the
config it was saved with; only ``iterations`` may differ, and not fall below
the saved iteration. A state is the one file ``training_state.json``, and it
is always at a refresh boundary; the ``checkpoint.bin`` written after it is
the current model in the state's blob form, an export for
``EmbeddingModel.load``; resume never reads it. A state saved at iteration t
holds the config, the model and velocities, the rng before any draw of
iteration t and the t metrics rows. A run that ends off a boundary leaves
the state the loop wrote at the last boundary, and its final save exports
the model only, so its resume re-runs at most ``refresh_interval - 1``
iterations. ``train(resume_from=dir)`` restores it in place. ``eval``
resumes a run's last state the same way, saving nothing, with its dataset in
place of the test split.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import losses as L
from .config import ExperimentConfig
from .data import Dataset, MixtureSpec, generate_mixture, load_dataset, split
from .errors import ConfigurationError, ContractError, ParseError
from .evaluate import (EvalContext, attribute_precision, classify_batch, confusion, error_rate,
                       knc_context, reference_sigma2, soft_knn_context)
from .index import build_index
from .model import _SCREENED, EmbeddingModel, _pack, _unpack, replace_file
from .sampler import TripletMiner, sample_neighbourhood, sample_triplets


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
    step: "_Step"  # the objective, which holds the train and test splits
    predictions: np.ndarray  # the test split's, by an eval at the last iteration


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

    ``checkpoint_dir`` enables resumable state dumps: the state is taken and
    written at every refresh boundary but the run's first, and at the first
    too when it is the last before the end. The final save exports the
    model, and writes the end's state first when the run ends on a boundary.
    ``resume_from`` (a directory holding such a dump) continues an
    interrupted run with an identical seed stream.
    """
    if train_data is None or test_data is None:
        train_data, test_data = resolve_datasets(config)
    step = _STEPS[config.objective](config, train_data, test_data)
    rng = np.random.default_rng(config.seed)
    start, metrics, preds = 0, [], None
    if resume_from is not None:
        start, metrics = _load_training_state(resume_from, step, rng)

    for it in range(start, config.iterations):
        if it % config.refresh_interval == 0:
            # the run's first state is skipped unless no later boundary supersedes it
            if checkpoint_dir is not None and (
                    it > start or it + config.refresh_interval > config.iterations):
                _save_training_state(checkpoint_dir, step, rng, it,
                                     _dump_state(step, rng, it, metrics))
            step.refresh(rng)
        loss = step.step(it, rng)
        row = MetricsRow(it, loss)
        if (it + 1) % config.eval_interval == 0:
            preds = step.predict(it)
            row.val_error = error_rate(preds, test_data.labels)
        metrics.append(row)

    if checkpoint_dir is not None:
        end = config.iterations
        state = None if end % config.refresh_interval else _dump_state(step, rng, end, metrics)
        _save_training_state(checkpoint_dir, step, rng, end, state)
    if preds is None or config.iterations % config.eval_interval:
        preds = step.predict(config.iterations - 1)  # the loop made no eval at the end
    return TrainResult(step.model, metrics, step.sigma2(), step, preds)


class _Step:
    """The part of the loop that differs between objectives (module docstring).
    ``step`` returns the loss. A batch is a dict naming its examples
    (magnet's, a :class:`Neighbourhood` that ``named`` turns into one), which
    ``step`` names in a ``ContractError`` before any SGD step if the loss, a
    gradient of the model or what ``non_finite`` names is not finite; numpy's
    overflow warnings are off inside ``objective``, so that the screen, not a
    warning, reports the fault. The kinks are the unflattened hinge and
    rectifier arguments, which only grad-check reads. ``refresh(rng)``
    may draw from the training rng; only magnet's does. ``predict`` defaults
    to soft kNN over the training set, built by ``context``. The contexts
    and the magnet index embed through ``EmbeddingModel.finite_embed``."""

    metric = "soft_knn"

    def __init__(self, config, train_data, test_data, model=None):
        self.config, self.train_data, self.test_data = config, train_data, test_data
        if test_data.dim != train_data.dim:
            raise ConfigurationError(f"the test set has dimension {test_data.dim}, "
                                     f"the training set has {train_data.dim}")
        self.model = model or EmbeddingModel(config.layer_dims, seed=config.seed)
        # the report's confusion is over every class either split holds
        self.class_count = max(train_data.class_count, test_data.class_count)

    def refresh(self, rng):
        pass

    def step(self, iteration, rng):
        batch = self.sample(rng)
        with np.errstate(**_SCREENED):
            loss, grads, _, out = self.objective(self.model, batch)
        fault = "loss" if not np.isfinite(loss) else (
            _non_finite_gradient(grads) or self.non_finite(out))
        if fault is not None:
            raise ContractError("non-finite %s at iteration %d; offending batch: %s" % (
                fault, iteration, json.dumps(self.named(batch), default=lambda a: a.tolist())))
        self.model.sgd_step(grads, self.config, iteration)
        self.after(batch, out, iteration)
        return loss

    def non_finite(self, out) -> Optional[str]:
        return None  # what ``after`` applies from ``out``: only softmax's has any

    def after(self, batch, out, iteration):
        pass

    def named(self, batch) -> dict:
        return batch

    def predict(self, iteration) -> np.ndarray:
        with np.errstate(**_SCREENED):
            ctx = self.context(iteration)
            return classify_batch(ctx, self.model.finite_embed(self.test_data.inputs))

    def context(self, iteration) -> EvalContext:
        return soft_knn_context(self.model.finite_embed(self.train_data.inputs),
                                self.train_data.labels, l=self.config.eval_l)

    def sigma2(self) -> float:
        return reference_sigma2(self.model.finite_embed(self.train_data.inputs),
                                self.train_data.labels)

    def state(self) -> dict:
        return {}

    def resume(self, raw: dict):
        pass


class _MagnetStep(_Step):
    metric = "knc"

    def __init__(self, config, train_data, test_data):
        super().__init__(config, train_data, test_data)
        self.variance: Optional[float] = None  # the moving average of batch_variance
        self.loss_cache = np.full(train_data.size, np.nan)

    def refresh(self, rng):
        # shared, not copied: the cache carries over from index to index
        self.index = build_index(self.model, self.train_data, k=self.config.k,
                                 seed=int(rng.integers(2**31)), loss_cache=self.loss_cache)

    def sample(self, rng):
        return sample_neighbourhood(self.index, self.config.m, self.config.d, rng)

    def objective(self, model, nb):
        reps, trace = model.forward(self.train_data.inputs[nb.example_indices])
        result = L.magnet_minibatch_loss(
            reps, nb.example_clusters, nb.cluster_classes, self.config.alpha)
        kinks = trace.preacts[:-1] + [result.hinge_args]
        return result.mean_loss, model.backward(trace, result.rep_grads), kinks, result

    def after(self, nb, result, iteration):
        self.index.update_loss_cache(nb.example_indices, result.example_losses)
        v, decay = result.batch_variance, self.config.sigma_decay
        self.variance = v if self.variance is None else decay * self.variance + (1 - decay) * v

    def named(self, nb):
        return {"examples": nb.example_indices, "clusters": nb.clusters}

    def context(self, iteration) -> EvalContext:
        # a seed of its own: evaluation must not consume the training rng stream
        seed = (self.config.seed * 1_000_003 + iteration) % (2**31)
        return knc_context(self.model.finite_embed(self.train_data.inputs), self.train_data.labels,
                           self.config.k, seed, self.variance, l=self.config.eval_l)

    def sigma2(self) -> float:
        # before any minibatch: the variance of the last eval's kNC index
        if self.variance is None:
            return self.context(self.config.iterations - 1).sigma2
        return self.variance

    def state(self) -> dict:
        return {"sigma2": self.variance, "loss_cache": _pack(self.loss_cache)}

    def resume(self, raw):
        cache = _unpack(raw["loss_cache"], "loss_cache")
        if cache.shape != self.loss_cache.shape:
            raise ConfigurationError(
                f"the saved loss cache has {len(cache)} entries, the training set "
                f"has {len(self.loss_cache)} examples")
        if not (np.isnan(cache) | (cache >= 0) & (cache < np.inf)).all():
            raise ValueError("'loss_cache' holds a value that is not NaN or finite and >= 0")
        sigma2 = raw["sigma2"]
        if sigma2 is not None and not (type(sigma2) is float and 0 < sigma2 < math.inf):
            raise ValueError(f"'sigma2' = {sigma2!r} is not null or a positive finite float")
        self.loss_cache[...] = cache
        self.variance = sigma2


class _TripletStep(_Step):
    def refresh(self, rng):
        self.miner = TripletMiner(self.model.embed(self.train_data.inputs), self.train_data.labels)

    def sample(self, rng):
        triplets = sample_triplets(
            self.miner, self.config.batch_size, self.config.impostor_fraction, rng)
        return {"triplets": np.concatenate(triplets)}

    def objective(self, model, batch):
        reps, trace = model.forward(self.train_data.inputs[batch["triplets"]])
        result = L.triplet_loss(*np.split(reps, 3), self.config.alpha)
        rep_grads = np.concatenate(
            [result.seed_grads, result.positive_grads, result.negative_grads])
        kinks = trace.preacts[:-1] + [result.hinge_args]
        return result.mean_loss, model.backward(trace, rep_grads), kinks, result


class _NcaStep(_Step):
    def __init__(self, config, train_data, test_data):
        super().__init__(config, train_data, test_data)
        labels = train_data.labels
        pairable = [np.flatnonzero(labels == c) for c in range(train_data.class_count)]
        self.pairable = [m for m in pairable if len(m) >= 2]
        if not self.pairable:
            raise ConfigurationError("nca requires a class with at least two examples")

    def sample(self, rng):
        # sample same-class pairs so every example has a peer
        batch = []
        for _ in range(max(self.config.batch_size // 2, 1)):
            members = self.pairable[int(rng.integers(len(self.pairable)))]
            batch.extend(rng.choice(members, size=2, replace=False).tolist())
        return {"examples": np.asarray(batch)}

    def objective(self, model, batch):
        reps, trace = model.forward(self.train_data.inputs[batch["examples"]])
        result = L.nca_loss(reps, self.train_data.labels[batch["examples"]])
        return result.mean_loss, model.backward(trace, result.rep_grads), trace.preacts[:-1], result


class _SoftmaxStep(_Step):
    metric = "argmax_logits"

    def __init__(self, config, train_data, test_data):
        super().__init__(config, train_data, test_data)
        self.head = L.LinearHead([self.model.output_dim, train_data.class_count], config.seed + 1)

    def sample(self, rng):
        n = self.train_data.size
        return {"examples": rng.choice(n, size=min(self.config.batch_size, n), replace=False)}

    def objective(self, model, batch):
        reps, trace = model.forward(self.train_data.inputs[batch["examples"]])
        loss, rep_grads, head_grads = self.head.loss_and_grads(
            reps, self.train_data.labels[batch["examples"]])
        return loss, model.backward(trace, rep_grads), trace.preacts[:-1], head_grads

    def non_finite(self, head_grads):
        fault = _non_finite_gradient(head_grads)
        return fault and "head " + fault

    def after(self, batch, head_grads, iteration):
        self.head.sgd_step(head_grads, self.config, iteration)

    def predict(self, iteration) -> np.ndarray:
        with np.errstate(**_SCREENED):
            logits = self.head.embed(self.model.embed(self.test_data.inputs))
        if not np.isfinite(logits).all():
            raise ContractError("softmax logits are not finite")
        return logits.argmax(axis=1)

    def state(self) -> dict:
        return {"head": self.head.state()}

    def resume(self, raw):
        self.head.restore(raw["head"], "head")


class _NcmStep(_Step):
    """Full-batch NCM/NCMC. The learned linear map is the weight of a one-layer
    embedding model whose bias stays zero; the model owns it, and the loss
    and the classifier read it from there. ``centroids`` are the fixed (C, K,
    d) raw-input class centroids (K = 1 for NCM)."""

    metric = "nearest_class_mean"

    def __init__(self, config, train_data, test_data):
        k = config.ncm_k if config.objective == "ncmc" else 1
        self.centroids = L.ncm_centroids(train_data.inputs, train_data.labels, k, config.seed)
        model = EmbeddingModel([train_data.dim, config.layer_dims[-1]], seed=config.seed)
        super().__init__(config, train_data, test_data, model)

    def sample(self, rng):
        return {"full_batch": True}

    def objective(self, model, batch):
        loss, grad_w = L.ncm_loss(model.weights[0], self.centroids,
                                  self.train_data.inputs, self.train_data.labels)
        return loss, ([grad_w], [np.zeros_like(model.biases[0])]), [], None

    def predict(self, iteration) -> np.ndarray:
        with np.errstate(**_SCREENED):
            return L.ncm_classify(self.model.weights[0], self.centroids, self.test_data.inputs)


def _non_finite_gradient(grads) -> Optional[str]:
    """Name the first weight or bias gradient, by layer, that holds an entry
    that is not finite; None when every entry is finite."""
    # A screen of a few µs: an entry that is not finite makes the sum of
    # squares inf or NaN, and so may a finite entry above 1e154, which the
    # loop then clears. np.vdot, unlike np.dot, warns of no overflow.
    if math.isfinite(sum([float(np.vdot(g, g)) for g in (*grads[0], *grads[1])])):
        return None
    for layer, pair in enumerate(zip(*grads)):
        for kind, g in zip(("weight", "bias"), pair):
            if not np.isfinite(g).all():
                bad = g.size - np.count_nonzero(np.isfinite(g))
                return f"gradient (layer {layer} {kind}, {bad} of {g.size} entries)"
    return None


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
    """Evaluation report: error rate, confusion counts, optional extras. It
    counts ``result.predictions``, the test split's by an eval at the run's
    last iteration, and classifies nothing."""
    test_data = result.step.test_data
    counts, error = confusion(result.predictions, test_data.labels, result.step.class_count)
    report = {
        "objective": config.objective,
        "metric": result.step.metric,
        "error_rate": error,
        "confusion": counts.tolist(),
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


def bench(configs: List[ExperimentConfig], target_error: float) -> List[BenchRow]:
    """Run each config and report the first iteration whose validation error
    reaches the target, plus the final-quarter mean error."""
    rows = []
    for config in configs:
        result = train(config)
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

def _dump_state(step, rng, iteration, metrics) -> bytes:
    """The state at ``iteration``, a refresh boundary, as the bytes of
    ``training_state.json``."""
    return json.dumps({
        "config": dataclasses.asdict(step.config),
        "iteration": iteration,
        "rng_state": rng.bit_generator.state,
        "metrics": _pack(np.array(
            [(r.iteration, r.train_loss, np.nan if r.val_error is None else r.val_error)
             for r in metrics], dtype=np.float64).reshape(-1, 3)),
        **step.model.state(),
        **step.state(),
    }).encode()


def _save_training_state(outdir, step, rng, iteration, state):
    """Write ``state``, the :func:`_dump_state` at ``iteration``, to
    ``training_state.json``, the resume point, then the model at
    ``iteration`` to ``checkpoint.bin``, an export for
    ``EmbeddingModel.load``, each with :func:`~magnetdml.model.replace_file`:
    the ``.tmp`` file's blocks are allocated, the bytes written, and the file
    renamed over the old one, which is the commit point. A ``None`` state, at
    an end off a refresh boundary, writes the export only, beside the state
    the loop saved at the last boundary. A kill at any point leaves a whole
    state, between the writes beside an older export. Nothing is fsynced:
    a power cut soon after a save can leave a state of zeros, which resume
    refuses with a ``ParseError``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, data in (("training_state.json", state), ("checkpoint.bin", step.model.to_bytes())):
        if data is not None:
            replace_file(outdir / name, data)


@contextlib.contextmanager
def _reading_state(outdir):
    """Yield the JSON of ``outdir/training_state.json``; a malformed file or
    value is a ``ParseError`` naming ``outdir``, in the with-block too."""
    outdir = Path(outdir)
    try:
        yield json.loads((outdir / "training_state.json").read_text())
    except ConfigurationError:
        raise
    except (LookupError, TypeError, ValueError, OverflowError, RecursionError,
            ContractError) as exc:
        raise ParseError(f"{outdir}: bad training state: {exc}") from exc


def load_run_config(run_dir) -> ExperimentConfig:
    """The config of the state in ``run_dir``, which must be the run's last
    refresh boundary: resuming it re-runs fewer than ``refresh_interval``."""
    with _reading_state(run_dir) as raw:
        config, iteration = ExperimentConfig(**raw["config"]), raw["iteration"]
        if iteration + config.refresh_interval <= config.iterations:
            raise ConfigurationError(
                f"{run_dir}: the saved state is at iteration {iteration} of "
                f"{config.iterations}; finish the run with `train --resume` first")
    return config


def _load_training_state(outdir, step, rng) -> Tuple[int, List[MetricsRow]]:
    """Restore a state written by :func:`_save_training_state` into ``step``
    and ``rng`` in place; return ``(iteration, metrics)``. Only
    ``training_state.json`` is read; ``EmbeddingModel.restore`` copies in the
    model and the softmax head. A malformed file, a missing key, an array
    that is not a whole blob of the expected shape (a state in the old list
    format included), a non-finite model array, an iteration that is not
    an int at or above 0 or is off a refresh boundary, metrics other than one
    row per iteration before it, a non-finite ``train_loss``, a ``val_error``
    that is neither NaN nor in [0, 1] or an rng state that is not a whole
    state of the run's generator is a ``ParseError``; a state the config
    cannot continue, a ``ConfigurationError`` naming both values."""
    config = step.config
    with _reading_state(outdir) as raw:
        iteration = raw["iteration"]
        if type(iteration) is not int or iteration < 0:
            raise ValueError(f"'iteration' = {iteration!r} is not an int at or above 0")
        if iteration > config.iterations:
            raise ConfigurationError(
                f"the saved state is at iteration {iteration}, past the "
                f"config's iterations = {config.iterations}")
        step.model.restore(raw, "model")
        for name, value in dataclasses.asdict(config).items():
            if name != "iterations" and raw["config"][name] != value:
                raise ConfigurationError(
                    f"the saved state has {name} = {raw['config'][name]!r}, "
                    f"the config has {name} = {value!r}")
        if iteration % config.refresh_interval:
            raise ValueError(f"'iteration' = {iteration} is not a multiple of "
                             f"refresh_interval = {config.refresh_interval}")
        _check_rng_state(raw["rng_state"], rng.bit_generator.state["bit_generator"])
        rng.bit_generator.state = raw["rng_state"]
        step.resume(raw)
        rows = _unpack(raw["metrics"], "metrics", (iteration, 3))
        if not np.array_equal(rows[:, 0], np.arange(iteration)):
            raise ValueError(f"'metrics' rows are not iterations 0 to {iteration - 1}")
        if not np.isfinite(rows[:, 1]).all():
            raise ValueError("'metrics' holds a train_loss that is not finite")
        if not (np.isnan(rows[:, 2]) | (rows[:, 2] >= 0) & (rows[:, 2] <= 1)).all():
            raise ValueError("'metrics' holds a val_error that is not NaN or in [0, 1]")
        metrics = [MetricsRow(int(it), float(loss), None if np.isnan(err) else float(err))
                   for it, loss, err in rows]
        return iteration, metrics


def _check_rng_state(saved, name):
    """A saved state of another generator, or with a number numpy would
    truncate or refuse, is a ValueError: resume would go on another stream."""
    if saved["bit_generator"] != name:
        raise ValueError(f"'rng_state.bit_generator' = {saved['bit_generator']!r} is not {name!r}")
    for key, value, bits in (("state.state", saved["state"]["state"], 128),
                             ("state.inc", saved["state"]["inc"], 128),
                             ("has_uint32", saved["has_uint32"], 1),
                             ("uinteger", saved["uinteger"], 32)):
        if not (type(value) is int and 0 <= value < 2**bits):
            raise ValueError(f"'rng_state.{key}' = {value!r} is not an int in [0, 2**{bits})")

