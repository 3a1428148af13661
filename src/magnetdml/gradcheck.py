"""Finite-difference checks of the gradient every objective trains with.

:func:`grad_check` compares a step's analytic gradients to central finite
differences, perturbing one weight or bias element at a time in place and
restoring it. :func:`check_all_objectives` builds each objective's own step
class from ``training._STEPS`` on a tiny random dataset, fixes one batch of it
and checks that step's ``objective``: the forward, loss and backward a
training iteration runs, not a copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .config import ExperimentConfig
from .data import Dataset
from .model import EmbeddingModel
from .sampler import Neighbourhood
from .training import _STEPS


STEP = 1e-5  # the central difference's step


@dataclass
class GradCheckReport:
    max_relative_error: float
    checked: int
    skipped: int
    passed: bool


def grad_check(
    model: EmbeddingModel,
    objective: Callable[[EmbeddingModel], tuple],
    tolerance: float = 1e-4,
    num_coords: int = 200,
    seed: int = 0,
    kink_margin: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients to central finite differences.

    ``objective(model)`` returns a step objective's ``(loss, (w_grads,
    b_grads), kinks, ...)``, where ``kinks`` is a list of arrays of hinge and
    rectifier arguments; a coordinate is skipped when perturbing it moves one
    of them across (or within ``kink_margin`` of) 0, since the loss is not
    differentiable there. Coordinates are drawn over the weights, then the
    biases; each is perturbed by ``STEP`` in place, in the model's own array,
    and restored before the next, or before an exception leaves.
    """
    rng = np.random.default_rng(seed)
    _, (w_grads, b_grads), _ = objective(model)[:3]
    params, grads = [*model.weights, *model.biases], [*w_grads, *b_grads]
    ends = np.cumsum([p.size for p in params])
    coords = rng.choice(ends[-1], size=min(num_coords, ends[-1]), replace=False)

    max_rel = 0.0
    checked = skipped = 0
    for c in coords:
        k = int(np.searchsorted(ends, c, side="right"))
        param, i = params[k], c - ends[k] + params[k].size
        value = param.flat[i]
        try:
            param.flat[i] = value + STEP
            loss_p, _, kinks_p = objective(model)[:3]
            param.flat[i] = value - STEP
            loss_m, _, kinks_m = objective(model)[:3]
        finally:
            param.flat[i] = value
        if _crosses_kink(kinks_p, kinks_m, kink_margin):
            skipped += 1
            continue
        fd = (loss_p - loss_m) / (2 * STEP)
        an = grads[k].flat[i]
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
        max_rel = max(max_rel, rel)
        checked += 1
    return GradCheckReport(
        max_relative_error=max_rel,
        checked=checked,
        skipped=skipped,
        passed=checked > 0 and max_rel < tolerance,
    )


def _crosses_kink(kinks_p, kinks_m, margin) -> bool:
    """Whether a kink argument that the perturbation moves changes sign or
    lies within ``margin`` of 0; one that it leaves in place does not count."""
    for kp, km in zip(kinks_p, kinks_m):
        near = (np.abs(kp) < margin) | (np.abs(km) < margin)
        if ((kp != km) & (near | (np.sign(kp) != np.sign(km)))).any():
            return True
    return False


def check_all_objectives(
    layer_dims=(10, 16, 8),
    tolerance: float = 1e-4,
    seed: int = 0,
) -> Dict[str, GradCheckReport]:
    """Finite-difference checks for every objective on a tiny random dataset.

    All objectives but NCM are checked through an MLP of ``layer_dims``. NCM's
    only trainable parameter is its linear map, the weight of its step's
    one-layer model, so it is checked through that model, as it trains.
    """
    rng = np.random.default_rng(seed)
    mlp = dict(layer_dims=list(layer_dims), seed=seed)
    cases = {}  # report name -> (config, dataset, batch)

    # magnet: 4 clusters x 4 examples, alternating classes
    m, d = 4, 4
    inputs = rng.standard_normal((m * d, layer_dims[0]))
    classes, example_clusters = np.array([0, 1, 0, 1]), np.repeat(np.arange(m), d)
    cases["magnet"] = (
        ExperimentConfig(objective="magnet", alpha=0.7, **mlp),
        Dataset(inputs, classes[example_clusters]),
        Neighbourhood(np.arange(m), classes, np.arange(m * d), example_clusters))

    count = 8
    cases["triplet"] = (
        ExperimentConfig(objective="triplet", alpha=0.5, **mlp),
        Dataset(rng.standard_normal((3 * count, layer_dims[0])), np.zeros(3 * count)),
        {"triplets": np.arange(3 * count)})

    n = 16
    labels = rng.integers(0, 3, size=n)
    labels[:6] = [0, 0, 1, 1, 2, 2]  # guarantee peers
    for name in ("nca", "softmax"):
        cases[name] = (ExperimentConfig(objective=name, **mlp),
                       Dataset(rng.standard_normal((n, layer_dims[0])), labels),
                       {"examples": np.arange(n)})

    ncm_rng = np.random.default_rng(seed)
    x = ncm_rng.standard_normal((24, 20))
    y = ncm_rng.integers(0, 3, size=24)
    y[:3] = [0, 1, 2]
    cases["ncm"] = (ExperimentConfig(objective="ncmc", ncm_k=2, layer_dims=[20, 16], seed=seed),
                    Dataset(x, y), {"full_batch": True})

    reports: Dict[str, GradCheckReport] = {}
    for name, (config, data, batch) in cases.items():
        step = _STEPS[config.objective](config, data, data)
        reports[name] = grad_check(step.model, lambda m: step.objective(m, batch),
                                   tolerance=tolerance, seed=seed)
    return reports
