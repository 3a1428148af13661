"""Finite-difference checks of the gradient every objective trains with.

Each check builds the objective's own step class from ``training._STEPS`` on a
tiny random dataset, fixes one batch of it and hands ``model.grad_check`` a
probe that calls that step's ``objective``: the forward, loss and backward a
training iteration runs, not a copy of them.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .config import ExperimentConfig
from .data import Dataset
from .model import GradCheckReport, grad_check
from .sampler import Neighbourhood
from .training import _STEPS


def check_all_objectives(
    layer_dims=(10, 16, 8),
    tolerance: float = 1e-4,
    seed: int = 0,
    num_coords: int = 200,
) -> Dict[str, GradCheckReport]:
    """Finite-difference checks for every objective on a tiny random dataset.

    All objectives but NCM are checked through an MLP of ``layer_dims``. NCM's
    only trainable parameters are its linear map, so it is checked through
    the one-layer model whose weight is that map, as it trains.
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
        Neighbourhood(np.arange(m), classes, np.arange(m * d), example_clusters, inputs))

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

        def probe(model, step=step, batch=batch):
            loss, grads, kinks, _ = step.objective(model, batch)
            kinks = np.concatenate([k.ravel() for k in kinks] or [np.empty(0)])
            return loss, model.flatten_grads(grads), kinks

        reports[name] = grad_check(step.model, probe, tolerance=tolerance,
                                   num_coords=num_coords, seed=seed)
    return reports
