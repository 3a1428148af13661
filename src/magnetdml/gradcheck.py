"""Gradient-fidelity probes for every objective, driving model.grad_check."""

from __future__ import annotations

from typing import Dict

import numpy as np

from . import losses as L
from .model import EmbeddingModel, GradCheckReport, grad_check


def _magnet_probe(inputs, example_clusters, cluster_classes, cfg):
    def probe(model):
        reps, trace = model.forward(inputs)
        result = L.magnet_minibatch_loss(reps, example_clusters, cluster_classes, cfg)
        grads = model.backward(trace, result.rep_grads)
        kinks = np.concatenate([trace.hidden_preacts(), result.hinge_args])
        return result.mean_loss, model.flatten_grads(grads), kinks
    return probe


def _triplet_probe(inputs, count, alpha):
    def probe(model):
        reps, trace = model.forward(inputs)
        r_s, r_p, r_n = reps[:count], reps[count : 2 * count], reps[2 * count :]
        result = L.triplet_loss(r_s, r_p, r_n, alpha)
        rep_grads = np.concatenate(
            [result.seed_grads, result.positive_grads, result.negative_grads]
        )
        grads = model.backward(trace, rep_grads)
        kinks = np.concatenate([trace.hidden_preacts(), result.hinge_args])
        return result.mean_loss, model.flatten_grads(grads), kinks
    return probe


def _nca_probe(inputs, labels):
    def probe(model):
        reps, trace = model.forward(inputs)
        result = L.nca_loss(reps, labels)
        grads = model.backward(trace, result.rep_grads)
        return result.mean_loss, model.flatten_grads(grads), trace.hidden_preacts()
    return probe


def _softmax_probe(inputs, labels, head):
    def probe(model):
        reps, trace = model.forward(inputs)
        loss, rep_grads, _, _ = head.loss_and_grads(reps, labels)
        grads = model.backward(trace, rep_grads)
        return loss, model.flatten_grads(grads), trace.hidden_preacts()
    return probe


def check_all_objectives(
    layer_dims=(10, 16, 8),
    tolerance: float = 1e-4,
    seed: int = 0,
    num_coords: int = 200,
) -> Dict[str, GradCheckReport]:
    """Finite-difference checks for every objective on a tiny random dataset.

    NCM is checked separately over its own linear map (its only trainable
    parameters); all other objectives are checked through a shared MLP.
    """
    rng = np.random.default_rng(seed)
    reports: Dict[str, GradCheckReport] = {}

    model = EmbeddingModel(layer_dims, seed=seed)
    in_dim = layer_dims[0]

    # magnet: 4 clusters x 4 examples, alternating classes
    m, d = 4, 4
    inputs = rng.standard_normal((m * d, in_dim))
    example_clusters = np.repeat(np.arange(m), d)
    cluster_classes = np.array([0, 1, 0, 1])
    reports["magnet"] = grad_check(
        model,
        _magnet_probe(inputs, example_clusters, cluster_classes, L.MagnetConfig(alpha=0.7)),
        tolerance=tolerance, num_coords=num_coords, seed=seed,
    )

    count = 8
    reports["triplet"] = grad_check(
        model,
        _triplet_probe(rng.standard_normal((3 * count, in_dim)), count, alpha=0.5),
        tolerance=tolerance, num_coords=num_coords, seed=seed,
    )

    n = 16
    labels = rng.integers(0, 3, size=n)
    labels[:6] = [0, 0, 1, 1, 2, 2]  # guarantee peers
    reports["nca"] = grad_check(
        model,
        _nca_probe(rng.standard_normal((n, in_dim)), labels),
        tolerance=tolerance, num_coords=num_coords, seed=seed,
    )

    head = L.LinearHead.create(layer_dims[-1], 3, seed=seed + 1)
    reports["softmax"] = grad_check(
        model,
        _softmax_probe(rng.standard_normal((n, in_dim)), labels, head),
        tolerance=tolerance, num_coords=num_coords, seed=seed,
    )

    reports["ncm"] = _check_ncm(tolerance=tolerance, seed=seed, num_coords=num_coords)
    return reports


def _check_ncm(tolerance, seed, num_coords, step=1e-5):
    rng = np.random.default_rng(seed)
    n, in_dim, out_dim = 24, 20, 16
    x = rng.standard_normal((n, in_dim))
    y = rng.integers(0, 3, size=n)
    y[:3] = [0, 1, 2]
    ncm = L.NcmModel.fit_centroids(x, y, out_dim=out_dim, k=2, seed=seed)

    _, grad_w = L.ncm_loss(ncm, x, y)
    flat = grad_w.ravel()
    coords = rng.choice(flat.size, size=min(num_coords, flat.size), replace=False)
    max_rel = 0.0
    base = ncm.w.copy()
    for c in coords:
        i, j = divmod(int(c), base.shape[1])
        ncm.w = base.copy()
        ncm.w[i, j] += step
        loss_p, _ = L.ncm_loss(ncm, x, y)
        ncm.w = base.copy()
        ncm.w[i, j] -= step
        loss_m, _ = L.ncm_loss(ncm, x, y)
        fd = (loss_p - loss_m) / (2 * step)
        rel = abs(flat[c] - fd) / max(abs(flat[c]), abs(fd), 1e-6)
        max_rel = max(max_rel, rel)
    ncm.w = base
    return GradCheckReport(
        max_relative_error=max_rel,
        checked=len(coords),
        skipped=0,
        passed=max_rel < tolerance,
    )
