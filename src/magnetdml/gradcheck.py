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


def _ncm_probe(inputs, labels, ncm):
    # ``model`` is bias-free and its only weight is ``ncm.w``
    def probe(model):
        loss, grad_w = L.ncm_loss(ncm, inputs, labels)
        grads = ([grad_w], [np.zeros_like(model.biases[0])])
        return loss, model.flatten_grads(grads), None
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

    All objectives but NCM are checked through a shared MLP. NCM's only
    trainable parameters are its linear map, so it is checked through a
    one-layer model whose weight is that map.
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

    ncm_rng = np.random.default_rng(seed)
    x = ncm_rng.standard_normal((24, 20))
    y = ncm_rng.integers(0, 3, size=24)
    y[:3] = [0, 1, 2]
    ncm = L.NcmModel.fit_centroids(x, y, out_dim=16, k=2, seed=seed)
    ncm_model = EmbeddingModel([20, 16], seed=seed)
    ncm_model.weights[0] = ncm.w
    reports["ncm"] = grad_check(
        ncm_model, _ncm_probe(x, y, ncm),
        tolerance=tolerance, num_coords=num_coords, seed=seed,
    )
    return reports
