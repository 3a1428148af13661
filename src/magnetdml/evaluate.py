"""Evaluation: k-nearest-cluster and soft kNN classification, error rates,
attribute precision curves, and hierarchy recovery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, ContractError
from .index import VARIANCE_FLOOR, class_kmeans, cluster_variance, sqdist


@dataclass
class EvalContext:
    """References for kernel-mass classification: cluster centers (kNC) or
    example representations (soft kNN) with their class tags, the training
    variance and the retrieval size L."""

    references: np.ndarray
    classes: np.ndarray
    sigma2: float
    l: int = 128

    def __post_init__(self):
        self.references = np.atleast_2d(np.asarray(self.references, dtype=np.float64))
        self.classes = np.asarray(self.classes, dtype=np.int64)
        if len(self.references) == 0:
            raise ContractError("evaluation context is empty")
        if self.classes.shape != (len(self.references),) or (self.classes < 0).any():
            raise ConfigurationError("classes must be one non-negative tag per reference")
        if not 0 < self.sigma2 < np.inf:  # NaN fails too
            raise ConfigurationError("sigma2 must be positive and finite")
        if self.l < 1:
            raise ConfigurationError("L must be >= 1")


def knc_context(reps, labels, k, seed, sigma2=None, l=128, small="raise") -> EvalContext:
    """kNC references: the centers of :func:`~magnetdml.index.class_kmeans`. ``sigma2``
    defaults to the variance of ``reps`` about them, as the index computes it."""
    centers, classes, example_cluster = class_kmeans(reps, labels, k, seed, small)
    if sigma2 is None:
        sigma2 = cluster_variance(reps, centers, example_cluster)
    return EvalContext(centers, classes, sigma2, l)


def soft_knn_context(reps, labels, sigma2=None, l=128) -> EvalContext:
    """Soft-kNN references: the examples; ``sigma2`` defaults to :func:`reference_sigma2`."""
    if sigma2 is None:
        sigma2 = reference_sigma2(reps, labels)
    return EvalContext(reps, labels, sigma2, l)


def reference_sigma2(reps, labels) -> float:
    """Soft-kNN reference variance: the variance of representations about
    their class means, (N-1) divisor, floored at ``VARIANCE_FLOOR``."""
    labels = np.asarray(labels)
    total = 0.0
    for c in np.unique(labels):
        members = reps[labels == c]
        resid = members - members.mean(axis=0)
        total += float(np.einsum("ij,ij->i", resid, resid).sum())
    return max(total / max(len(reps) - 1, 1), VARIANCE_FLOOR)


def _stable_nearest(d2: np.ndarray, l: int) -> np.ndarray:
    """``np.argsort(d2, axis=1, kind="stable")[:, :l]``, sorting only a
    partitioned block of l columns. Rows whose l-th value is NaN or tied with
    a column outside the block are sorted in full."""
    if not 0 < l < d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")[:, :l]
    block = np.sort(np.argpartition(d2, l - 1, axis=1)[:, :l], axis=1)
    values = np.take_along_axis(d2, block, axis=1)
    nearest = np.take_along_axis(block, np.argsort(values, axis=1, kind="stable"), axis=1)
    redo = np.flatnonzero((d2 <= values.max(axis=1, keepdims=True)).sum(axis=1) != l)
    nearest[redo] = np.argsort(d2[redo], axis=1, kind="stable")[:, :l]
    return nearest


def _retrieve_scores(ctx: EvalContext, reps: np.ndarray) -> np.ndarray:
    """Per-class kernel mass over each query's L nearest references, (n, C).
    References rank by (squared distance, index): at equal distance the lower
    index is nearer, so ties never make the L nearest ambiguous."""
    reps = np.atleast_2d(np.asarray(reps, dtype=np.float64))
    d2 = sqdist(reps, ctx.references)
    nearest = _stable_nearest(d2, min(ctx.l, len(ctx.references)))
    logits = -np.take_along_axis(d2, nearest, axis=1) * (1.0 / (2.0 * ctx.sigma2))
    mass = np.exp(logits - logits.max(axis=1, keepdims=True))
    mass /= mass.sum(axis=1, keepdims=True)
    scores = np.zeros((len(reps), int(ctx.classes.max()) + 1))
    # flat 1-D indices: the 2-D form of add.at adds its operands in the other
    # order, which changes which NaN payload survives
    cells = np.arange(len(reps))[:, None] * scores.shape[1] + ctx.classes[nearest]
    np.add.at(scores.reshape(-1), cells.ravel(), mass.ravel())
    return scores


def _finite_scores(ctx: EvalContext, reps: np.ndarray) -> np.ndarray:
    """:func:`_retrieve_scores`, refusing scores that are not finite: the
    argmax of a NaN row would name a class."""
    scores = _retrieve_scores(ctx, reps)
    if not np.isfinite(scores).all():
        raise ContractError("classification scores are not finite")
    return scores


def classify_batch(ctx: EvalContext, representations: np.ndarray) -> np.ndarray:
    return _finite_scores(ctx, representations).argmax(axis=1)


def error_rate(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if len(predictions) == 0 or len(predictions) != len(labels):
        raise ContractError("predictions and labels must be non-empty and aligned")
    return float((predictions != labels).mean())


def attribute_precision(
    representations: np.ndarray,
    attributes: Optional[np.ndarray],
    sizes: Sequence[int],
) -> Dict[int, float]:
    """Mean fraction of nearest neighbours sharing each featured attribute.

    For every (example, attribute) incidence and every neighbourhood size n,
    the fraction of the example's n nearest neighbours (self excluded) that
    also feature the attribute; incidences are pooled per size.
    """
    if attributes is None:
        raise ConfigurationError("dataset has no attributes")
    attrs = np.asarray(attributes, dtype=np.float64)
    order = _nearest_others(representations, sizes)

    out = {}
    for size in sizes:
        neigh = order[:, :size]
        # fraction of neighbours featuring each attribute, per example
        frac = attrs[neigh].mean(axis=1)  # (N, A)
        incident = attrs > 0
        if not incident.any():
            raise ConfigurationError("no attribute incidences")
        out[int(size)] = float(frac[incident].mean())
    return out


def attribute_precision_values(representations, attributes, size: int) -> np.ndarray:
    """Per-incidence precision values at one size (for uncertainty estimates)."""
    attrs = np.asarray(attributes, dtype=np.float64)
    frac = attrs[_nearest_others(representations, [size])].mean(axis=1)
    return frac[attrs > 0]


def _nearest_others(representations, sizes: Sequence[int]) -> np.ndarray:
    """Each example's max(sizes) nearest other examples, nearest first."""
    reps = np.atleast_2d(np.asarray(representations, dtype=np.float64))
    if any(s < 1 or s >= len(reps) for s in sizes):
        raise ConfigurationError("neighbourhood sizes must lie in [1, N)")
    d2 = sqdist(reps, reps)
    np.fill_diagonal(d2, np.inf)
    return _stable_nearest(d2, max(sizes, default=1))


def hierarchy_recovery_eval(
    train_representations: np.ndarray,
    train_fine_labels: np.ndarray,
    test_representations: np.ndarray,
    test_fine_labels: np.ndarray,
    sigma2: float,
    l: int = 128,
    method: str = "knc",
    clusters_per_class: int = 1,
    seed: int = 0,
) -> Tuple[float, Optional[float]]:
    """Classify test points against FINE labels of the training set and report
    (error@1, error@5); error@5 is None with fewer than 5 fine classes.

    ``method='knc'`` builds K-means centers per fine class over the training
    representations; ``method='soft_knn'`` uses the examples directly.
    """
    train_fine = np.asarray(train_fine_labels)
    test_fine = np.asarray(test_fine_labels)
    n_classes = int(max(train_fine.max(), test_fine.max())) + 1
    if method == "knc":
        ctx = knc_context(train_representations, train_fine, clusters_per_class, seed, sigma2, l,
                          small="clamp")
    elif method == "soft_knn":
        ctx = soft_knn_context(train_representations, train_fine, sigma2, l)
    else:
        raise ConfigurationError(f"unknown method {method!r}")

    scores = _finite_scores(ctx, test_representations)
    top1 = scores.argmax(axis=1)
    err1 = error_rate(top1, test_fine)
    if n_classes < 5:
        return err1, None
    # stable top-5: ties resolved toward lower class index
    order = np.argsort(-scores, axis=1, kind="stable")[:, :5]
    hit5 = (order == test_fine[:, None]).any(axis=1)
    return err1, float(1.0 - hit5.mean())


class SigmaTracker:
    """Exponential moving average of minibatch variance estimates."""

    def __init__(self, decay: float = 0.99):
        if not 0 <= decay < 1:
            raise ConfigurationError("decay must lie in [0, 1)")
        self.decay = decay
        self.value: Optional[float] = None

    def update(self, sigma2: float) -> float:
        if self.value is None:
            self.value = float(sigma2)
        else:
            self.value = self.decay * self.value + (1 - self.decay) * float(sigma2)
        return self.value
