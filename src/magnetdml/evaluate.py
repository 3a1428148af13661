"""Evaluation: k-nearest-cluster and soft kNN classification, error rates,
attribute precision curves, and hierarchy recovery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, ContractError
from .index import VARIANCE_FLOOR, class_kmeans, cluster_variance, sqdist

# Distances per row block handed to _stable_nearest (512 KiB of float64):
# its argpartition indices for a block (int64, as many) take as much, so a
# call holds the one distance array of sqdist and about 1 MiB beside it.
# Smaller blocks cost time in per-block overhead. Everything done to a block
# is per element or per row, so the bytes do not depend on the blocking.
_BLOCK_ELEMENTS = 1 << 16


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
    defaults to the variance of ``reps`` about them (:func:`~magnetdml.index.cluster_variance`)."""
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
    partitioned block of l columns.

    ``np.argpartition(d2, l)`` puts each row's (l+1)-th smallest value at
    column l (NaN sorts last) and no larger value before it, so the first l
    columns hold l values no larger than it. When the largest of them, the
    row's l-th smallest, is not NaN and lies strictly below the value at
    column l (or that value is NaN, so everything outside the block is NaN),
    the block is the row's l smallest values and every other column is
    larger. When those l values are also distinct, any sort of the block
    orders them as the stable sort of the row does, since the stable order
    differs only among equal values. Every other row (its l-th value NaN, tied
    with or above the value at column l, or two equal values in the block)
    is sorted in full."""
    if not 0 < l < d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")[:, :l]
    part = np.argpartition(d2, l, axis=1)
    block = part[:, :l]
    values = np.take_along_axis(d2, block, axis=1)
    order = np.argsort(values, axis=1)
    nearest = np.take_along_axis(block, order, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    last, after = values[:, -1], np.take_along_axis(d2, part[:, l:l + 1], axis=1)[:, 0]
    exact = (last < after) | (np.isnan(after) & ~np.isnan(last))
    exact &= ~(values[:, 1:] == values[:, :-1]).any(axis=1)
    redo = np.flatnonzero(~exact)
    nearest[redo] = np.argsort(d2[redo], axis=1, kind="stable")[:, :l]
    return nearest


def _retrieve_scores(ctx: EvalContext, reps: np.ndarray) -> np.ndarray:
    """Per-class kernel mass over each query's L nearest references, (n, C).
    References rank by (squared distance, index): at equal distance the lower
    index is nearer, so ties never make the L nearest ambiguous."""
    reps = np.atleast_2d(np.asarray(reps, dtype=np.float64))
    if reps.shape[1] != ctx.references.shape[1]:
        raise ConfigurationError(
            f"queries are {reps.shape[1]}-d but references are {ctx.references.shape[1]}-d")
    l = min(ctx.l, len(ctx.references))
    inv_2sigma2 = 1.0 / (2.0 * ctx.sigma2)
    scores = np.zeros((len(reps), int(ctx.classes.max()) + 1))
    d2 = sqdist(reps, ctx.references)
    step = max(1, _BLOCK_ELEMENTS // len(ctx.references))
    for start in range(0, len(reps), step):
        block = d2[start:start + step]
        nearest = _stable_nearest(block, l)
        logits = -np.take_along_axis(block, nearest, axis=1) * inv_2sigma2
        mass = np.exp(logits - logits.max(axis=1, keepdims=True))
        mass /= mass.sum(axis=1, keepdims=True)
        # flat 1-D indices: the 2-D form of add.at adds its operands in the
        # other order, which changes which NaN payload survives
        rows = np.arange(start, start + len(block))
        cells = rows[:, None] * scores.shape[1] + ctx.classes[nearest]
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


def _aligned(predictions, labels) -> Tuple[np.ndarray, np.ndarray]:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if len(predictions) == 0 or len(predictions) != len(labels):
        raise ContractError("predictions and labels must be non-empty and aligned")
    return predictions, labels


def error_rate(predictions, labels) -> float:
    predictions, labels = _aligned(predictions, labels)
    return float((predictions != labels).mean())


def confusion(predictions, labels, c: int) -> Tuple[np.ndarray, float]:
    """The (c, c) counts of (true class, predicted class) pairs, in one
    ``bincount``, and the error rate they give. ``(n - trace) / n`` is the
    correctly rounded k / n, as :func:`error_rate`'s mean is, so the two are
    equal to the bit. A class outside [0, c) is a ContractError: its cell
    index would otherwise fall in another row."""
    predictions, labels = _aligned(predictions, labels)
    try:
        cells = np.ravel_multi_index((labels, predictions), (c, c))
    except ValueError:
        raise ContractError(f"a prediction or label lies outside [0, {c})") from None
    counts = np.bincount(cells, minlength=c * c).reshape(c, c)
    n = len(labels)
    return counts, (n - int(counts.trace())) / n


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
    l = max(sizes, default=1)
    d2 = sqdist(reps, reps)
    np.fill_diagonal(d2, np.inf)
    order = np.empty((len(reps), min(l, len(reps))), dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // len(reps))
    for start in range(0, len(reps), step):
        order[start:start + step] = _stable_nearest(d2[start:start + step], l)
    return order


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
