"""Per-class K-means index over current representations.

The index is rebuilt periodically from the model as it stands at the refresh:
forward passes of every input, then K-means++ seeding and Lloyd refinement
per class. It also keeps the per-example loss cache whose per-cluster means
steer seed-cluster sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .errors import ConfigurationError

VARIANCE_FLOOR = 1e-8
KMEANS_MAX_ITERS = 100


def kmeans(points: np.ndarray, k: int, seed: int, history=None):
    """K-means++ seeding followed by up to ``KMEANS_MAX_ITERS`` Lloyd
    iterations, stopping early at an assignment fixpoint.

    Returns (centers (k, d), assignments (n,), objective). Empty clusters are
    reseeded to the point farthest from its assigned center, which keeps the
    objective non-increasing across iterations. Pass a list as ``history`` to
    collect the objective after every assignment step.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(points)
    if not 1 <= k <= n:
        raise ConfigurationError(f"k={k} must lie in [1, {n}]")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(points, k, rng)
    points_sq = (points * points).sum(1)

    assignments = None
    for _ in range(KMEANS_MAX_ITERS):
        d2 = sqdist(points, centers, points_sq)
        new_assignments = d2.argmin(axis=1)
        if history is not None:
            history.append(float(d2[np.arange(n), new_assignments].sum()))
        if assignments is not None and (new_assignments == assignments).all():
            break
        assignments = new_assignments
        for j in range(k):
            members = points[assignments == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            else:
                resid = points - centers[assignments]
                worst = np.einsum("ij,ij->i", resid, resid).argmax()
                centers[j] = points[worst]
    else:
        # out of iterations: the centers moved after the last assignment step
        d2 = sqdist(points, centers, points_sq)
    assignments = d2.argmin(axis=1)
    objective = float(d2[np.arange(n), assignments].sum())
    return centers, assignments, objective


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    resid = points - centers[0]
    closest = np.einsum("ij,ij->i", resid, resid)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j] = points[rng.integers(n)]
            continue
        idx = rng.choice(n, p=closest / total)
        centers[j] = points[idx]
        np.subtract(points, centers[j], out=resid)
        np.minimum(closest, np.einsum("ij,ij->i", resid, resid), out=closest)
    return centers


# Elements of sqdist's buffer for the norm sums of a row block (64 KiB of
# float64), below glibc's 128 KiB mmap threshold: a larger buffer is mapped
# and faulted in afresh on every call (at 3600×30 with one BLAS thread, about
# 363 minor faults and twice the time a call)
_SUM_ELEMENTS = 1 << 13


def sqdist(a: np.ndarray, b: np.ndarray, a_sq: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, clamped at 0:
    ``max(a_sq + b_sq - 2.0 * a @ b.T, 0)``, where ``a_sq``, unless the caller
    gives it, is ``(a * a).sum(1)``.

    The product becomes the result, the one array a call holds: each row
    block's norm sums are formed in a ``_SUM_ELEMENTS`` buffer and the product
    subtracted from them in place. What follows the product is per element, so
    the bytes do not depend on the blocking; a product per block would round
    differently."""
    if a_sq is None:
        a_sq = (a * a).sum(1)
    b_sq = (b * b).sum(1)
    d2 = 2.0 * a @ b.T
    rows = max(1, _SUM_ELEMENTS // max(len(b), 1))
    buf = np.empty((min(rows, len(a)), len(b)))
    for start in range(0, len(a), rows):
        block = d2[start:start + rows]
        sums = np.add(a_sq[start:start + rows, None], b_sq, out=buf[:len(block)])
        np.subtract(sums, block, out=block)
    return np.maximum(d2, 0.0, out=d2)


@dataclass
class ClusterIndex:
    """Cluster centers, assignments and loss cache.

    A cluster is addressed by its row in ``centers``: cluster j of class c is
    row ``c·k + j``, and ``cluster_classes[row]`` is its class.
    ``example_cluster`` maps example index to a row, and ``members[row]``
    lists the examples of that cluster. ``loss_cache`` holds NaN until an
    example is first visited; a cache passed in is shared, not copied, and
    from then on is written only through :meth:`update_loss_cache`, which
    keeps the per-cluster means current.

    Between two rebuilds the centers are fixed, so each cluster's impostor
    order is computed once, on first use, and the two-class check once.
    """

    centers: np.ndarray
    cluster_classes: np.ndarray
    example_cluster: np.ndarray
    loss_cache: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.loss_cache is None:
            self.loss_cache = np.full(len(self.example_cluster), np.nan)
        self.members = [
            np.flatnonzero(self.example_cluster == j) for j in range(self.cluster_count)
        ]
        self.has_two_classes = len(np.unique(self.cluster_classes)) >= 2
        self._means = np.empty(self.cluster_count)
        self._uncached = np.ones(self.cluster_count, dtype=bool)
        self._stale = np.ones(self.cluster_count, dtype=bool)
        self._impostors = {}

    @property
    def cluster_count(self) -> int:
        return len(self.centers)

    def update_loss_cache(self, indices, losses):
        """Overwrite the cached losses of examples ``indices`` with ``losses``
        and mark their clusters' means stale. An example that repeats keeps
        its last loss: numpy leaves unspecified which of several fancy-index
        writes to one element lands, so only each index's last occurrence is
        written."""
        indices = np.asarray(indices, dtype=np.intp)
        losses = np.asarray(losses, dtype=np.float64)
        if losses.shape != indices.shape:
            raise ConfigurationError(
                f"losses of shape {losses.shape} for indices of shape {indices.shape}")
        # an index's first occurrence in the reversed arrays is its last one
        _, first = np.unique(indices[::-1], return_index=True)
        self.loss_cache[indices[::-1][first]] = losses[::-1][first]
        self._stale[self.example_cluster[indices]] = True

    def cluster_mean_losses(self) -> np.ndarray:
        """Mean cached loss per cluster; uncached clusters fall back to the
        global mean cached loss, or 1.0 when nothing is cached anywhere.
        Only the means of clusters written since the last call are recomputed."""
        for row in np.flatnonzero(self._stale):
            vals = self.loss_cache[self.members[row]]
            vals = vals[~np.isnan(vals)]
            self._uncached[row] = not len(vals)
            if len(vals):
                self._means[row] = vals.mean()
        self._stale[:] = False
        means = self._means.copy()
        if self._uncached.any():
            cached = self.loss_cache[~np.isnan(self.loss_cache)]
            means[self._uncached] = float(cached.mean()) if len(cached) else 1.0
        return means

    def nearest_impostor_clusters(self, row: int, count: int):
        """Up to ``count`` rows of clusters of other classes, by ascending
        center distance from cluster ``row``.

        Returns (int array of rows, truncated) where ``truncated`` is set
        when fewer impostor clusters exist than requested. The returned rows
        are a read-only view of the cluster's memoised order.
        """
        order = self._impostors.get(row)
        if order is None:
            candidates = np.flatnonzero(self.cluster_classes != self.cluster_classes[row])
            d2 = np.einsum(
                "ij,ij->i", self.centers[candidates] - self.centers[row],
                self.centers[candidates] - self.centers[row],
            )
            order = self._impostors[row] = candidates[np.argsort(d2, kind="stable")]
            order.flags.writeable = False
        chosen = order[:count]
        return chosen, len(chosen) < count


def class_kmeans(points, labels, k: int, seed: int, small: str):
    """K-means per class, class c seeded with ``seed + c``. Returns (centers,
    cluster_classes, example_cluster), each class's rows together in class
    order. For a class of fewer than k examples, ``small="raise"`` refuses it,
    ``"clamp"`` gives it fewer clusters (none when empty) and ``"pad"`` repeats
    its last center up to k rows (and refuses an empty class)."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if len(points) != len(labels) or (labels < 0).any():
        raise ConfigurationError(
            f"{len(points)} points need a non-negative label each, got {len(labels)}")
    centers, classes = [], []
    example_cluster = np.empty(len(labels), dtype=np.int64)
    for c in range(int(labels.max()) + 1):
        members = np.flatnonzero(labels == c)
        if k > len(members) and small == "raise":
            raise ConfigurationError(f"class {c} has {len(members)} examples, fewer than K={k}")
        if not len(members) and small == "pad":
            raise ConfigurationError(f"class {c} has no examples")
        if len(members):
            c_centers, assign, _ = kmeans(points[members], min(k, len(members)), seed=seed + c)
            if small == "pad":  # repeat the last center up to k rows
                c_centers = c_centers[np.minimum(np.arange(k), len(c_centers) - 1)]
            example_cluster[members] = len(classes) + assign
            centers.append(c_centers)
            classes += [c] * len(c_centers)
    return np.vstack(centers), np.asarray(classes, dtype=np.int64), example_cluster


def cluster_variance(points: np.ndarray, centers: np.ndarray, example_cluster) -> float:
    """Variance of points about their centers, (N-1) divisor, floored at ``VARIANCE_FLOOR``."""
    residual = centers[example_cluster]  # a fresh gather, overwritten in place
    np.subtract(points, residual, out=residual)
    variance = float(np.einsum("ij,ij->i", residual, residual).sum() / max(len(points) - 1, 1))
    return max(variance, VARIANCE_FLOOR)


def build_index(model, dataset: Dataset, k: int = 1, seed: int = 0,
                loss_cache: Optional[np.ndarray] = None) -> ClusterIndex:
    """Embed all inputs with ``model`` as it stands, refusing an embedding
    that is not finite, then K-means per class. The index keeps no reference
    to the model.

    The index shares ``loss_cache`` when one is given, else starts an empty
    (all NaN) one.
    """
    reps = model.finite_embed(dataset.inputs)
    return ClusterIndex(*class_kmeans(reps, dataset.labels, k, seed, small="raise"),
                        loss_cache=loss_cache)
