"""Per-class K-means index over current representations.

The index is rebuilt periodically from a frozen model snapshot: forward passes
of every input, then K-means++ seeding and Lloyd refinement per class. It also
keeps the per-example loss cache whose per-cluster means steer seed-cluster
sampling, and the global variance of representations about their centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    assignments = None
    for _ in range(KMEANS_MAX_ITERS):
        d2 = sqdist(points, centers)
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
    d2 = sqdist(points, centers)
    assignments = d2.argmin(axis=1)
    objective = float(d2[np.arange(n), assignments].sum())
    return centers, assignments, objective


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = np.einsum("ij,ij->i", points - centers[0], points - centers[0])
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j] = points[rng.integers(n)]
            continue
        idx = rng.choice(n, p=closest / total)
        centers[j] = points[idx]
        d2 = np.einsum("ij,ij->i", points - centers[j], points - centers[j])
        np.minimum(closest, d2, out=closest)
    return centers


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, clamped at 0."""
    return np.maximum(
        (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * a @ b.T, 0.0
    )


@dataclass
class ClusterIndex:
    """Cluster centers, assignments, loss cache and global variance.

    A cluster is addressed by its row in ``centers``: cluster j of class c is
    row ``c·k + j``, and ``cluster_classes[row]`` is its class.
    ``example_cluster`` maps example index to a row, and ``members[row]``
    lists the examples of that cluster. ``loss_cache`` holds NaN until an
    example is first visited.
    """

    centers: np.ndarray
    cluster_classes: np.ndarray
    example_cluster: np.ndarray
    variance: float
    loss_cache: np.ndarray = field(init=False)

    def __post_init__(self):
        self.loss_cache = np.full(len(self.example_cluster), np.nan)
        self.members = [
            np.flatnonzero(self.example_cluster == j) for j in range(self.cluster_count)
        ]

    @property
    def cluster_count(self) -> int:
        return len(self.centers)

    def update_loss_cache(self, example_losses):
        """Overwrite cached losses for the given (example index, loss) pairs."""
        for idx, loss in example_losses:
            self.loss_cache[idx] = loss

    def cluster_mean_losses(self) -> np.ndarray:
        """Mean cached loss per cluster; uncached clusters fall back to the
        global mean cached loss, or 1.0 when nothing is cached anywhere."""
        cached = self.loss_cache[~np.isnan(self.loss_cache)]
        fallback = float(cached.mean()) if len(cached) else 1.0
        means = np.empty(self.cluster_count)
        for j, members in enumerate(self.members):
            vals = self.loss_cache[members]
            vals = vals[~np.isnan(vals)]
            means[j] = vals.mean() if len(vals) else fallback
        return means

    def nearest_impostor_clusters(self, row: int, count: int):
        """Up to ``count`` rows of clusters of other classes, by ascending
        center distance from cluster ``row``.

        Returns (int array of rows, truncated) where ``truncated`` is set
        when fewer impostor clusters exist than requested.
        """
        candidates = np.flatnonzero(self.cluster_classes != self.cluster_classes[row])
        d2 = np.einsum(
            "ij,ij->i", self.centers[candidates] - self.centers[row],
            self.centers[candidates] - self.centers[row],
        )
        chosen = candidates[np.argsort(d2, kind="stable")][:count]
        return chosen, len(chosen) < count


def build_index(model, dataset: Dataset, k: int = 1, seed: int = 0) -> ClusterIndex:
    """Forward all inputs against a frozen snapshot, then K-means per class.

    The loss cache starts empty (all NaN). Variance uses the (N-1) divisor
    and is floored at ``VARIANCE_FLOOR``.
    """
    reps = model.embed(dataset.inputs)
    centers = []
    example_cluster = np.empty(dataset.size, dtype=np.int64)
    for c in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == c)
        if k > len(members):
            raise ConfigurationError(
                f"class {c} has {len(members)} examples, fewer than K={k}"
            )
        c_centers, assign, _ = kmeans(reps[members], k, seed=seed + c)
        centers.append(c_centers)
        example_cluster[members] = c * k + assign

    centers = np.vstack(centers)
    residual = reps - centers[example_cluster]
    n = dataset.size
    variance = float(np.einsum("ij,ij->i", residual, residual).sum() / max(n - 1, 1))
    variance = max(variance, VARIANCE_FLOOR)
    return ClusterIndex(
        centers=centers,
        cluster_classes=np.repeat(np.arange(dataset.class_count), k),
        example_cluster=example_cluster,
        variance=variance,
    )
