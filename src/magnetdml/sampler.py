"""Minibatch construction: loss-proportional neighbourhood sampling for the
cluster-overlap objective, and mined triplets for the baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .data import Dataset
from .errors import ConfigurationError
from .index import ClusterIndex


@dataclass
class Neighbourhood:
    """One sampled minibatch: a seed cluster plus nearest impostor clusters,
    D examples each. ``example_clusters`` maps batch rows to cluster slots."""

    clusters: List[Tuple[int, int]]
    cluster_classes: np.ndarray
    example_indices: np.ndarray  # (M*D,) indices into the dataset
    example_clusters: np.ndarray  # (M*D,) values in [0, M)
    inputs: np.ndarray
    replacement_fallback: bool = False
    truncated: bool = False


def seed_distribution(index: ClusterIndex) -> np.ndarray:
    """Probabilities over index clusters, proportional to per-cluster mean
    cached loss; uniform when every cached loss is zero."""
    means = index.cluster_mean_losses()
    total = means.sum()
    if total <= 0:
        return np.full(index.cluster_count, 1.0 / index.cluster_count)
    return means / total


def sample_neighbourhood(
    index: ClusterIndex, dataset: Dataset, m: int, d: int, rng
) -> Neighbourhood:
    """Sample a seed cluster from the loss-proportional distribution, retrieve
    its m-1 nearest impostor clusters and draw d examples per cluster
    uniformly (without replacement; with replacement when a cluster has fewer
    than d members)."""
    if m < 2 or d < 1:
        raise ConfigurationError("need m >= 2 and d >= 1")
    if len(np.unique(index.cluster_classes)) < 2:
        raise ConfigurationError("neighbourhood sampling needs at least two classes")
    rng = np.random.default_rng(rng)
    probs = seed_distribution(index)
    seed_row = int(rng.choice(index.cluster_count, p=probs))
    seed_cluster = index.clusters[seed_row]
    impostors, truncated = index.nearest_impostor_clusters(seed_cluster, m - 1)
    clusters = [seed_cluster] + impostors

    fallback = False
    example_indices, example_clusters = [], []
    for slot, cluster in enumerate(clusters):
        members = index.members(cluster)
        if len(members) >= d:
            chosen = rng.choice(members, size=d, replace=False)
        else:
            chosen = rng.choice(members, size=d, replace=True)
            fallback = True
        example_indices.extend(int(i) for i in chosen)
        example_clusters.extend([slot] * d)

    example_indices = np.asarray(example_indices)
    return Neighbourhood(
        clusters=clusters,
        cluster_classes=np.asarray([index.cluster_classes[index.cluster_row(cl)] for cl in clusters]),
        example_indices=example_indices,
        example_clusters=np.asarray(example_clusters),
        inputs=dataset.inputs[example_indices],
        replacement_fallback=fallback,
        truncated=truncated,
    )


def sample_triplets(
    representations: np.ndarray,
    labels: np.ndarray,
    count: int,
    impostor_fraction: float,
    rng,
):
    """Mined triplets: uniform seeds, uniform same-class positives, negatives
    uniform over the nearest ``impostor_fraction`` quantile of other-class
    examples by current representation distance (1.0 = unmined).

    Impostors rank by (squared distance, index): at equal distance the lower
    index is nearer, so the quantile pool is well defined under ties.
    Returns (seed_idx, positive_idx, negative_idx) arrays of length ``count``.
    """
    if not 0 < impostor_fraction <= 1:
        raise ConfigurationError("impostor_fraction must lie in (0, 1]")
    reps = np.atleast_2d(np.asarray(representations, dtype=np.float64))
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        raise ConfigurationError("triplet sampling needs at least two classes")
    rng = np.random.default_rng(rng)
    class_members = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
    class_others = {c: np.flatnonzero(labels != c) for c in class_members}
    seedable = np.concatenate(
        [m for m in class_members.values() if len(m) >= 2]
    )
    if len(seedable) == 0:
        raise ConfigurationError("no class has two examples to form a positive pair")

    seeds = rng.choice(seedable, size=count)
    positives = np.empty(count, dtype=np.int64)
    negatives = np.empty(count, dtype=np.int64)
    for t, s in enumerate(seeds):
        same = class_members[int(labels[s])]
        pos = int(rng.choice(same))
        while pos == s:
            pos = int(rng.choice(same))
        positives[t] = pos
        others = class_others[int(labels[s])]
        if impostor_fraction >= 1.0:
            negatives[t] = int(rng.choice(others))
            continue
        # draw the pool rank first (the same stream as choosing from the
        # pool), then select the impostor at that rank without a full sort
        j = int(rng.integers(max(1, int(np.ceil(impostor_fraction * len(others))))))
        diff = reps - reps[s]
        d2 = np.einsum("ij,ij->i", diff, diff)[others]
        v = np.partition(d2, j)[j]
        if np.isnan(v):  # NaNs rank last, in index order
            negatives[t] = others[np.argsort(d2, kind="stable")[j]]
        else:
            negatives[t] = others[np.flatnonzero(d2 == v)[j - np.count_nonzero(d2 < v)]]
    return seeds.astype(np.int64), positives, negatives
