"""Minibatch construction: loss-proportional neighbourhood sampling for the
cluster-overlap objective, and mined triplets for the baseline."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigurationError
from .index import ClusterIndex


@dataclass
class Neighbourhood:
    """One sampled minibatch: a seed cluster plus nearest impostor clusters,
    D examples each. ``clusters`` holds the M index rows, seed first, and
    ``example_clusters`` maps batch rows to positions in it."""

    clusters: np.ndarray  # (M,) rows of the index
    cluster_classes: np.ndarray
    example_indices: np.ndarray  # (M*D,) indices into the dataset
    example_clusters: np.ndarray  # (M*D,) values in [0, M)
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


def sample_neighbourhood(index: ClusterIndex, m: int, d: int, rng) -> Neighbourhood:
    """Sample a seed cluster from the loss-proportional distribution, retrieve
    its m-1 nearest impostor clusters and draw d examples per cluster
    uniformly (without replacement; with replacement when a cluster has fewer
    than d members)."""
    if m < 2 or d < 1:
        raise ConfigurationError("need m >= 2 and d >= 1")
    if not index.has_two_classes:
        raise ConfigurationError("neighbourhood sampling needs at least two classes")
    rng = np.random.default_rng(rng)
    probs = seed_distribution(index)
    seed_row = int(rng.choice(index.cluster_count, p=probs))
    impostors, truncated = index.nearest_impostor_clusters(seed_row, m - 1)
    rows = np.concatenate([[seed_row], impostors])

    fallback = False
    chosen = []
    for row in rows:
        members = index.members[row]
        short = len(members) < d
        fallback |= short
        chosen.append(rng.choice(members, size=d, replace=short))

    return Neighbourhood(
        clusters=rows,
        cluster_classes=index.cluster_classes[rows],
        example_indices=np.concatenate(chosen),
        example_clusters=np.repeat(np.arange(len(rows)), d),
        replacement_fallback=fallback,
        truncated=truncated,
    )


class TripletMiner:
    """What :func:`sample_triplets` draws from that changes only when the
    mining representations do: built once per refresh from the model's
    embedding of the training set at that refresh.

    ``classes`` maps each example to its class position, ``members[c]``
    lists class c's examples in ascending index order (``rng.choice`` draws
    by position), ``seedable`` the examples of classes with two or more,
    ``sq`` the squared norms and ``err`` each row's rounding bound as a seed
    (``_ranked_impostors``)."""

    def __init__(self, representations: np.ndarray, labels: np.ndarray):
        self.reps = np.atleast_2d(np.asarray(representations, dtype=np.float64))
        labels = np.asarray(labels)
        _, self.classes, sizes = np.unique(labels, return_inverse=True, return_counts=True)
        if len(sizes) < 2:
            raise ConfigurationError("triplet sampling needs at least two classes")
        self.members = np.split(np.argsort(self.classes, kind="stable"), np.cumsum(sizes)[:-1])
        if sizes.max() < 2:
            raise ConfigurationError("no class has two examples to form a positive pair")
        self.seedable = np.concatenate([m for m in self.members if len(m) >= 2])
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
        with np.errstate(over="ignore", invalid="ignore"):
            self.sq = np.einsum("ij,ij->i", self.reps, self.reps)
            span = 2.0 * (np.sqrt(self.sq.max()) + np.sqrt(self.sq))
            self.err = 2 * (self.reps.shape[1] + 4) * (eps * span**2 + 4 * tiny)


def sample_triplets(miner: TripletMiner, count: int, impostor_fraction: float, rng):
    """Mined triplets: uniform seeds, uniform same-class positives, negatives
    uniform over the nearest ``impostor_fraction`` quantile of other-class
    examples by the miner's representation distance (1.0 = unmined).

    Impostors rank by (squared distance, index): at equal distance the lower
    index is nearer, so the quantile pool is well defined under ties. The
    squared distance is ``einsum("ij,ij->i", diff, diff)`` of
    ``diff = reps[i] - reps[seed]``; ``_ranked_impostors`` evaluates it only
    for the rows near the drawn rank.
    Returns (seed_idx, positive_idx, negative_idx) arrays of length ``count``.
    """
    if not 0 < impostor_fraction <= 1:
        raise ConfigurationError("impostor_fraction must lie in (0, 1]")
    rng = np.random.default_rng(rng)
    classes, members, n = miner.classes, miner.members, len(miner.classes)
    seeds = rng.choice(miner.seedable, size=count).astype(np.int64)
    positives = np.empty(count, dtype=np.int64)
    ranks = np.empty(count, dtype=np.int64)
    for t, s in enumerate(seeds):
        same = members[classes[s]]
        pos = int(rng.choice(same))
        while pos == s:
            pos = int(rng.choice(same))
        positives[t] = pos
        # the negative's rank among the other-class examples, drawn from the
        # same stream as rng.choice over its pool: by index when unmined, by
        # (squared distance, index) when mined
        ranks[t] = rng.integers(max(1, int(np.ceil(impostor_fraction * (n - len(same))))))
    if impostor_fraction >= 1.0:
        negatives = np.array([np.flatnonzero(classes != classes[s])[j]
                              for s, j in zip(seeds, ranks)], dtype=np.int64)
    else:
        negatives = _ranked_impostors(miner, seeds, ranks)
    return seeds, positives, negatives


# seeds whose approximate distances one matrix product gives at once, so that
# the working memory is SEED_BLOCK x N distances plus one seed's band (at most
# N x R), whatever the batch size
SEED_BLOCK = 16


def _ranked_impostors(miner, seeds, ranks):
    """For each seed ``s = seeds[t]``, the row ``i`` outside the seed's class
    ``miner.members[classes[s]]`` at rank ``ranks[t]`` by (d2, i), where d2 is
    the einsum squared distance that ``sample_triplets`` documents.

    Filter and refine. One matrix product per block of seeds gives the
    approximate distances ``‖r_s‖² + ‖r_i‖² - 2 r_s·r_i``. Standard
    rounding-error bounds put both that expansion and the einsum within
    ``(R + 2)·eps·(‖r_i‖ + ‖r_s‖)²`` of the true squared distance (R = dims),
    plus a few half-subnormals where products underflow. ``err`` is several
    times that, so ``|approx - d2| <= err`` on every row. An order statistic
    moves by no more than the largest perturbation, so the exact value at the
    drawn rank lies within ``err`` of ``v``, the approximate value at that
    rank. A row with ``approx < v - 2·err`` is therefore exactly nearer than
    the pick and one with ``approx > v + 2·err`` exactly farther: neither can
    move it. Only the rows in between (the band) get exact distances, and the
    pick is the band's entry at rank ``ranks[t] - below``, where ``below``
    counts the rows under the band. The band holds every row tied with the
    pick, so ties still break by index.

    The bound holds only for finite arithmetic. ``err`` is finite exactly
    when every norm is and ``span² = (2·(max‖r‖ + ‖r_s‖))²`` does not
    overflow; the expansion, its matrix product and the einsum are then all
    at most about ``span² / 4`` and cannot overflow either. When any ``err``
    is not finite (NaN or inf in the input, or values near the overflow
    threshold), the band is every other-class row and ``below`` is 0; the
    (d2, index) sort puts NaN distances last, in index order.
    """
    reps, classes, members = miner.reps, miner.classes, miner.members
    err = miner.err[seeds]
    rows = _approx_sqdist(reps, miner.sq, seeds) if np.isfinite(err).all() else repeat(None)
    negatives = np.empty(len(seeds), dtype=np.int64)
    for t, (s, j, e, approx) in enumerate(zip(seeds, ranks, err, rows)):
        if approx is None:
            band, below = np.flatnonzero(classes != classes[s]), 0
        else:
            approx[members[classes[s]]] = np.inf  # same-class rows rank after every impostor
            v = np.partition(approx, j)[j]
            lo, hi = v - 2 * e, v + 2 * e
            below = np.count_nonzero(approx < lo)
            band = np.flatnonzero((approx >= lo) & (approx <= hi))
        diff = reps[band]
        diff -= reps[s]
        d2 = np.einsum("ij,ij->i", diff, diff)
        negatives[t] = band[np.lexsort((band, d2))[j - below]]
    return negatives


def _approx_sqdist(reps, sq, seeds):
    """Yield, seed by seed, ``‖r_s‖² + ‖r_i‖² - 2 r_s·r_i`` over every row
    ``i``, from one matrix product per SEED_BLOCK seeds."""
    for lo in range(0, len(seeds), SEED_BLOCK):
        block = seeds[lo:lo + SEED_BLOCK]
        approx = reps[block] @ reps.T  # becomes the expansion in place
        approx *= -2.0
        approx += sq[block, None]
        approx += sq
        yield from approx
