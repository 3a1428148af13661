"""Training objectives and their gradients with respect to representations.

Implements the cluster-overlap (magnet) objective in both its minibatch and
full-dataset forms, plus triplet, NCA, NCM/NCMC and a softmax head.

Conventions fixed here:
  - hinge subgradient at 0 is 0 (active only for strictly positive argument);
  - exponent denominators are 2 * variance in both magnet forms;
  - the minibatch variance and cluster sample means are batch functions, so
    gradients flow through them;
  - every softmax over distances uses max-shifted log-sum-exp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError, ContractError
from .index import VARIANCE_FLOOR, class_kmeans, sqdist
from .model import momentum_sgd


@dataclass
class MagnetConfig:
    alpha: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ConfigurationError("alpha must be finite")


@dataclass
class MagnetLossResult:
    mean_loss: float
    example_losses: np.ndarray
    rep_grads: np.ndarray
    batch_variance: float
    hinge_args: np.ndarray


def magnet_minibatch_loss(
    representations: np.ndarray,
    example_clusters: np.ndarray,
    cluster_classes: np.ndarray,
    config: MagnetConfig = MagnetConfig(),
) -> MagnetLossResult:
    """Stochastic cluster-overlap loss over a sampled neighbourhood.

    ``representations`` is (B, R); ``example_clusters`` maps each row to a
    batch cluster 0..M-1 whose classes are ``cluster_classes``. Cluster means
    are within-batch sample means and the variance estimate pools squared
    residuals with divisor (B - 1). Each example is attracted to its own
    cluster mean (with gap ``alpha``) and repelled from batch cluster means of
    other classes.
    """
    reps = np.atleast_2d(np.asarray(representations, dtype=np.float64))
    example_clusters = np.asarray(example_clusters, dtype=np.int64)
    cluster_classes = np.asarray(cluster_classes, dtype=np.int64)
    b, r = reps.shape
    m = len(cluster_classes)
    if m < 2 or b < 2:
        raise ConfigurationError("need at least 2 clusters and 2 examples")

    member = np.zeros((b, m))
    member[np.arange(b), example_clusters] = 1.0
    counts = member.sum(axis=0)
    if (counts == 0).any():
        raise ConfigurationError("every batch cluster needs at least one example")
    mu = (member.T @ reps) / counts[:, None]

    a = reps - mu[example_clusters]
    s = np.einsum("ij,ij->i", a, a)

    v_raw = s.sum() / (b - 1)
    floored = v_raw < VARIANCE_FLOOR
    v = max(v_raw, VARIANCE_FLOOR)
    inv2v = 1.0 / (2.0 * v)

    d2 = sqdist(reps, mu)
    classes = cluster_classes[example_clusters]
    impostor = cluster_classes[None, :] != classes[:, None]
    if not impostor.any(axis=1).all():
        raise ContractError("an example has no impostor cluster in the batch")

    logits = np.where(impostor, -d2 * inv2v, -np.inf)
    shift = logits.max(axis=1)
    expw = np.exp(logits - shift[:, None])
    denom = expw.sum(axis=1)
    lse = shift + np.log(denom)
    w = expw / denom[:, None]

    q = s * inv2v + config.alpha + lse
    losses = np.maximum(q, 0.0)
    active = (q > 0).astype(np.float64)

    # Backward pass. L = mean_n hinge(q_n) with
    # q_n = s_n/(2v) + alpha + logsumexp_m'(-d2[n,m']/(2v)).
    g_s = active * inv2v / b
    g_d = -active[:, None] * w * inv2v / b
    if not floored:
        dl_dv = (active * ((w * d2).sum(axis=1) - s)).sum() / (2.0 * v * v) / b
        g_s = g_s + dl_dv / (b - 1)

    grads = 2.0 * g_s[:, None] * a
    t = member.T @ (2.0 * g_s[:, None] * a)
    grads -= member @ (t / counts[:, None])
    grads += 2.0 * (g_d.sum(axis=1)[:, None] * reps - g_d @ mu)
    u = 2.0 * (g_d.T @ reps - g_d.sum(axis=0)[:, None] * mu)
    grads -= member @ (u / counts[:, None])

    return MagnetLossResult(
        mean_loss=float(losses.mean()),
        example_losses=losses,
        rep_grads=grads,
        batch_variance=float(v),
        hinge_args=q,
    )


def magnet_full_objective(index, representations, labels, config: MagnetConfig = MagnetConfig()) -> float:
    """Full-dataset cluster-overlap objective (evaluation only, no gradients).

    Uses the index's assigned centers and global variance; the denominator
    sums over all clusters of all other classes.
    """
    reps = np.atleast_2d(np.asarray(representations, dtype=np.float64))
    labels = np.asarray(labels)
    v = max(index.variance, VARIANCE_FLOOR)
    inv2v = 1.0 / (2.0 * v)
    d2 = sqdist(reps, index.centers)
    own = d2[np.arange(len(reps)), index.example_cluster]
    impostor = index.cluster_classes[None, :] != labels[:, None]
    logits = np.where(impostor, -d2 * inv2v, -np.inf)
    shift = logits.max(axis=1)
    lse = shift + np.log(np.exp(logits - shift[:, None]).sum(axis=1))
    q = own * inv2v + config.alpha + lse
    return float(np.maximum(q, 0.0).mean())


@dataclass
class TripletLossResult:
    mean_loss: float
    seed_grads: np.ndarray
    positive_grads: np.ndarray
    negative_grads: np.ndarray
    hinge_args: np.ndarray


def triplet_loss(
    seeds: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    alpha: float,
) -> TripletLossResult:
    """Mean over triplets of hinge(||r - r+||^2 - ||r - r-||^2 + alpha)."""
    if alpha < 0:
        raise ConfigurationError("alpha must be >= 0")
    r, p, n = (np.atleast_2d(np.asarray(x, dtype=np.float64))
               for x in (seeds, positives, negatives))
    m = len(r)
    dp = r - p
    dn = r - n
    q = np.einsum("ij,ij->i", dp, dp) - np.einsum("ij,ij->i", dn, dn) + alpha
    losses = np.maximum(q, 0.0)
    active = (q > 0).astype(np.float64)[:, None] / m
    g_r = active * 2.0 * (dp - dn)
    g_p = active * -2.0 * dp
    g_n = active * 2.0 * dn
    return TripletLossResult(
        mean_loss=float(losses.mean()),
        seed_grads=g_r,
        positive_grads=g_p,
        negative_grads=g_n,
        hinge_args=q,
    )


def magnet_as_triplet(seed_pair: np.ndarray, impostor: np.ndarray, alpha: float) -> float:
    """Cluster-overlap loss in its M=2, D=2 reduction: the seed cluster is
    approximated by two samples (each attracted to the other), the impostor
    cluster by one sample, and variance normalization is off. Equals the
    two-term symmetrized triplet sum."""
    pair = np.atleast_2d(np.asarray(seed_pair, dtype=np.float64))
    if pair.shape[0] != 2:
        raise ConfigurationError("seed_pair must contain exactly two representations")
    n = np.asarray(impostor, dtype=np.float64).reshape(1, -1)
    total = 0.0
    for d in range(2):
        dp = pair[d] - pair[1 - d]
        dn = pair[d] - n[0]
        total += max(float(dp @ dp - dn @ dn + alpha), 0.0)
    return total


@dataclass
class NcaLossResult:
    mean_loss: float
    rep_grads: np.ndarray
    skipped: int


def nca_loss(representations: np.ndarray, labels: np.ndarray) -> NcaLossResult:
    """Neighbourhood components analysis loss with self-exclusion.

    Per example: -log of same-class kernel mass over all-others kernel mass,
    Gaussian kernel exp(-||r_n - r_n'||^2). Examples without a same-class peer
    are skipped and counted.
    """
    reps = np.atleast_2d(np.asarray(representations, dtype=np.float64))
    labels = np.asarray(labels)
    n = len(reps)
    d2 = sqdist(reps, reps)
    same = labels[:, None] == labels[None, :]
    eye = np.eye(n, dtype=bool)
    valid = (same & ~eye).any(axis=1)
    skipped = int((~valid).sum())
    if not valid.any():
        raise ConfigurationError("no example has a same-class peer")

    logits = np.where(eye, -np.inf, -d2)
    shift = logits.max(axis=1)
    e = np.exp(logits - shift[:, None])
    s_all = e.sum(axis=1)
    s_same = np.where(same & ~eye, e, 0.0).sum(axis=1)
    losses = np.where(valid, -np.log(np.maximum(s_same, 1e-300)) + np.log(s_all), 0.0)

    n_valid = int(valid.sum())
    p_all = e / s_all[:, None]
    p_same = np.where(same & ~eye, e, 0.0) / np.maximum(s_same, 1e-300)[:, None]
    g = np.where(valid[:, None], p_same * (same & ~eye) - p_all, 0.0) / n_valid
    h = g + g.T
    grads = 2.0 * (h.sum(axis=1)[:, None] * reps - h @ reps)
    return NcaLossResult(
        mean_loss=float(losses[valid].mean()), rep_grads=grads, skipped=skipped
    )


@dataclass
class NcmModel:
    """Linear map trained against fixed raw-input class means or centroids.

    ``centroids`` is (C, K, d); for the single-mean mode K = 1. The centroids
    are computed once from training inputs and never updated.
    """

    w: np.ndarray
    centroids: np.ndarray

    @classmethod
    def fit_means(cls, inputs, labels, out_dim: int, seed: int = 0) -> "NcmModel":
        return cls.fit_centroids(inputs, labels, out_dim, k=1, seed=seed)

    @classmethod
    def fit_centroids(cls, inputs, labels, out_dim: int, k: int, seed: int = 0) -> "NcmModel":
        centers, _, _ = class_kmeans(inputs, labels, k, seed, small="pad")
        d = centers.shape[1]
        return cls(w=_init_linear(out_dim, d, seed), centroids=centers.reshape(-1, k, d))


def _init_linear(out_dim, in_dim, seed):
    s = np.sqrt(6.0 / (in_dim + out_dim))
    return np.random.default_rng(seed).uniform(-s, s, size=(out_dim, in_dim))


def _ncm_sqdist(model: NcmModel, x: np.ndarray) -> np.ndarray:
    """Squared distances (N, C, K) between the mapped inputs and centroids."""
    c, k, d = model.centroids.shape
    flat = model.centroids.reshape(c * k, d)
    return sqdist(x @ model.w.T, flat @ model.w.T).reshape(len(x), c, k)


def ncm_loss(model: NcmModel, inputs: np.ndarray, labels: np.ndarray):
    """Softmax-over-negative-squared-distances to fixed class centroids.

    Per-class score uses the nearest centroid of that class under the current
    map. Returns (mean loss, gradient with respect to W).
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    labels = np.asarray(labels)
    n = len(x)
    c, k, d = model.centroids.shape
    dist2 = _ncm_sqdist(model, x)
    best = dist2.argmin(axis=2)
    z = -dist2[np.arange(n)[:, None], np.arange(c)[None, :], best]
    loss, dz = softmax_xent(z, labels)
    # dL/dW = -2 W S with S = sum_{n,c} dz[n,c] (x_n - c_best)(x_n - c_best)^T,
    # expanded over the flat centroids: D holds dz[n,c] at column c*K + best
    flat = model.centroids.reshape(c * k, d)
    dmat = np.zeros((n, c * k))
    dmat[np.arange(n)[:, None], np.arange(c) * k + best] = dz
    xdc = x.T @ dmat @ flat
    s = (x.T * dmat.sum(axis=1)) @ x - xdc - xdc.T + (flat.T * dmat.sum(axis=0)) @ flat
    return loss, -2.0 * model.w @ s


def ncm_classify(model: NcmModel, inputs: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    return _ncm_sqdist(model, x).min(axis=2).argmin(axis=1)


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Cross-entropy of softmax logits; returns (mean loss, logit gradients)."""
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels)
    n = len(z)
    shift = z.max(axis=1, keepdims=True)
    e = np.exp(z - shift)
    total = e.sum(axis=1)
    losses = np.log(total) - (z[np.arange(n), labels] - shift[:, 0])
    grads = e / total[:, None]
    grads[np.arange(n), labels] -= 1.0
    grads /= n
    return float(losses.mean()), grads


@dataclass
class LinearHead:
    """Linear classifier over representations for the softmax baseline."""

    w: np.ndarray
    b: np.ndarray
    w_velocity: np.ndarray = None
    b_velocity: np.ndarray = None

    @classmethod
    def create(cls, rep_dim: int, class_count: int, seed: int = 0) -> "LinearHead":
        head = cls(w=_init_linear(class_count, rep_dim, seed), b=np.zeros(class_count))
        head.w_velocity = np.zeros_like(head.w)
        head.b_velocity = np.zeros_like(head.b)
        return head

    def logits(self, reps: np.ndarray) -> np.ndarray:
        return reps @ self.w.T + self.b

    def loss_and_grads(self, reps: np.ndarray, labels: np.ndarray):
        """Returns (mean loss, grads w.r.t. representations, grad_w, grad_b)."""
        loss, dlogits = softmax_xent(self.logits(reps), labels)
        return loss, dlogits @ self.w, dlogits.T @ reps, dlogits.sum(axis=0)

    def sgd_step(self, grad_w, grad_b, config, iteration: int):
        momentum_sgd([self.w, self.b], [self.w_velocity, self.b_velocity],
                     [grad_w, grad_b], config, iteration)
