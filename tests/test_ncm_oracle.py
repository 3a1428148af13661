"""NCM/NCMC loss, gradient and predictions against the einsum reference.

``reference_ncm_loss`` and ``reference_ncm_classify`` build the (N, C, K, d)
differences ``v = x - c`` and the (N, C, K, o) mapped differences
``u = W v`` explicitly. The package may compute the same quantities from
small matrix products, which sum in another order, so the two agree up to a
rounding bound rather than byte for byte.

The bound on a distance. Let p = |W| |x_n| and q = |W| |c| (elementwise
absolute values, o-vectors). They bound |W x|, |W c| and |W (x - c)| however
much cancels inside the products, so ``||p + q||^2`` is the scale of every
intermediate. The reference rounds x - c (1 rounding), W v (d) and the sum of
o squares (o); the product form rounds W x and W c (d each) and
``||a||^2 + ||b||^2 - 2 a.b`` (o + 3). With unit roundoff eps/2 the two
distances therefore differ by at most about eps/2 (2o + 4d + 5) ||p + q||^2,
and the tests use

    tol[n, c, k] = (o + 2d + 8) eps ||p + q||^2
                <= 2 (o + 2d + 8) eps (||W x||_abs^2 + ||W c||_abs^2),

eps = 2^-52, where the margin covers the second-order terms.

From it: the class score z[n, c] = -min_k dist moves by at most
delta[n] = max_{c,k} tol[n, c, k]; a prediction is fixed wherever its best
class is nearer than the second best by more than 2 delta[n]; and the nearest
centroid of a class is fixed wherever every centroid with other coordinates
is farther by more than 2 tol. The loss and gradient bounds are derived in
:func:`loss_tolerance` and :func:`grad_tolerance`.
"""

from typing import NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetdml.losses import ncm_classify, ncm_loss

EPS = np.finfo(np.float64).eps


class NcmCase(NamedTuple):
    """A map and its (C, K, d) centroids, in the order ``ncm_loss`` takes them."""

    w: np.ndarray
    centroids: np.ndarray


def reference_ncm_loss(model: NcmCase, inputs, labels):
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    labels = np.asarray(labels)
    n = len(x)
    c, k, d = model.centroids.shape
    w = model.w
    # v[n, c, k, d] = x_n - centroid_{c,k}; u = W v
    v = x[:, None, None, :] - model.centroids[None, :, :, :]
    u = np.einsum("od,nckd->ncko", w, v)
    dist2 = np.einsum("ncko,ncko->nck", u, u)
    best = dist2.argmin(axis=2)
    z = -dist2[np.arange(n)[:, None], np.arange(c)[None, :], best]

    shift = z.max(axis=1, keepdims=True)
    e = np.exp(z - shift)
    p = e / e.sum(axis=1, keepdims=True)
    losses = -(z[np.arange(n), labels] - shift[:, 0]) + np.log(e.sum(axis=1))

    dz = p.copy()
    dz[np.arange(n), labels] -= 1.0
    dz /= n
    v_best = v[np.arange(n)[:, None], np.arange(c)[None, :], best]
    u_best = u[np.arange(n)[:, None], np.arange(c)[None, :], best]
    # dL/dW = sum_{n,c} dz[n,c] * (-2) u_best v_best^T
    grad_w = -2.0 * np.einsum("nc,nco,ncd->od", dz, u_best, v_best)
    return float(losses.mean()), grad_w


def reference_dist2(model, x):
    v = x[:, None, None, :] - model.centroids[None, :, :, :]
    u = np.einsum("od,nckd->ncko", model.w, v)
    return np.einsum("ncko,ncko->nck", u, u)


def reference_ncm_classify(model: NcmCase, inputs):
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    return reference_dist2(model, x).min(axis=2).argmin(axis=1)


def dist_tolerance(model, x):
    """tol[n, c, k] of the module docstring."""
    o, d = model.w.shape
    p = np.abs(x) @ np.abs(model.w).T
    q = np.einsum("ckd,od->cko", np.abs(model.centroids), np.abs(model.w))
    scale = ((p[:, None, None, :] + q[None]) ** 2).sum(axis=3)
    return (o + 2 * d + 8) * EPS * scale


def loss_tolerance(model, x, loss):
    """Each example's loss, logsumexp(z) - z[label], moves by at most
    2 delta[n] when its scores move by delta[n]; both forms then round the
    log-sum-exp of their own scores, about C + 4 times relative to |z|."""
    c = model.centroids.shape[0]
    delta = dist_tolerance(model, x).max(axis=(1, 2))
    z_max = reference_dist2(model, x).min(axis=2).max()
    return 2.0 * delta.mean() + (c + 8) * EPS * (abs(loss) + 2.0 * z_max)


def grad_tolerance(model, x, labels):
    """grad_W = -2 sum_{n,c} dz[n,c] (W a)(a)^T with a = x_n - c_best, and
    |W a| a^T <= |W| s s^T for s = |x_n| + |c_best|.

    Two sources of difference. (1) Scores moved by at most delta[n] move each
    softmax probability by at most p (exp(2 delta[n]) - 1), and so dz by that
    over N; both forms round their softmax another C + 8 times. (2) Every sum
    of either form (over n and c, the C K columns, d and o) has fewer than
    m = N C + N + C K + 2d + o + 16 terms, so its rounding is at most
    m eps times the sum of absolute values, sum |dz| |W| s s^T."""
    n = len(x)
    c, k, d = model.centroids.shape
    dist2 = reference_dist2(model, x)
    best = dist2.argmin(axis=2)
    z = -dist2[np.arange(n)[:, None], np.arange(c)[None, :], best]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    dz = p.copy()
    dz[np.arange(n), labels] -= 1.0
    dz /= n
    delta = dist_tolerance(model, x).max(axis=(1, 2))
    m = n * c + n + c * k + 2 * d + model.w.shape[0] + 16
    weight = m * EPS * np.abs(dz) + (
        np.expm1(np.minimum(2.0 * delta, 700.0))[:, None] + (c + 8) * EPS) * p / n
    s = np.abs(x)[:, None, :] + np.abs(model.centroids)[np.arange(c)[None, :], best]
    outer = np.einsum("nc,ncd,nce->de", weight, s, s)
    return 2.0 * np.abs(model.w) @ outer


def fixed_nearest(model, x):
    """Rows whose nearest centroid in every class is the same in both forms:
    each centroid with other coordinates is farther by more than 2 tol."""
    dist2 = reference_dist2(model, x)
    tol = dist_tolerance(model, x).max(axis=2)
    c = model.centroids.shape[0]
    best = dist2.argmin(axis=2)
    best_cent = model.centroids[np.arange(c)[None, :], best]  # (n, c, d)
    other = (model.centroids[None] != best_cent[:, :, None, :]).any(axis=3)
    gap = np.where(other, dist2 - dist2.min(axis=2, keepdims=True), np.inf).min(axis=2)
    return (gap > 2.0 * tol).all(axis=1)


def fixed_prediction(model, x):
    """Rows whose best class is nearer than the second best by more than
    2 delta[n]."""
    per_class = np.sort(reference_dist2(model, x).min(axis=2), axis=1)
    delta = dist_tolerance(model, x).max(axis=(1, 2))
    return per_class[:, 1] - per_class[:, 0] > 2.0 * delta


def random_case(seed, n, c, k, d, o, distinct, log_scale, w_log_scale, offset, on_centroid):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    shift = offset * direction / np.linalg.norm(direction)
    prototypes = shift + rng.standard_normal((distinct, d))
    # draw centroids from ``distinct`` prototypes so duplicates are common
    centroids = prototypes[rng.integers(distinct, size=(c, k))] * 10.0**log_scale
    x = (shift + rng.standard_normal((n, d))) * 10.0**log_scale
    hit = rng.random(n) < on_centroid
    x[hit] = centroids.reshape(c * k, d)[rng.integers(c * k, size=int(hit.sum()))]
    w = rng.standard_normal((o, d)) * 10.0**w_log_scale
    labels = rng.integers(c, size=n)
    return NcmCase(w, centroids), x, labels


def check_against_reference(model, x, labels, require_all=False):
    loss, _ = ncm_loss(*model, x, labels)
    want_loss, _ = reference_ncm_loss(model, x, labels)
    assert abs(loss - want_loss) <= loss_tolerance(model, x, want_loss)

    preds = ncm_classify(*model, x)
    fixed = fixed_prediction(model, x)
    assert (preds[fixed] == reference_ncm_classify(model, x)[fixed]).all()

    # the gradient is defined only where the nearest centroids are fixed
    keep = fixed_nearest(model, x)
    if require_all:
        assert fixed.all() and keep.all()
    if keep.any():
        xs, ys = x[keep], labels[keep]
        _, grad_w = ncm_loss(*model, xs, ys)
        _, want_grad = reference_ncm_loss(model, xs, ys)
        assert (np.abs(grad_w - want_grad) <= grad_tolerance(model, xs, ys)).all()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    c=st.integers(2, 5),
    k=st.integers(1, 4),
    d=st.integers(1, 10),
    o=st.integers(1, 12),
    distinct=st.integers(1, 20),
    log_scale=st.floats(-3, 3),
    w_log_scale=st.floats(-2, 2),
    offset=st.sampled_from([0.0, 0.0, 10.0, 1e3, 1e6]),
    on_centroid=st.sampled_from([0.0, 0.0, 0.3]),
)
def test_ncm_matches_einsum_reference(
    seed, n, c, k, d, o, distinct, log_scale, w_log_scale, offset, on_centroid
):
    """Random maps, centroids (duplicates included, K >= 1) and inputs, some
    of them on a centroid, with a common offset up to 1e6 so that the
    product form cancels badly."""
    model, x, labels = random_case(
        seed, n, c, k, d, o, distinct, log_scale, w_log_scale, offset, on_centroid)
    check_against_reference(model, x, labels)


def test_ncmc_at_benchmark_shape_is_fully_checked():
    """The baselines benchmark's ncmc shape (C = 10, K = 3, d = 8, o = 32) on
    unit-scale data with distinct centroids: the bound fixes every prediction
    and every nearest centroid, so the whole gradient is compared."""
    model, x, labels = random_case(
        3, 300, 10, 3, 8, 32, 10_000, 0.0, -0.5, 0.0, 0.0)
    check_against_reference(model, x, labels, require_all=True)
