"""The incremental per-cluster means and K-means against the from-scratch
forms they replaced.

``ClusterIndex.cluster_mean_losses`` recomputes only the clusters whose
examples ``update_loss_cache`` wrote since the last call, and ``kmeans``
computes the points' squared norms once and skips the final distance pass at
an assignment fixpoint. Both are meant to be exact: every mean, center,
assignment, objective and history entry must equal the reference byte for
byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import magnetdml.index as index_module
from magnetdml import kmeans
from magnetdml.errors import ConfigurationError
from magnetdml.index import ClusterIndex, _kmeanspp_init


def reference_cluster_mean_losses(index):
    """Every cluster's mean from scratch, as the index computed it before."""
    cached = index.loss_cache[~np.isnan(index.loss_cache)]
    fallback = float(cached.mean()) if len(cached) else 1.0
    means = np.empty(index.cluster_count)
    for j, members in enumerate(index.members):
        vals = index.loss_cache[members]
        vals = vals[~np.isnan(vals)]
        means[j] = vals.mean() if len(vals) else fallback
    return means


def make_index(example_cluster, rows, loss_cache):
    return ClusterIndex(
        centers=np.zeros((rows, 1)),
        cluster_classes=np.arange(rows) % 2,
        example_cluster=np.asarray(example_cluster, dtype=np.int64),
        loss_cache=loss_cache,
    )


losses = st.one_of(st.floats(0.0, 1e6, allow_nan=False), st.just(np.nan))


@st.composite
def update_sequences(draw):
    """An example count, a row count (some rows may have no members), an
    optional preloaded cache and a sequence of updates, queries and rebuilds
    over the same cache."""
    n = draw(st.integers(1, 30))
    rows = draw(st.integers(2, 8))
    assignment = st.lists(st.integers(0, rows - 1), min_size=n, max_size=n)
    preload = draw(st.none() | st.lists(losses, min_size=n, max_size=n))
    update = st.lists(st.tuples(st.integers(0, n - 1), losses), max_size=12)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("update"), update),
        st.tuples(st.just("query"), st.none()),
        st.tuples(st.just("rebuild"), assignment),
    ), max_size=25))
    return n, rows, draw(assignment), preload, ops


@settings(max_examples=200, deadline=None)
@given(update_sequences())
def test_incremental_means_match_from_scratch(case):
    n, rows, assignment, preload, ops = case
    # a preloaded cache stands for one that resume filled before the index was built
    cache = np.full(n, np.nan) if preload is None else np.asarray(preload, dtype=np.float64)
    index = make_index(assignment, rows, cache)
    for op, arg in ops + [("query", None)]:
        if op == "update":
            # may repeat an example: the last write wins
            index.update_loss_cache([i for i, _ in arg], [loss for _, loss in arg])
        elif op == "rebuild":
            index = make_index(arg, rows, cache)
        assert index.loss_cache is cache
        got = index.cluster_mean_losses()
        assert got.tobytes() == reference_cluster_mean_losses(index).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), losses), max_size=40))))
def test_one_pass_write_keeps_the_last_loss(case):
    """The fancy-indexed write matches writing the pairs one by one in order,
    with repeated examples common: only the last loss of each lands."""
    n, pairs = case
    index = make_index([j % 2 for j in range(n)], 2, None)
    want = np.full(n, np.nan)
    for i, loss in pairs:
        want[i] = loss
    index.update_loss_cache([i for i, _ in pairs], [loss for _, loss in pairs])
    assert index.loss_cache.tobytes() == want.tobytes()
    assert index.cluster_mean_losses().tobytes() == reference_cluster_mean_losses(index).tobytes()


def test_misaligned_losses_rejected():
    index = make_index([0, 1], 2, None)
    with pytest.raises(ConfigurationError, match="losses of shape"):
        index.update_loss_cache([0, 1], [1.0])


def test_uncached_clusters_follow_the_global_mean():
    # row 2 has no members and row 1 none cached: both take the global mean,
    # which moves with every write to any cluster
    index = make_index([0, 0, 1, 1], 3, None)
    index.update_loss_cache([0], [1.0])
    assert index.cluster_mean_losses().tolist() == [1.0, 1.0, 1.0]
    index.update_loss_cache([1, 1], [3.0, 5.0])
    assert index.cluster_mean_losses().tolist() == [3.0, 3.0, 3.0]
    index.update_loss_cache([2], [9.0])
    assert index.cluster_mean_losses().tolist() == [3.0, 9.0, 5.0]


def test_means_are_a_copy():
    index = make_index([0, 1], 2, None)
    index.update_loss_cache([0, 1], [2.0, 4.0])
    index.cluster_mean_losses()[:] = 0.0
    assert index.cluster_mean_losses().tolist() == [2.0, 4.0]


def reference_sqdist(a, b):
    return np.maximum((a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * a @ b.T, 0.0)


def reference_kmeans(points, k, seed, history, reseeds):
    """``kmeans`` as it was before: squared norms in every distance pass and a
    final pass after the loop. Appends the reseeded cluster of every empty
    cluster to ``reseeds``."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(points)
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(points, k, rng)
    assignments = None
    for _ in range(index_module.KMEANS_MAX_ITERS):
        d2 = reference_sqdist(points, centers)
        new_assignments = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_assignments].sum()))
        if assignments is not None and (new_assignments == assignments).all():
            break
        assignments = new_assignments
        for j in range(k):
            members = points[assignments == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            else:
                reseeds.append(j)
                resid = points - centers[assignments]
                worst = np.einsum("ij,ij->i", resid, resid).argmax()
                centers[j] = points[worst]
    d2 = reference_sqdist(points, centers)
    assignments = d2.argmin(axis=1)
    objective = float(d2[np.arange(n), assignments].sum())
    return centers, assignments, objective


def assert_kmeans_matches(points, k, seed):
    """Byte-equal outputs and history; returns (reference history, reseeds)."""
    history, ref_history, reseeds = [], [], []
    centers, assign, objective = kmeans(points, k, seed, history=history)
    ref = reference_kmeans(points, k, seed, ref_history, reseeds)
    assert centers.tobytes() == ref[0].tobytes()
    assert assign.tobytes() == ref[1].tobytes()
    assert np.float64(objective).tobytes() == np.float64(ref[2]).tobytes()
    assert np.asarray(history).tobytes() == np.asarray(ref_history).tobytes()
    return ref_history, reseeds


@st.composite
def kmeans_inputs(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    # small integer grids give ties and duplicate points; wide floats do not
    coord = draw(st.sampled_from([st.integers(-3, 3).map(float),
                                  st.floats(-1e3, 1e3, allow_nan=False)]))
    points = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=n, max_size=n))
    return np.asarray(points), draw(st.integers(1, n)), draw(st.integers(0, 2**31 - 1))


@settings(max_examples=200, deadline=None)
@given(kmeans_inputs())
def test_kmeans_matches_reference(case):
    assert_kmeans_matches(*case)


@pytest.mark.parametrize("cap", [1, 2])
@settings(max_examples=100, deadline=None)
@given(case=kmeans_inputs())
def test_kmeans_matches_reference_at_the_iteration_cap(cap, case):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module, "KMEANS_MAX_ITERS", cap)
        assert_kmeans_matches(*case)


def test_empty_cluster_reseed_matches_reference():
    # duplicate points seed two centers on one point; the second cluster is
    # empty after the first assignment and is reseeded
    points = np.array([[0.0, 0.0]] * 5 + [[4.0, 1.0]])
    _, reseeds = assert_kmeans_matches(points, 3, seed=0)
    assert reseeds


@pytest.mark.parametrize("cap", [1, 2])
def test_iteration_cap_exit_matches_reference(monkeypatch, cap):
    # a case that needs more Lloyd steps than the cap, so the loop runs out
    points = np.random.default_rng(4).standard_normal((60, 2))
    history, _ = assert_kmeans_matches(points, 5, seed=0)
    assert len(history) > cap + 1
    monkeypatch.setattr(index_module, "KMEANS_MAX_ITERS", cap)
    history, _ = assert_kmeans_matches(points, 5, seed=0)
    assert len(history) == cap
