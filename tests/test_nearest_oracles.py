"""Exact nearest-neighbour selection against the full-sort reference loops.

``reference_retrieve_scores`` and ``reference_sample_triplets`` are the
per-query and per-seed ``argsort`` implementations that the vectorised
selection replaced. The package must reproduce them byte for byte and, for
the sampler, leave the generator in the same state, so that ``metrics.csv``
does not move. Coordinates are drawn from a coarse grid so that duplicate
rows and ties at the L-th (or pool-boundary) distance are common.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetdml import EvalContext, TripletMiner, evaluate, sample_triplets
from magnetdml.evaluate import _nearest_others, _retrieve_scores, _stable_nearest


def reference_retrieve_scores(ctx, reps):
    reps = np.atleast_2d(np.asarray(reps, dtype=np.float64))
    refs = ctx.references
    d2 = np.maximum(
        (reps * reps).sum(1)[:, None] + (refs * refs).sum(1)[None, :] - 2.0 * reps @ refs.T,
        0.0,
    )
    l = min(ctx.l, len(refs))
    n_classes = int(ctx.classes.max()) + 1
    scores = np.zeros((len(reps), n_classes))
    inv2s = 1.0 / (2.0 * ctx.sigma2)
    for i in range(len(reps)):
        nearest = np.argsort(d2[i], kind="stable")[:l]
        logits = -d2[i, nearest] * inv2s
        mass = np.exp(logits - logits.max())
        mass /= mass.sum()
        np.add.at(scores[i], ctx.classes[nearest], mass)
    return scores


def reference_sample_triplets(representations, labels, count, impostor_fraction, rng):
    reps = np.atleast_2d(np.asarray(representations, dtype=np.float64))
    labels = np.asarray(labels)
    rng = np.random.default_rng(rng)
    class_members = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
    seedable = np.concatenate([m for m in class_members.values() if len(m) >= 2])
    seeds = rng.choice(seedable, size=count)
    positives = np.empty(count, dtype=np.int64)
    negatives = np.empty(count, dtype=np.int64)
    for t, s in enumerate(seeds):
        same = class_members[int(labels[s])]
        pos = int(rng.choice(same))
        while pos == s:
            pos = int(rng.choice(same))
        positives[t] = pos
        others = np.flatnonzero(labels != labels[s])
        if impostor_fraction >= 1.0:
            negatives[t] = int(rng.choice(others))
        else:
            diff = reps[others] - reps[s]
            d2 = np.einsum("ij,ij->i", diff, diff)
            pool_size = max(1, int(np.ceil(impostor_fraction * len(others))))
            pool = others[np.argsort(d2, kind="stable")[:pool_size]]
            negatives[t] = int(rng.choice(pool))
    return seeds.astype(np.int64), positives, negatives


def grid_points(rng, rows, dim, levels, non_finite):
    """Points on a ``levels``-valued grid; optionally a few NaN/inf entries."""
    points = rng.integers(levels, size=(rows, dim)).astype(np.float64) * 0.5
    if non_finite:
        spots = rng.integers(rows * dim, size=max(1, rows * dim // 10))
        points.flat[spots] = rng.choice([np.nan, np.inf, -np.inf], size=len(spots))
    return points


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_refs=st.integers(1, 40),
    n_queries=st.integers(1, 12),
    dim=st.integers(1, 4),
    levels=st.integers(1, 6),
    l=st.one_of(st.just(1), st.integers(1, 50)),
    sigma2=st.sampled_from([1e-3, 0.5, 1.0, 7.0]),
    non_finite=st.sampled_from(["none", "none", "queries", "references"]),
)
def test_retrieve_scores_matches_full_sort(
    seed, n_refs, n_queries, dim, levels, l, sigma2, non_finite
):
    rng = np.random.default_rng(seed)
    refs = grid_points(rng, n_refs, dim, levels, non_finite == "references")
    queries = grid_points(rng, n_queries, dim, levels, non_finite == "queries")
    if n_queries > 1:
        queries[-1] = refs[rng.integers(n_refs)]  # a query duplicating a reference
    ctx = EvalContext(refs, rng.integers(0, 4, n_refs), sigma2, l=l)
    with np.errstate(all="ignore"):
        want = reference_retrieve_scores(ctx, queries)
        got = _retrieve_scores(ctx, queries)
    assert same_bytes(got, want)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 10),
    cols=st.integers(1, 30),
    levels=st.integers(1, 5),
    l=st.integers(-2, 35),
    non_finite=st.booleans(),
)
def test_stable_nearest_is_stable_argsort_prefix(seed, rows, cols, levels, l, non_finite):
    rng = np.random.default_rng(seed)
    d2 = grid_points(rng, rows, cols, levels, non_finite)
    d2[d2 == 0] = rng.choice([0.0, -0.0], size=int((d2 == 0).sum()))
    want = np.argsort(d2, axis=1, kind="stable")[:, :l]
    assert same_bytes(_stable_nearest(d2, l), want)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 60),
    dim=st.integers(1, 4),
    levels=st.integers(1, 5),
    n_classes=st.integers(2, 4),
    count=st.integers(1, 20),
    impostor_fraction=st.one_of(
        st.sampled_from([1e-9, 0.01, 0.2, 0.2, 0.5, 0.999, 1.0]),
        st.floats(min_value=1e-6, max_value=1.0),
    ),
    non_finite=st.sampled_from([False, False, False, True]),
)
def test_sample_triplets_matches_full_sort(
    seed, n, dim, levels, n_classes, count, impostor_fraction, non_finite
):
    rng = np.random.default_rng(seed)
    # every class present, and class 0 can always form a positive pair
    labels = np.concatenate([[0, 0], np.arange(n_classes), rng.integers(0, n_classes, n)])
    reps = grid_points(rng, len(labels), dim, levels, non_finite)
    want_rng = np.random.default_rng(seed + 1)
    got_rng = np.random.default_rng(seed + 1)
    with np.errstate(all="ignore"):
        want = reference_sample_triplets(reps, labels, count, impostor_fraction, want_rng)
        got = sample_triplets(TripletMiner(reps, labels), count, impostor_fraction, got_rng)
    for g, w in zip(got, want):
        assert same_bytes(g, w)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 80),
    dim=st.integers(1, 32),
    distinct=st.integers(1, 90),
    n_classes=st.integers(2, 4),
    count=st.integers(1, 20),
    impostor_fraction=st.one_of(
        st.sampled_from([1e-9, 0.01, 0.2, 0.5, 0.999]),
        st.floats(min_value=1e-6, max_value=0.999),
    ),
    log_scale=st.one_of(
        st.floats(-8, 160),
        st.floats(-162, -156),
        st.sampled_from([-8.0, 152.0, 153.0, 154.0]),
    ),
    offset=st.sampled_from([0.0, 0.0, 10.0, 1e4, 1e7, 1e9]),
)
def test_sample_triplets_matches_full_sort_continuous(
    seed, n, dim, distinct, n_classes, count, impostor_fraction, log_scale, offset
):
    """Continuous coordinates up to 32-d, where the matrix-product distances
    that filter the impostor pool differ from the exact ones: a large common
    offset makes the expansion cancel badly, scales run from 1e-8 to past the
    point where squared norms overflow (and down to where squares are
    subnormal), and rows are drawn from ``distinct`` prototypes so that
    duplicates put exact ties on the pool boundary."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([[0, 0], np.arange(n_classes), rng.integers(0, n_classes, n)])
    direction = rng.standard_normal(dim)
    prototypes = offset * direction / np.linalg.norm(direction) + rng.standard_normal(
        (distinct, dim))
    reps = prototypes[rng.integers(distinct, size=len(labels))] * 10.0**log_scale
    want_rng = np.random.default_rng(seed + 1)
    got_rng = np.random.default_rng(seed + 1)
    with np.errstate(all="ignore"):
        want = reference_sample_triplets(reps, labels, count, impostor_fraction, want_rng)
        got = sample_triplets(TripletMiner(reps, labels), count, impostor_fraction, got_rng)
    for g, w in zip(got, want):
        assert same_bytes(g, w)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("blocking", ["one_row", "ragged"])
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_refs=st.integers(1, 40),
    block_rows=st.integers(2, 5),
    full_blocks=st.integers(1, 3),
    tail=st.integers(0, 3),
    dim=st.integers(1, 32),
    levels=st.integers(0, 6),
    l=st.one_of(st.just(1), st.integers(1, 50)),
    sigma2=st.sampled_from([1e-3, 0.5, 1.0, 7.0]),
    non_finite=st.sampled_from(["none", "none", "queries", "references"]),
)
def test_retrieve_scores_matches_full_sort_in_row_blocks(
    blocking, seed, n_refs, block_rows, full_blocks, tail, dim, levels, l, sigma2, non_finite
):
    """The full-sort reference against scoring split into many row blocks:
    one query a block, or ``block_rows`` a block with a shorter last block."""
    n_queries = block_rows * full_blocks + 1 + tail % (block_rows - 1)
    budget = 1 if blocking == "one_row" else block_rows * n_refs + n_refs - 1
    rng = np.random.default_rng(seed)
    if levels:
        refs = grid_points(rng, n_refs, dim, levels, non_finite == "references")
        queries = grid_points(rng, n_queries, dim, levels, non_finite == "queries")
    else:  # continuous coordinates: the distance product rounds
        refs = rng.standard_normal((n_refs, dim))
        queries = rng.standard_normal((n_queries, dim))
    queries[-1] = refs[rng.integers(n_refs)]  # a query duplicating a reference
    ctx = EvalContext(refs, rng.integers(0, 4, n_refs), sigma2, l=l)
    with np.errstate(all="ignore"), mock.patch.object(evaluate, "_BLOCK_ELEMENTS", budget):
        want = reference_retrieve_scores(ctx, queries)
        got = _retrieve_scores(ctx, queries)
    assert same_bytes(got, want)


@pytest.mark.parametrize("budget", [1, 30, 1 << 17])
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    dim=st.integers(1, 4),
    levels=st.integers(1, 5),
    sizes=st.lists(st.integers(1, 39), min_size=1, max_size=3),
    non_finite=st.sampled_from([False, False, True]),
)
def test_nearest_others_matches_full_sort(budget, seed, n, dim, levels, sizes, non_finite):
    """Each example's nearest others against the full distance matrix with
    its diagonal set to inf, sorted stably, at one row a block, a ragged
    blocking and one block."""
    sizes = [min(s, n - 1) for s in sizes]
    reps = grid_points(np.random.default_rng(seed), n, dim, levels, non_finite)
    with np.errstate(all="ignore"):
        d2 = np.maximum(
            (reps * reps).sum(1)[:, None] + (reps * reps).sum(1)[None, :] - 2.0 * reps @ reps.T,
            0.0,
        )
        np.fill_diagonal(d2, np.inf)
        want = np.argsort(d2, axis=1, kind="stable")[:, :max(sizes)]
        with mock.patch.object(evaluate, "_BLOCK_ELEMENTS", budget):
            got = _nearest_others(reps, sizes)
    assert same_bytes(got, want)
