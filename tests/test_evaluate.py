import tracemalloc

import numpy as np
import pytest

from magnetdml import (
    EvalContext,
    SigmaTracker,
    attribute_precision,
    attribute_precision_values,
    classify_batch,
    error_rate,
    hierarchy_recovery_eval,
)
from magnetdml.errors import ConfigurationError, ContractError
from magnetdml.evaluate import _finite_scores, _stable_nearest
from magnetdml.losses import ncm_centroids, ncm_classify


class TestKnc:
    def test_hand_value_two_centers(self):
        # centers at 0 (class 0) and 2 (class 1), sigma2 = 0.5, query 0:
        # masses exp(0), exp(-4) -> score_0 = 1 / (1 + e^-4)
        ctx = EvalContext(np.array([[0.0], [2.0]]), np.array([0, 1]), sigma2=0.5)
        scores = _finite_scores(ctx, np.array([[0.0]]))[0]
        assert classify_batch(ctx, np.array([[0.0]])).tolist() == [0]
        assert np.isclose(scores[0], 1.0 / (1.0 + np.exp(-4.0)), atol=1e-12)
        assert np.isclose(scores.sum(), 1.0)

    def test_tie_goes_to_lower_class(self):
        ctx = EvalContext(np.array([[-1.0], [1.0]]), np.array([1, 0]), sigma2=1.0)
        scores = _finite_scores(ctx, np.array([[0.0]]))[0]
        assert np.isclose(scores[0], scores[1])
        assert classify_batch(ctx, np.array([[0.0]])).tolist() == [0]

    def test_l_one_is_nearest_center(self):
        centers = np.array([[0.0], [1.0], [5.0]])
        classes = np.array([0, 1, 2])
        ctx = EvalContext(centers, classes, sigma2=1.0, l=1)
        queries = np.array([[-3.0], [0.6], [4.0]])
        assert classify_batch(ctx, queries).tolist() == [0, 1, 2]
        scores = _finite_scores(ctx, queries)
        for want in range(3):
            assert np.isclose(scores[want, want], 1.0)

    def test_argmax_unaffected_by_sigma(self):
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((10, 3))
        classes = rng.integers(0, 3, 10)
        queries = rng.standard_normal((30, 3))
        ctx_a = EvalContext(centers, classes, sigma2=0.3, l=1)
        ctx_b = EvalContext(centers, classes, sigma2=7.0, l=1)
        assert (classify_batch(ctx_a, queries) == classify_batch(ctx_b, queries)).all()

    def test_knc_matches_ncm_single_center(self):
        # one center per class with L covering all centers reduces to
        # nearest class mean
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 2))
        y = rng.integers(0, 3, 60)
        centroids = ncm_centroids(x, y, k=1)
        ctx = EvalContext(centroids[:, 0, :], np.arange(3), sigma2=1.0, l=3)
        queries = rng.standard_normal((200, 2))
        knc_pred = classify_batch(ctx, queries)
        ncm_pred = ncm_classify(np.eye(2), centroids, queries)
        assert (knc_pred == ncm_pred).all()

    def test_soft_knn_is_same_rule_over_examples(self):
        reps = np.array([[0.0], [0.1], [3.0]])
        labels = np.array([0, 0, 1])
        ctx = EvalContext(reps, labels, sigma2=1.0)
        assert classify_batch(ctx, np.array([[0.05], [3.2]])).tolist() == [0, 1]

    def test_nan_scores_rejected(self):
        # a NaN reference among the L nearest makes every score NaN, which
        # argmax would read as class 0
        ctx = EvalContext(np.array([[0.0], [1.0], [np.nan], [3.0]]), [0, 1, 1, 1], 1.0, l=4)
        with pytest.raises(ContractError, match="not finite"):
            classify_batch(ctx, np.array([[0.5], [2.5]]))

    @pytest.mark.parametrize("classify", [classify_batch, _finite_scores])
    def test_nan_scores_rejected_single_query(self, classify):
        ctx = EvalContext(np.array([[0.0], [1.0], [np.nan], [3.0]]), [0, 1, 1, 1], 1.0, l=4)
        with pytest.raises(ContractError, match="not finite"):
            classify(ctx, np.array([[0.5]]))

    def test_empty_context_rejected(self):
        with pytest.raises(ContractError):
            EvalContext(np.zeros((0, 2)), np.zeros(0, dtype=int), sigma2=1.0)

    @pytest.mark.parametrize("classes", [[-1, 0], [0], [0, 1, 1], [[0], [1]]],
                             ids=["negative", "short", "long", "2-d"])
    def test_bad_classes_rejected(self, classes):
        # a tag of -1 used to add its query's kernel mass to the previous
        # query's last class cell
        with pytest.raises(ConfigurationError, match="one non-negative tag per reference"):
            EvalContext(np.array([[0.0], [5.0]]), classes, sigma2=1.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            EvalContext(np.zeros((1, 2)), np.zeros(1, dtype=int), sigma2=0.0)

    @pytest.mark.parametrize("sigma2", [np.inf, -np.inf, np.nan])
    def test_non_finite_sigma_rejected(self, sigma2):
        with pytest.raises(ConfigurationError, match="finite"):
            EvalContext(np.zeros((1, 2)), np.zeros(1, dtype=int), sigma2=sigma2)

    def test_query_width_other_than_references_rejected(self):
        # used to surface as numpy's matmul core-dimension ValueError
        rng = np.random.default_rng(0)
        ctx = EvalContext(rng.normal(size=(20, 32)), rng.integers(0, 3, 20), sigma2=1.0)
        with pytest.raises(ConfigurationError, match="queries are 31-d but references are 32-d"):
            classify_batch(ctx, rng.normal(size=(5, 31)))


def test_scoring_holds_one_distance_product():
    """One soft-kNN call at benchmark size allocates the full query x
    reference distance product and little more: the rest of the work runs in
    row blocks of 512 KiB. Holding the whole distance matrix beside the
    product read 2.04x the product's bytes."""
    rng = np.random.default_rng(0)
    ctx = EvalContext(rng.normal(size=(3600, 32)), rng.integers(0, 10, 3600), sigma2=1.0)
    queries = rng.normal(size=(900, 32))
    tracemalloc.start()
    try:
        classify_batch(ctx, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 900 * 3600 * 8


def test_scoring_work_beside_the_product_is_bounded():
    """Beside its 900 x 3600 distance product, a soft-kNN call holds one
    512 KiB distance block, the argpartition indices taken from it and small
    per-row arrays. With 1 MiB blocks this read 2.41 MiB; with 512 KiB
    blocks, 1.26 MiB."""
    rng = np.random.default_rng(0)
    ctx = EvalContext(rng.normal(size=(3600, 32)), rng.integers(0, 10, 3600), sigma2=1.0)
    queries = rng.normal(size=(900, 32))
    tracemalloc.start()
    try:
        classify_batch(ctx, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 900 * 3600 * 8 <= 1.5 * 2**20



def ranked_rows(edit, rows=8, cols=50, seed=0):
    """Rows holding 0..cols-1 in shuffled columns, passed through ``edit``."""
    rng = np.random.default_rng(seed)
    return edit(np.stack([rng.permutation(cols) for _ in range(rows)]).astype(np.float64))


L_NEAREST = 20
# each edit makes every row one that the partitioned block alone cannot order
NEAREST_CASES = {
    # the l-th and (l+1)-th smallest are equal: the lower index is nearer
    "tie-at-boundary": lambda d2: np.where(d2 == L_NEAREST, L_NEAREST - 1, d2),
    "tie-in-block": lambda d2: np.where(d2 < 6, 2.0, d2),
    "nan-at-l-th": lambda d2: np.where(d2 >= L_NEAREST - 1, np.nan, d2),
    "inf-at-boundary": lambda d2: np.where(d2 >= L_NEAREST - 3, np.inf, d2),
    "inf-after-block": lambda d2: np.where(d2 > L_NEAREST, np.inf, d2),
    "nan-after-block": lambda d2: np.where(d2 >= L_NEAREST, np.nan, d2),
}


class TestStableNearest:
    @pytest.mark.parametrize("case", sorted(NEAREST_CASES))
    def test_directed_case_is_stable_argsort_prefix(self, case):
        for seed in range(5):
            d2 = ranked_rows(NEAREST_CASES[case], seed=seed)
            want = np.argsort(d2, axis=1, kind="stable")[:, :L_NEAREST]
            assert np.array_equal(_stable_nearest(d2, L_NEAREST), want)

    def test_all_but_one_column(self):
        d2 = ranked_rows(lambda d2: np.where(d2 % 7 == 0, 3.0, d2))
        want = np.argsort(d2, axis=1, kind="stable")[:, :49]
        assert np.array_equal(_stable_nearest(d2, 49), want)


class TestErrorRate:
    def test_values(self):
        assert error_rate([0, 1, 1, 0], [0, 1, 0, 0]) == 0.25
        assert error_rate([2, 2], [2, 2]) == 0.0

    def test_misaligned_rejected(self):
        with pytest.raises(ContractError):
            error_rate([0, 1], [0])


class TestAttributePrecision:
    def test_saturated_clusters(self):
        # two tight groups, one attribute each: precision 1 at size 2
        reps = np.array([[0.0], [0.1], [0.2], [9.0], [9.1], [9.2]])
        attrs = np.array([[1, 0]] * 3 + [[0, 1]] * 3, dtype=np.int8)
        out = attribute_precision(reps, attrs, sizes=[2])
        assert out[2] == 1.0

    def test_hand_mixed_case(self):
        # line 0,1,2,3; attribute on {0,1}. At size 1: neighbours are
        # 1 and 0 -> both share it, precision 1. At size 2: example 0 sees
        # {1,2} -> 1/2, example 1 sees {0,2} -> 1/2, mean 1/2.
        reps = np.array([[0.0], [1.0], [2.0], [3.0]])
        attrs = np.array([[1], [1], [0], [0]], dtype=np.int8)
        out = attribute_precision(reps, attrs, sizes=[1, 2])
        assert out[1] == 1.0
        assert out[2] == 0.5

    def test_full_size_equals_base_rate(self):
        # at size N-1 every neighbourhood is the whole remaining set, so
        # precision equals (count-1)/(N-1) averaged over incidences
        rng = np.random.default_rng(3)
        reps = rng.standard_normal((12, 2))
        attrs = (rng.random((12, 2)) < 0.5).astype(np.int8)
        attrs[0] = 1  # guarantee incidence
        out = attribute_precision(reps, attrs, sizes=[11])
        counts = attrs.sum(axis=0).astype(float)
        expected = np.concatenate(
            [np.full(int(counts[a]), (counts[a] - 1) / 11.0) for a in range(2)]
        ).mean()
        assert np.isclose(out[11], expected, atol=1e-12)

    def test_values_match_pooled_mean(self):
        rng = np.random.default_rng(4)
        reps = rng.standard_normal((20, 3))
        attrs = (rng.random((20, 3)) < 0.4).astype(np.int8)
        attrs[0] = 1
        vals = attribute_precision_values(reps, attrs, size=5)
        out = attribute_precision(reps, attrs, sizes=[5])
        assert np.isclose(vals.mean(), out[5], atol=1e-12)
        assert len(vals) == int((attrs > 0).sum())

    def test_random_attribute_near_frequency(self):
        # a geometry-independent attribute should score near its base rate
        rng = np.random.default_rng(5)
        reps = rng.standard_normal((400, 2))
        attrs = (rng.random((400, 1)) < 0.3).astype(np.int8)
        vals = attribute_precision_values(reps, attrs, size=20)
        freq = attrs.mean()
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - freq) < 4 * se + 0.02

    def test_bad_sizes_rejected(self):
        reps = np.zeros((4, 1))
        attrs = np.ones((4, 1), dtype=np.int8)
        for bad in (0, 4, 7):
            with pytest.raises(ConfigurationError):
                attribute_precision(reps, attrs, sizes=[bad])

    def test_values_bad_sizes_rejected(self):
        reps = np.arange(8.0)[:, None]
        attrs = np.ones((8, 1), dtype=np.int8)
        for bad in (0, -1, 8, 9):
            with pytest.raises(ConfigurationError):
                attribute_precision_values(reps, attrs, size=bad)

    def test_missing_attributes_rejected(self):
        with pytest.raises(ConfigurationError):
            attribute_precision(np.zeros((4, 1)), None, sizes=[1])


class TestHierarchyRecovery:
    def separable(self, n_classes=6, seed=0):
        rng = np.random.default_rng(seed)
        train = np.concatenate(
            [rng.normal(10 * c, 0.2, (30, 2)) for c in range(n_classes)]
        )
        test = np.concatenate(
            [rng.normal(10 * c, 0.2, (10, 2)) for c in range(n_classes)]
        )
        return (
            train,
            np.repeat(np.arange(n_classes), 30),
            test,
            np.repeat(np.arange(n_classes), 10),
        )

    def test_separable_zero_error(self):
        tr, trf, te, tef = self.separable()
        for method in ("knc", "soft_knn"):
            e1, e5 = hierarchy_recovery_eval(tr, trf, te, tef, sigma2=1.0, method=method)
            assert e1 == 0.0
            assert e5 == 0.0

    def test_err5_never_exceeds_err1(self):
        rng = np.random.default_rng(6)
        tr = rng.standard_normal((120, 2))
        trf = rng.integers(0, 6, 120)
        te = rng.standard_normal((40, 2))
        tef = rng.integers(0, 6, 40)
        e1, e5 = hierarchy_recovery_eval(tr, trf, te, tef, sigma2=1.0)
        assert e5 is not None
        assert e5 <= e1

    def test_few_classes_gives_none(self):
        tr, trf, te, tef = self.separable(n_classes=3, seed=1)
        e1, e5 = hierarchy_recovery_eval(tr, trf, te, tef, sigma2=1.0)
        assert e1 == 0.0
        assert e5 is None

    def test_unknown_method_rejected(self):
        tr, trf, te, tef = self.separable()
        with pytest.raises(ConfigurationError):
            hierarchy_recovery_eval(tr, trf, te, tef, sigma2=1.0, method="hard_knn")

    @pytest.mark.parametrize("method", ["knc", "soft_knn"])
    def test_nan_scores_rejected(self, method):
        refs = np.array([[0.0], [1.0], [np.nan], [3.0]])
        with pytest.raises(ContractError, match="not finite"):
            hierarchy_recovery_eval(refs, [0, 1, 2, 3], np.array([[0.5], [2.5]]), [0, 1],
                                    sigma2=1.0, l=4, method=method)

    @pytest.mark.parametrize("method", ["knc", "soft_knn"])
    def test_width_mismatch_rejected(self, method):
        tr, trf, te, tef = self.separable()
        with pytest.raises(ConfigurationError, match="queries are 3-d but references are 2-d"):
            hierarchy_recovery_eval(tr, trf, np.hstack([te, te[:, :1]]), tef, sigma2=1.0,
                                    method=method)

    def test_knc_clamps_small_classes_and_skips_unseen(self):
        # two points per training class take two clusters, not three; fine
        # label 1 appears only in the test set and gets no centers, so the
        # query at 5 cannot be classified correctly
        tr = np.array([[0.0], [0.5], [10.0], [10.5]])
        te = np.array([[0.2], [10.2], [5.0]])
        e1, e5 = hierarchy_recovery_eval(tr, [0, 0, 2, 2], te, np.array([0, 2, 1]), sigma2=1.0,
                                         method="knc", clusters_per_class=3)
        assert e1 == pytest.approx(1 / 3)
        assert e5 is None

    @pytest.mark.parametrize("method, match", [
        ("knc", "4 points need a non-negative label each, got 3"),
        ("soft_knn", "one non-negative tag per reference"),
    ])
    def test_misaligned_labels_rejected(self, method, match):
        with pytest.raises(ConfigurationError, match=match):
            hierarchy_recovery_eval(np.zeros((4, 1)), [0, 0, 1], np.zeros((2, 1)), [0, 1],
                                    sigma2=1.0, method=method)

    def test_joint_rescale_invariance(self):
        # scaling representations by t and sigma2 by t^2 leaves errors unchanged
        rng = np.random.default_rng(7)
        tr = rng.standard_normal((100, 3))
        trf = rng.integers(0, 5, 100)
        te = rng.standard_normal((30, 3))
        tef = rng.integers(0, 5, 30)
        base = hierarchy_recovery_eval(tr, trf, te, tef, sigma2=0.7, seed=2)
        scaled = hierarchy_recovery_eval(
            3.0 * tr, trf, 3.0 * te, tef, sigma2=0.7 * 9.0, seed=2
        )
        assert base == scaled


class TestSigmaTracker:
    def test_first_update_sets_value(self):
        t = SigmaTracker(decay=0.99)
        assert t.update(2.0) == 2.0

    def test_ema_recurrence(self):
        t = SigmaTracker(decay=0.9)
        t.update(1.0)
        assert np.isclose(t.update(2.0), 0.9 * 1.0 + 0.1 * 2.0)
        assert np.isclose(t.update(0.0), 0.9 * 1.1)

    def test_bad_decay_rejected(self):
        with pytest.raises(ConfigurationError):
            SigmaTracker(decay=1.0)
