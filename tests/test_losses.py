import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetdml import (
    Dataset,
    EmbeddingModel,
    ExperimentConfig,
    LinearHead,
    build_index,
    magnet_as_triplet,
    magnet_full_objective,
    magnet_minibatch_loss,
    nca_loss,
    ncm_centroids,
    ncm_classify,
    ncm_loss,
    softmax_xent,
    triplet_loss,
)
from magnetdml.errors import ConfigurationError, ContractError
from magnetdml.training import _STEPS


def four_point_batch():
    """Seed cluster class A = {0, 2}, impostor class B = {1, 3}, 1-D."""
    reps = np.array([[0.0], [2.0], [1.0], [3.0]])
    return reps, np.array([0, 0, 1, 1]), np.array([0, 1])


class TestMagnetMinibatch:
    def test_hand_computed_four_points(self):
        reps, clusters, classes = four_point_batch()
        res = magnet_minibatch_loss(reps, clusters, classes, 2.0)
        assert np.allclose(res.example_losses, [0.875, 2.375, 2.375, 0.875], atol=1e-12)
        assert np.isclose(res.mean_loss, 1.625, atol=1e-12)
        assert np.isclose(res.batch_variance, 4.0 / 3.0)

    def test_satisfied_margin_zero_loss_and_grads(self):
        reps = np.array([[0.0], [0.1], [1000.0], [1000.1]])
        res = magnet_minibatch_loss(reps, [0, 0, 1, 1], [0, 1], 0.0)
        assert res.mean_loss == 0.0
        assert (res.rep_grads == 0).all()

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_scale_invariance(self, t):
        rng = np.random.default_rng(0)
        reps = rng.standard_normal((12, 4))
        clusters = np.repeat(np.arange(4), 3)
        classes = np.array([0, 1, 0, 1])
        alpha = 1.0
        base = magnet_minibatch_loss(reps, clusters, classes, alpha).mean_loss
        scaled = magnet_minibatch_loss(t * reps, clusters, classes, alpha).mean_loss
        assert np.isclose(base, scaled, atol=1e-9)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        reps = rng.standard_normal((8, 2))
        clusters = np.repeat(np.arange(4), 2)
        classes = np.array([0, 1, 0, 1])
        losses = [
            magnet_minibatch_loss(reps, clusters, classes, a).mean_loss
            for a in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        reps = rng.standard_normal((8, 3))
        clusters = np.repeat(np.arange(4), 2)
        classes = np.array([0, 1, 0, 1])
        alpha = 1.0
        base = magnet_minibatch_loss(reps, clusters, classes, alpha)
        perm = rng.permutation(8)
        shuffled = magnet_minibatch_loss(reps[perm], clusters[perm], classes, alpha)
        assert np.isclose(base.mean_loss, shuffled.mean_loss, atol=1e-12)
        assert np.allclose(base.example_losses[perm], shuffled.example_losses, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        reps = rng.standard_normal((8, 3))
        clusters = np.repeat(np.arange(4), 2)
        classes = np.array([0, 1, 0, 1])
        alpha = 0.7
        res = magnet_minibatch_loss(reps, clusters, classes, alpha)
        h = 1e-6
        for i in range(8):
            for j in range(3):
                rp, rm = reps.copy(), reps.copy()
                rp[i, j] += h
                rm[i, j] -= h
                fd = (
                    magnet_minibatch_loss(rp, clusters, classes, alpha).mean_loss
                    - magnet_minibatch_loss(rm, clusters, classes, alpha).mean_loss
                ) / (2 * h)
                assert abs(fd - res.rep_grads[i, j]) < 1e-6 * max(1, abs(fd))

    def test_single_class_batch_rejected(self):
        reps = np.zeros((4, 1))
        with pytest.raises(ContractError):
            magnet_minibatch_loss(reps, [0, 0, 1, 1], [0, 0])


class TestMagnetFullObjective:
    def test_satisfied_margin(self):
        # each class a single point at its own center, far apart
        ds = Dataset(np.array([[0.0], [0.0], [100.0], [100.0]]), np.array([0, 0, 1, 1]))
        model = EmbeddingModel([1, 1], seed=0)
        model.weights[0][:] = 1.0
        model.biases[0][:] = 0.0
        idx = build_index(model, ds, k=1, seed=0)
        loss = magnet_full_objective(idx, model.embed(ds.inputs), ds.labels, 1.0)
        assert loss == 0.0

    def test_matches_minibatch_on_full_dataset(self):
        reps, clusters, classes = four_point_batch()
        ds = Dataset(reps, classes[clusters])
        model = EmbeddingModel([1, 1], seed=0)
        model.weights[0][:] = 1.0
        model.biases[0][:] = 0.0
        idx = build_index(model, ds, k=1, seed=0)
        full = magnet_full_objective(idx, reps, ds.labels, 2.0)
        assert np.isclose(full, 1.625, atol=1e-12)

    def test_unit_slope_in_alpha_once_active(self):
        reps, clusters, classes = four_point_batch()
        ds = Dataset(reps, classes[clusters])
        model = EmbeddingModel([1, 1], seed=0)
        model.weights[0][:] = 1.0
        model.biases[0][:] = 0.0
        idx = build_index(model, ds, k=1, seed=0)
        l10 = magnet_full_objective(idx, reps, ds.labels, 10.0)
        l11 = magnet_full_objective(idx, reps, ds.labels, 11.0)
        assert np.isclose(l11 - l10, 1.0, atol=1e-9)


class TestTriplet:
    def test_satisfied_margin(self):
        res = triplet_loss([[0.0]], [[1.0]], [[3.0]], alpha=1.0)
        assert res.mean_loss == 0.0

    def test_hand_evaluation(self):
        res = triplet_loss([[0.0]], [[2.0]], [[1.0]], alpha=0.5)
        assert np.isclose(res.mean_loss, 3.5)

    def test_boundary_subgradient_zero(self):
        res = triplet_loss([[0.0]], [[1.0]], [[1.0]], alpha=0.0)
        assert res.mean_loss == 0.0
        assert (res.seed_grads == 0).all()

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(4)
        s, p, n = rng.standard_normal((3, 6, 2))
        losses = [triplet_loss(s, p, n, alpha=a).mean_loss for a in (0.0, 0.5, 1.0, 3.0)]
        assert all(a <= b + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_gradients_finite_differences(self):
        rng = np.random.default_rng(5)
        s, p, n = rng.standard_normal((3, 5, 3))
        res = triplet_loss(s, p, n, alpha=0.4)
        h = 1e-6
        for arr, grads in ((s, res.seed_grads), (p, res.positive_grads), (n, res.negative_grads)):
            ap = arr.copy()
            ap[0, 0] += h
            am = arr.copy()
            am[0, 0] -= h
            parts_p = [ap if x is arr else x for x in (s, p, n)]
            parts_m = [am if x is arr else x for x in (s, p, n)]
            fd = (
                triplet_loss(*parts_p, alpha=0.4).mean_loss
                - triplet_loss(*parts_m, alpha=0.4).mean_loss
            ) / (2 * h)
            assert abs(fd - grads[0, 0]) < 1e-5 * max(1.0, abs(fd))


class TestMagnetAsTriplet:
    @pytest.mark.parametrize("dim", [1, 8])
    def test_identity_with_symmetrized_triplet_sum(self, dim):
        rng = np.random.default_rng(6)
        for _ in range(100):
            pair = rng.standard_normal((2, dim))
            neg = rng.standard_normal(dim)
            alpha = float(rng.uniform(0, 2))
            got = magnet_as_triplet(pair, neg, alpha)
            expected = sum(
                max(
                    float(((pair[d] - pair[1 - d]) ** 2).sum())
                    - float(((pair[d] - neg) ** 2).sum())
                    + alpha,
                    0.0,
                )
                for d in range(2)
            )
            assert abs(got - expected) < 1e-10

    def test_coincident_pair(self):
        a = np.array([1.0, 2.0])
        n = np.array([3.0, 4.0])
        got = magnet_as_triplet(np.stack([a, a]), n, alpha=1.0)
        expected = 2 * max(-float(((a - n) ** 2).sum()) + 1.0, 0.0)
        assert np.isclose(got, expected)

    def test_far_negative_zero(self):
        pair = np.array([[0.0], [1.0]])
        assert magnet_as_triplet(pair, np.array([1e6]), alpha=1.0) == 0.0


def _full_objective(alpha):
    reps, clusters, classes = four_point_batch()
    ds = Dataset(reps, classes[clusters])
    idx = build_index(EmbeddingModel([1, 1], seed=0), ds, k=1, seed=0)
    return magnet_full_objective(idx, reps, ds.labels, alpha)


# each loss, called with a given alpha
ALPHA_LOSSES = {
    "triplet_loss": lambda alpha: triplet_loss([[0.0]], [[1.0]], [[3.0]], alpha),
    "magnet_minibatch_loss": lambda alpha: magnet_minibatch_loss(*four_point_batch(), alpha),
    "magnet_full_objective": _full_objective,
    "magnet_as_triplet": lambda alpha: magnet_as_triplet(np.zeros((2, 1)), np.ones(1), alpha),
}


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("loss", sorted(ALPHA_LOSSES))
def test_non_finite_alpha_rejected(loss, alpha):
    with pytest.raises(ConfigurationError, match="alpha must be finite"):
        ALPHA_LOSSES[loss](alpha)


class TestNca:
    def test_two_points_same_class(self):
        res = nca_loss(np.array([[0.0], [5.0]]), np.array([0, 0]))
        assert np.isclose(res.mean_loss, 0.0, atol=1e-12)

    def test_hand_evaluation_three_points(self):
        # example 0: -log(e^-1 / (e^-1 + e^-25)) = log(1 + e^-24)
        reps = np.array([[0.0], [1.0], [5.0]])
        labels = np.array([0, 0, 1])
        res = nca_loss(reps, labels)
        expected0 = np.log(1 + np.exp(-24.0))
        # recompute each term directly as the oracle; example 2 has no
        # same-class peer and is skipped, so the mean runs over examples 0, 1
        d2 = (reps - reps.T) ** 2
        total = 0.0
        for n in range(2):
            e = np.exp(-d2[n])
            same = sum(e[j] for j in range(3) if j != n and labels[j] == labels[n])
            allo = sum(e[j] for j in range(3) if j != n)
            total += -np.log(same / allo)
        assert res.skipped == 1
        assert np.isclose(res.mean_loss, total / 2, rtol=1e-12)
        assert res.mean_loss >= expected0 / 2

    def test_peerless_examples_skipped(self):
        reps = np.array([[0.0], [1.0], [2.0]])
        res = nca_loss(reps, np.array([0, 0, 1]))
        assert res.skipped == 1

    def test_all_peerless_rejected(self):
        with pytest.raises(ConfigurationError):
            nca_loss(np.array([[0.0], [1.0]]), np.array([0, 1]))

    def test_gradients_finite_differences(self):
        rng = np.random.default_rng(7)
        reps = rng.standard_normal((7, 2))
        labels = np.array([0, 0, 1, 1, 0, 1, 0])
        res = nca_loss(reps, labels)
        h = 1e-6
        for i in range(7):
            for j in range(2):
                rp, rm = reps.copy(), reps.copy()
                rp[i, j] += h
                rm[i, j] -= h
                fd = (nca_loss(rp, labels).mean_loss - nca_loss(rm, labels).mean_loss) / (2 * h)
                assert abs(fd - res.rep_grads[i, j]) < 1e-6 * max(1, abs(fd))


class TestNcm:
    def identity_model(self, means):
        means = np.asarray(means, dtype=np.float64)
        return np.eye(means.shape[-1]), means

    def test_equidistant_symmetry(self):
        m = self.identity_model([[[0.0]], [[4.0]]])
        loss, _ = ncm_loss(*m, np.array([[2.0]]), np.array([0]))
        assert np.isclose(loss, np.log(2.0))

    def test_on_mean_hand_value(self):
        m = self.identity_model([[[0.0]], [[4.0]]])
        loss, _ = ncm_loss(*m, np.array([[0.0]]), np.array([0]))
        assert np.isclose(loss, np.log(1 + np.exp(-16.0)), rtol=1e-9)

    def test_collapsed_map_gives_log_c(self):
        centroids = np.array([[[0.0]], [[4.0]], [[9.0]]])
        loss, _ = ncm_loss(np.zeros((2, 1)), centroids, np.array([[2.0], [7.0]]), np.array([0, 2]))
        assert np.isclose(loss, np.log(3.0))

    def test_multi_centroid_uses_nearest(self):
        # class 0 has centroids at 0 and 10; an example at 9.5 should score
        # class 0 via the centroid at 10
        centroids = np.array([[[0.0], [10.0]], [[5.0], [5.0]]])
        preds = ncm_classify(np.eye(1), centroids, np.array([[9.5]]))
        assert preds.tolist() == [0]

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((9, 3))
        y = np.array([0, 1, 2] * 3)
        w, centroids = EmbeddingModel([3, 2], seed=0).weights[0], ncm_centroids(x, y, k=2, seed=0)
        _, gw = ncm_loss(w, centroids, x, y)
        h = 1e-6
        for i in range(gw.shape[0]):
            for j in range(gw.shape[1]):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                lp, _ = ncm_loss(wp, centroids, x, y)
                lm, _ = ncm_loss(wm, centroids, x, y)
                fd = (lp - lm) / (2 * h)
                assert abs(fd - gw[i, j]) < 1e-6 * max(1, abs(fd))

    def test_fit_means_frozen(self):
        x = np.array([[0.0], [2.0], [10.0], [12.0]])
        y = np.array([0, 0, 1, 1])
        centroids = ncm_centroids(x, y, k=1, seed=0)
        assert np.allclose(centroids[:, 0, 0], [1.0, 11.0])

    def test_one_point_class_padded_to_k(self):
        # a class smaller than K keeps K rows: its centers repeat to fill them
        x = np.array([[0.0, 1.0], [2.0, 1.0], [4.0, 1.0], [7.0, -3.0]])
        y = np.array([0, 0, 0, 1])
        centroids = ncm_centroids(x, y, k=3, seed=0)
        assert centroids.shape == (2, 3, 2)
        np.testing.assert_array_equal(centroids[1], np.tile(x[3], (3, 1)))

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ConfigurationError, match="4 points need a non-negative label each, got 3"):
            ncm_centroids(np.zeros((4, 2)), [0, 0, 1], k=1)

    def test_class_without_examples_rejected(self):
        # label 1 has no examples; its mean used to be NaN
        x, y = np.array([[0.0], [2.0], [10.0]]), np.array([0, 0, 2])
        with pytest.raises(ConfigurationError, match="class 1 has no examples"):
            ncm_centroids(x, y, k=1, seed=0)

    def test_step_reads_its_model_weight(self):
        # the step's model owns the map: after the weight is rebound, predict
        # and objective read the new array, as after a write in place
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((30, 3)), np.arange(30) % 3)
        config = ExperimentConfig(objective="ncmc", ncm_k=2, layer_dims=[3, 2], seed=0)
        fresh, rebound, written = (_STEPS["ncmc"](config, data, data) for _ in range(3))
        new_w = rng.standard_normal((2, 3))
        rebound.model.weights[0] = new_w.copy()
        written.model.weights[0][...] = new_w
        assert (written.predict(0) != fresh.predict(0)).any()
        np.testing.assert_array_equal(rebound.predict(0), written.predict(0))
        batch = rebound.sample(None)
        loss, (w_grads, b_grads) = rebound.objective(rebound.model, batch)[:2]
        want_loss, (want_w, want_b) = written.objective(written.model, batch)[:2]
        assert loss == want_loss
        np.testing.assert_array_equal(w_grads[0], want_w[0])
        np.testing.assert_array_equal(b_grads[0], want_b[0])


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, _ = softmax_xent(np.zeros((4, 5)), np.array([0, 1, 2, 3]))
        assert np.isclose(loss, np.log(5.0))

    def test_confident_limit(self):
        loss, _ = softmax_xent(np.array([[100.0, 0.0]]), np.array([0]))
        assert loss < 1e-12

    def test_hand_value(self):
        loss, _ = softmax_xent(np.array([[1.0, 0.0]]), np.array([0]))
        assert np.isclose(loss, np.log(1 + np.exp(-1.0)))

    def test_gradients_finite_differences(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((5, 3))
        y = np.array([0, 1, 2, 0, 1])
        _, g = softmax_xent(z, y)
        h = 1e-6
        for i in range(5):
            for j in range(3):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                fd = (softmax_xent(zp, y)[0] - softmax_xent(zm, y)[0]) / (2 * h)
                assert abs(fd - g[i, j]) < 1e-8


class TestLinearHead:
    def test_gradients_finite_differences(self):
        # grad-check perturbs only the embedding: the head's own gradients
        rng = np.random.default_rng(10)
        head = LinearHead([3, 4], seed=2)
        head.biases[0][...] = rng.standard_normal(4)
        reps, y = rng.standard_normal((6, 3)), np.array([0, 1, 2, 3, 0, 1])
        _, rep_grads, (w_grads, b_grads) = head.loss_and_grads(reps, y)
        h = 1e-6
        for array, grad in zip((reps, head.weights[0], head.biases[0]),
                               (rep_grads, w_grads[0], b_grads[0])):
            for i in np.ndindex(array.shape):
                value = array[i]
                array[i] = value + h
                plus = head.loss_and_grads(reps, y)[0]
                array[i] = value - h
                minus = head.loss_and_grads(reps, y)[0]
                array[i] = value
                assert abs((plus - minus) / (2 * h) - grad[i]) < 1e-8


@settings(max_examples=25, deadline=None)
@given(
    scale=st.floats(min_value=0.1, max_value=10.0),
    alpha=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_magnet_scale_invariance_property(scale, alpha, seed):
    rng = np.random.default_rng(seed)
    reps = rng.standard_normal((8, 2))
    clusters = np.repeat(np.arange(4), 2)
    classes = np.array([0, 1, 0, 1])
    a = magnet_minibatch_loss(reps, clusters, classes, alpha).mean_loss
    b = magnet_minibatch_loss(scale * reps, clusters, classes, alpha).mean_loss
    assert abs(a - b) < 1e-9 * max(1.0, a)
