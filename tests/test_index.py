import itertools

import numpy as np
import pytest

from magnetdml import Dataset, EmbeddingModel, ExperimentConfig, build_index, class_kmeans, kmeans
from magnetdml.errors import ConfigurationError
from magnetdml.index import VARIANCE_FLOOR
from magnetdml.training import _MagnetStep


def identity_model(dim):
    m = EmbeddingModel([dim, dim], seed=0)
    m.weights[0] = np.eye(dim)
    m.biases[0][:] = 0
    return m


class TestKmeans:
    def test_k1_mean_of_two_points(self):
        centers, assign, obj = kmeans(np.array([[0.0, 0.0], [2.0, 0.0]]), 1, seed=0)
        assert np.allclose(centers, [[1.0, 0.0]])
        assert np.isclose(obj, 2.0)

    def test_k_equals_n(self):
        pts = np.arange(5.0)[:, None]
        centers, assign, obj = kmeans(pts, 5, seed=0)
        assert np.isclose(obj, 0.0)
        assert sorted(centers.ravel().tolist()) == pts.ravel().tolist()

    def test_k2_optimal_over_all_partitions(self):
        pts = np.array([0.0, 0.1, 10.0, 10.1])[:, None]
        centers, assign, obj = kmeans(pts, 2, seed=0)
        # oracle: brute force over all 2-partitions of 4 points
        best = np.inf
        for mask in itertools.product([0, 1], repeat=4):
            mask = np.array(mask, dtype=bool)
            if mask.all() or not mask.any():
                continue
            cost = sum(((pts[g] - pts[g].mean(axis=0)) ** 2).sum()
                       for g in (mask, ~mask))
            best = min(best, cost)
        assert np.isclose(obj, best)
        assert np.isclose(obj, 0.01)
        assert np.allclose(sorted(centers.ravel()), [0.05, 10.05])

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            pts = rng.standard_normal((rng.integers(5, 40), rng.integers(1, 4)))
            k = int(rng.integers(1, min(6, len(pts)) + 1))
            history = []
            kmeans(pts, k, seed=trial, history=history)
            assert all(a >= b - 1e-9 for a, b in zip(history, history[1:])), history

    def test_deterministic(self):
        pts = np.random.default_rng(1).standard_normal((30, 2))
        a = kmeans(pts, 3, seed=5)
        b = kmeans(pts, 3, seed=5)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_k_too_large(self):
        with pytest.raises(ConfigurationError):
            kmeans(np.zeros((2, 1)), 3, seed=0)


class TestBuildIndex:
    def test_variance_formula(self):
        # class 0 = {0, 2} (center 1, residuals 1+1), class 1 = {5, 5}
        # (residuals 0); pooled over all N=4 points: 2 / (4 - 1) = 2/3
        ds = Dataset(np.array([[0.0], [2.0], [5.0], [5.0]]), np.array([0, 0, 1, 1]))
        idx = build_index(identity_model(1), ds, k=1, seed=0)
        assert np.isclose(idx.centers[0, 0], 1.0)  # class 0, cluster 0: row 0·k + 0
        assert np.isclose(idx.variance, 2.0 / 3.0)

    def test_zero_variance_floored(self):
        ds = Dataset(np.array([[1.0], [1.0], [3.0], [3.0]]), np.array([0, 0, 1, 1]))
        idx = build_index(identity_model(1), ds, k=1, seed=0)
        assert idx.variance == VARIANCE_FLOOR

    def test_k1_centers_are_class_means(self, small_dataset):
        model = identity_model(small_dataset.dim)
        idx = build_index(model, small_dataset, k=1, seed=0)
        for c in range(small_dataset.class_count):
            members = small_dataset.inputs[small_dataset.labels == c]
            assert np.allclose(idx.centers[c], members.mean(axis=0))  # row c·k + 0

    def test_deterministic(self, small_dataset):
        model = EmbeddingModel([3, 4], seed=1)
        a = build_index(model, small_dataset, k=2, seed=9)
        b = build_index(model, small_dataset, k=2, seed=9)
        assert (a.centers == b.centers).all()
        assert (a.example_cluster == b.example_cluster).all()

    def test_rows_grouped_by_class(self, small_dataset):
        # cluster j of class c is row c·k + j, so every example's row
        # divided by k gives back its label
        k = 2
        idx = build_index(EmbeddingModel([3, 4], seed=1), small_dataset, k=k, seed=9)
        classes = np.repeat(np.arange(small_dataset.class_count), k)
        np.testing.assert_array_equal(idx.cluster_classes, classes)
        np.testing.assert_array_equal(idx.example_cluster // k, small_dataset.labels)
        for row, members in enumerate(idx.members):
            np.testing.assert_array_equal(members, np.flatnonzero(idx.example_cluster == row))

    def test_k_exceeds_class_size(self):
        ds = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([0, 0, 1]))
        with pytest.raises(ConfigurationError, match="class 1"):
            build_index(identity_model(1), ds, k=2, seed=0)

    def test_magnet_refresh_shares_loss_cache(self, small_dataset):
        # the magnet step hands its one cache to every index it builds, so
        # losses written before a refresh steer seeding after it
        config = ExperimentConfig(layer_dims=[3, 4], k=2, m=2, d=2)
        step = _MagnetStep(config, small_dataset, small_dataset)
        step.refresh(0, step.model.snapshot(), 0)
        step.step(0, np.random.default_rng(0))
        written = step.loss_cache.copy()
        assert np.isfinite(written).any()
        step.refresh(1, step.model.snapshot(), 1)
        assert step.index.loss_cache is step.loss_cache
        np.testing.assert_array_equal(step.loss_cache, written)


class TestClassKmeans:
    points = np.array([[0.0], [1.0], [9.0]])

    def test_clamp_takes_fewer_clusters_and_skips_empty_classes(self):
        centers, classes, example_cluster = class_kmeans(self.points, [0, 0, 2], 2, 0, "clamp")
        np.testing.assert_array_equal(classes, [0, 0, 2])
        np.testing.assert_array_equal(centers[example_cluster], self.points)

    def test_pad_repeats_the_last_center(self):
        centers, classes, example_cluster = class_kmeans(self.points, [0, 0, 1], 2, 0, "pad")
        np.testing.assert_array_equal(classes, [0, 0, 1, 1])
        np.testing.assert_array_equal(centers[2:], [[9.0], [9.0]])
        assert example_cluster[2] == 2

    @pytest.mark.parametrize("labels", [[0, 0], [0, -1, 1]], ids=["short", "negative"])
    def test_labels_must_be_one_non_negative_tag_per_point(self, labels):
        with pytest.raises(ConfigurationError, match="points need a non-negative label each"):
            class_kmeans(self.points, labels, 1, 0, "clamp")

    @pytest.mark.parametrize("small, match", [
        ("raise", "class 1 has 1 examples, fewer than K=2"), ("pad", "class 1 has no examples")])
    def test_refused_classes(self, small, match):
        labels = [0, 0, 1] if small == "raise" else [0, 0, 2]
        with pytest.raises(ConfigurationError, match=match):
            class_kmeans(self.points, labels, 2, 0, small)


class TestLossCache:
    def make_index(self):
        ds = Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]), np.array([0, 0, 1, 1]))
        return build_index(identity_model(1), ds, k=1, seed=0)

    def test_cluster_mean(self):
        idx = self.make_index()
        idx.update_loss_cache([(0, 1.0), (1, 3.0)])
        means = idx.cluster_mean_losses()
        assert np.isclose(means[0], 2.0)

    def test_uncached_fallback_global_mean_then_one(self):
        idx = self.make_index()
        assert (idx.cluster_mean_losses() == 1.0).all()
        idx.update_loss_cache([(0, 4.0)])
        means = idx.cluster_mean_losses()
        assert np.isclose(means[1], 4.0)  # global mean

    def test_overwrite_semantics(self):
        idx = self.make_index()
        idx.update_loss_cache([(0, 1.0), (1, 3.0)])
        idx.update_loss_cache([(0, 5.0)])
        assert np.isclose(idx.cluster_mean_losses()[0], 4.0)


class TestNearestImpostors:
    def make_index(self):
        # three 1-cluster classes at 0, 1, 5
        ds = Dataset(np.array([[0.0], [1.0], [5.0]] * 2).reshape(6, 1),
                     np.array([0, 1, 2, 0, 1, 2]))
        return build_index(identity_model(1), ds, k=1, seed=0)

    def test_nearest_ranking(self):
        idx = self.make_index()
        rows, truncated = idx.nearest_impostor_clusters(0, 1)
        assert rows.tolist() == [1]
        assert not truncated

    def test_truncation_flag(self):
        idx = self.make_index()
        rows, truncated = idx.nearest_impostor_clusters(0, 10)
        assert len(rows) == 2 and truncated

    def test_same_class_never_returned(self):
        ds = Dataset(np.array([[0.0], [0.5], [9.0], [9.5]]), np.array([0, 0, 1, 1]))
        idx = build_index(identity_model(1), ds, k=2, seed=0)
        rows, _ = idx.nearest_impostor_clusters(0, 10)
        assert (idx.cluster_classes[rows] != 0).all()

    def test_distances_non_decreasing(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.standard_normal((40, 2)), np.repeat(np.arange(4), 10))
        idx = build_index(identity_model(2), ds, k=2, seed=0)
        rows, _ = idx.nearest_impostor_clusters(0, 6)
        dists = np.linalg.norm(idx.centers[rows] - idx.centers[0], axis=1)
        assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))

