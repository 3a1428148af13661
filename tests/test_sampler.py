import numpy as np
import pytest

from magnetdml import (
    Dataset,
    EmbeddingModel,
    TripletMiner,
    build_index,
    sample_neighbourhood,
    sample_triplets,
    seed_distribution,
)
from magnetdml.errors import ConfigurationError


def identity_model(dim):
    m = EmbeddingModel([dim, dim], seed=0)
    m.weights[0] = np.eye(dim)
    m.biases[0][:] = 0
    return m


def two_cluster_index():
    ds = Dataset(np.array([[0.0], [0.5], [1.0], [10.0], [10.5], [11.0]]),
                 np.array([0, 0, 0, 1, 1, 1]))
    return build_index(identity_model(1), ds, k=1, seed=0), ds


class TestSeedDistribution:
    def test_uniform_when_equal(self):
        idx, _ = two_cluster_index()
        idx.update_loss_cache([0, 3], [2.0, 2.0])
        assert np.allclose(seed_distribution(idx), [0.5, 0.5])

    def test_proportional(self):
        idx, _ = two_cluster_index()
        idx.update_loss_cache([0, 3], [1.0, 3.0])
        p = seed_distribution(idx)
        assert np.isclose(p[0], 0.25)  # row c·k + j of class c, cluster j
        assert np.isclose(p[1], 0.75)

    def test_zero_mass_cluster(self):
        idx, _ = two_cluster_index()
        idx.update_loss_cache([0, 3], [0.0, 2.0])
        p = seed_distribution(idx)
        assert p[0] == 0.0
        assert p[1] == 1.0

    def test_all_zero_falls_back_to_uniform(self):
        idx, _ = two_cluster_index()
        idx.update_loss_cache(range(6), [0.0] * 6)
        assert np.allclose(seed_distribution(idx), [0.5, 0.5])

    def test_sums_to_one(self):
        idx, _ = two_cluster_index()
        idx.update_loss_cache([0, 3], [0.3, 1.7])
        assert np.isclose(seed_distribution(idx).sum(), 1.0)


class TestSampleNeighbourhood:
    def test_forced_outcome(self):
        idx, _ = two_cluster_index()
        nb = sample_neighbourhood(idx, m=2, d=2, rng=0)
        assert len(nb.clusters) == 2
        assert set(nb.cluster_classes) == {0, 1}
        for slot in range(2):
            rows = nb.example_indices[nb.example_clusters == slot]
            assert len(set(rows)) == 2  # without replacement

    def test_replacement_fallback(self):
        ds = Dataset(np.array([[0.0], [0.5], [1.0], [10.0]]), np.array([0, 0, 0, 1]))
        idx = build_index(identity_model(1), ds, k=1, seed=0)
        nb = sample_neighbourhood(idx, m=2, d=4, rng=0)
        assert nb.replacement_fallback
        assert (nb.example_clusters == np.repeat([0, 1], 4)).all()

    def test_default_scale_shape(self):
        # 12 classes, 1 cluster each -> 11 impostors available
        rng = np.random.default_rng(1)
        inputs = np.concatenate([rng.normal(5 * c, 0.1, (6, 2)) for c in range(12)])
        ds = Dataset(inputs, np.repeat(np.arange(12), 6))
        idx = build_index(identity_model(2), ds, k=1, seed=0)
        nb = sample_neighbourhood(idx, m=12, d=4, rng=3)
        assert len(nb.clusters) == 12
        assert len(nb.example_indices) == 48
        assert not nb.truncated

    def test_impostors_class_filtered(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.standard_normal((40, 2)), np.repeat(np.arange(4), 10))
        idx = build_index(identity_model(2), ds, k=2, seed=0)
        nb = sample_neighbourhood(idx, m=4, d=3, rng=5)
        seed_class = nb.cluster_classes[0]
        assert all(c != seed_class for c in nb.cluster_classes[1:])
        # every example belongs to its listed cluster per the index
        for row, slot in zip(nb.example_indices, nb.example_clusters):
            assert idx.example_cluster[row] == nb.clusters[slot]

    def test_deterministic_given_seed(self):
        idx, _ = two_cluster_index()
        a = sample_neighbourhood(idx, m=2, d=2, rng=7)
        b = sample_neighbourhood(idx, m=2, d=2, rng=7)
        assert (a.example_indices == b.example_indices).all()

    def test_single_class_rejected(self):
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 0]))
        idx = build_index(identity_model(1), ds, k=2, seed=0)
        with pytest.raises(ConfigurationError):
            sample_neighbourhood(idx, m=2, d=1, rng=0)

    def test_seed_frequencies_match_distribution(self):
        idx, _ = two_cluster_index()
        idx.update_loss_cache([0, 3], [1.0, 3.0])
        p = seed_distribution(idx)
        rng = np.random.default_rng(11)
        draws = 20_000
        hits = 0
        target_row = 1  # class 1, cluster 0
        for _ in range(draws):
            nb = sample_neighbourhood(idx, m=2, d=1, rng=rng)
            if nb.clusters[0] == target_row:
                hits += 1
        freq = hits / draws
        se = np.sqrt(p[target_row] * (1 - p[target_row]) / draws)
        assert abs(freq - p[target_row]) < 3 * se


class TestSampleTriplets:
    def make_data(self):
        rng = np.random.default_rng(4)
        reps = rng.standard_normal((20, 2))
        labels = np.repeat([0, 1], 10)
        return reps, labels

    def test_positive_never_seed(self):
        reps, labels = self.make_data()
        s, p, n = sample_triplets(TripletMiner(reps, labels), 200, impostor_fraction=1.0, rng=0)
        assert (s != p).all()
        assert (labels[s] == labels[p]).all()
        assert (labels[s] != labels[n]).all()

    def test_fraction_one_uniform_negatives(self):
        reps, labels = self.make_data()
        s, p, n = sample_triplets(TripletMiner(reps, labels), 5000, impostor_fraction=1.0, rng=1)
        # every other-class example should appear as a negative
        for c in (0, 1):
            negs = set(n[labels[s] == c])
            assert negs == set(np.flatnonzero(labels != c))

    def test_half_fraction_nearest_on_two_by_two(self):
        # 2 classes x 2 examples: fraction 0.5 pools exactly the single
        # nearest other-class example
        reps = np.array([[0.0], [1.0], [0.2], [5.0]])
        labels = np.array([0, 0, 1, 1])
        s, p, n = sample_triplets(TripletMiner(reps, labels), 50, impostor_fraction=0.5, rng=2)
        for t in range(50):
            others = np.flatnonzero(labels != labels[s[t]])
            d = np.abs(reps[others, 0] - reps[s[t], 0])
            assert n[t] == others[np.argsort(d, kind="stable")[0]]

    def test_deterministic(self):
        reps, labels = self.make_data()
        a = sample_triplets(TripletMiner(reps, labels), 10, impostor_fraction=0.5, rng=9)
        b = sample_triplets(TripletMiner(reps, labels), 10, impostor_fraction=0.5, rng=9)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_single_class_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_triplets(TripletMiner(np.zeros((3, 1)), np.zeros(3, dtype=int)), 2, 1.0, rng=0)

    def test_no_class_of_two_rejected(self):
        # used to raise numpy's ValueError from concatenating no classes
        with pytest.raises(ConfigurationError, match="no class has two examples"):
            TripletMiner(np.zeros((3, 1)), np.array([0, 1, 2]))
