import numpy as np
import pytest

from magnetdml import (
    Dataset,
    MixtureSpec,
    Mode,
    collapse_labels,
    generate_mixture,
    load_dataset,
    random_pairing,
    save_dataset,
    split,
)
from magnetdml.errors import ConfigurationError, ParseError


class TestDatasetInvariants:
    def test_every_class_present(self):
        with pytest.raises(ConfigurationError):
            Dataset(inputs=np.zeros((2, 1)), labels=np.array([0, 2]))

    def test_attribute_alignment(self):
        with pytest.raises(ConfigurationError):
            Dataset(inputs=np.zeros((2, 1)), labels=np.array([0, 1]),
                    attributes=np.zeros((3, 2)))

    def test_attributes_binary(self):
        with pytest.raises(ConfigurationError):
            Dataset(inputs=np.zeros((2, 1)), labels=np.array([0, 1]),
                    attributes=np.array([[2, 0], [0, 1]]))

    @pytest.mark.parametrize("value", [300, -129, 0.5])
    def test_attributes_checked_before_the_int8_cast(self, value):
        # 300 and -129 were a raw OverflowError from the cast, 0.5 truncated to 0
        with pytest.raises(ConfigurationError, match="attributes must be binary"):
            Dataset(np.zeros((2, 1)), np.array([0, 1]), attributes=[[value], [1]])

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0, np.nan], [0, np.inf], [2**70, 0],
                                        [0, 2.0**64], np.array([0, 2**63], dtype=np.uint64),
                                        ["a", "b"], ["0", "1"], [0, None]],
                             ids=["fraction", "nan", "inf", "int_2**70", "float_2**64",
                                  "uint64_2**63", "letters", "digit_strings", "none"])
    def test_labels_checked_before_the_int64_cast(self, labels):
        # [0.5, 1.7] truncated to [0, 1], NaN warned in the cast, 2**70 and
        # "a" were a raw OverflowError and ValueError from it
        with pytest.raises(ConfigurationError, match="labels must be finite whole numbers"):
            Dataset(np.zeros((2, 1)), labels)

    def test_integral_float_labels_load(self):
        ds = Dataset(np.zeros((3, 1)), np.array([0.0, 1.0, -0.0]))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            Dataset(inputs=np.array([[0.0], [bad]]), labels=np.array([0, 1]))


class TestGenerateMixture:
    def test_zero_variance_single_mode(self):
        spec = MixtureSpec(classes=[[Mode([0.0, 0.0], 0.0, 3)]])
        ds = generate_mixture(spec, seed=1)
        assert ds.size == 3
        assert (ds.inputs == 0).all()
        assert (ds.labels == 0).all()

    def test_zero_variance_reproduces_centers(self):
        spec = MixtureSpec(classes=[
            [Mode([1.0, 0.0], 0.0, 2), Mode([2.0, 0.0], 0.0, 3)],
            [Mode([5.0, 5.0], 0.0, 2), Mode([9.0, 9.0], 0.0, 1)],
        ])
        ds = generate_mixture(spec, seed=0)
        assert np.bincount(ds.labels).tolist() == [5, 3]
        centers = {tuple(m.center) for modes in spec.classes for m in modes}
        assert {tuple(x) for x in ds.inputs} <= centers

    def test_deterministic(self):
        spec = MixtureSpec(classes=[[Mode([0.0], 1.0, 10)], [Mode([3.0], 1.0, 10)]])
        a = generate_mixture(spec, seed=42)
        b = generate_mixture(spec, seed=42)
        assert (a.inputs == b.inputs).all() and (a.labels == b.labels).all()

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            generate_mixture(MixtureSpec(classes=[[]]), seed=0)
        with pytest.raises(ConfigurationError):
            generate_mixture(MixtureSpec(classes=[[Mode([0.0], -1.0, 2)]]), seed=0)

    def test_mode_attributes(self):
        spec = MixtureSpec(classes=[[
            Mode([0.0], 0.0, 2, attributes=[1, 0]),
            Mode([1.0], 0.0, 3, attributes=[0, 1]),
        ]])
        ds = generate_mixture(spec, seed=0)
        assert ds.attributes.sum(axis=0).tolist() == [2, 3]

    def test_mixed_attributes_rejected_by_validate(self):
        # checked with the spec, before any data are drawn
        spec = MixtureSpec(classes=[[Mode([0.0], 1.0, 2, attributes=[1, 0])],
                                    [Mode([1.0], 1.0, 2)]])
        with pytest.raises(ConfigurationError, match="either all modes or no modes"):
            spec.validate()

    @pytest.mark.parametrize("value", [300, 2, -1, 0.5])
    def test_non_binary_attribute_rejected_by_validate(self, value):
        # a 300 used to escape as a raw OverflowError from the int8 cast
        spec = MixtureSpec(classes=[[Mode([0.0], 1.0, 2, attributes=[value, 1])]])
        with pytest.raises(ConfigurationError, match="class 0 has an attribute value other"):
            spec.validate()


class TestLoadDataset:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n")
        ds = load_dataset(p)
        assert ds.size == 2 and ds.dim == 2 and ds.class_count == 2

    def test_dense_remap(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f0\n5,1.0\n9,2.0\n5,3.0\n")
        ds = load_dataset(p)
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.class_count == 2

    def test_remap_follows_ascending_raw_label(self, tmp_path):
        # classes used to be numbered by first appearance, so a CSV of the
        # same classes in another row order numbered them differently
        p = tmp_path / "d.csv"
        p.write_text("label,f0\n9,1.0\n5,2.0\n9,3.0\n")
        assert load_dataset(p).labels.tolist() == [1, 0, 1]

    def test_raw_labels_kept_through_split_and_save(self, tmp_path):
        # save_dataset used to write the class numbers 0 and 1 for 5 and 9
        p = tmp_path / "d.csv"
        p.write_text("label,f0\n9,1.0\n5,2.0\n9,3.0\n5,4.0\n")
        ds = load_dataset(p)
        assert ds.raw_labels == (5, 9)
        assert all(part.raw_labels == (5, 9) for part in split(ds, 0.5, seed=0))
        save_dataset(ds, tmp_path / "back.csv")
        assert (tmp_path / "back.csv").read_text() == p.read_text()
        with pytest.raises(ConfigurationError, match="1 raw labels for 2 classes"):
            Dataset(ds.inputs, ds.labels, raw_labels=(5,))

    def test_label_only_file_rejected(self, tmp_path):
        # a header of 'label' alone used to load as a (3, 0) dataset
        p = tmp_path / "d.csv"
        p.write_text("label\n0\n1\n0\n")
        with pytest.raises(ConfigurationError, match="d >= 1"):
            load_dataset(p)

    def test_inconsistent_dimension_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n0,1.0,2.0,3.0\n")
        with pytest.raises(ParseError, match="line 4"):
            load_dataset(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_value_names_line(self, tmp_path, bad):
        p = tmp_path / "d.csv"
        p.write_text(f"label,f0,f1\n0,1.0,2.0\n\n1,3.0,{bad}\n")
        with pytest.raises(ParseError, match="line 4: non-finite"):
            load_dataset(p)

    def test_line_after_a_multi_line_field_is_named_by_its_physical_line(self, tmp_path):
        # the quoted "1\n" spans lines 2 and 3, so the x is on line 4
        p = tmp_path / "d.csv"
        p.write_text('label,f0\n0,"1\n"\n1,x\n')
        with pytest.raises(ParseError, match="line 4: could not convert string to float: 'x'"):
            load_dataset(p)

    def test_roundtrip(self, tmp_path, small_dataset):
        p = tmp_path / "d.csv"
        save_dataset(small_dataset, p)
        back = load_dataset(p)
        assert np.allclose(back.inputs, small_dataset.inputs)
        assert (back.labels == small_dataset.labels).all()

    def test_attributes_roundtrip(self, tmp_path):
        spec = MixtureSpec(classes=[[Mode([0.0], 0.1, 4, attributes=[1, 0])],
                                    [Mode([5.0], 0.1, 4, attributes=[0, 1])]])
        ds = generate_mixture(spec, seed=0)
        save_dataset(ds, tmp_path / "d.csv", attributes_path=tmp_path / "a.csv")
        back = load_dataset(tmp_path / "d.csv", attributes_path=tmp_path / "a.csv")
        assert (back.attributes == ds.attributes).all()

    @pytest.mark.parametrize("value", ["300", "2", "-1"])
    def test_non_binary_attribute_names_line(self, tmp_path, value):
        # a 300 used to escape as a raw OverflowError from the int8 cast
        (tmp_path / "d.csv").write_text("label,f0\n0,1.0\n1,2.0\n")
        (tmp_path / "a.csv").write_text(f"a0,a1\n1,0\n\n0,{value}\n")
        with pytest.raises(ParseError, match=f"a.csv: line 4: attribute value {value} is not 0"):
            load_dataset(tmp_path / "d.csv", attributes_path=tmp_path / "a.csv")


class TestSplit:
    def test_floor_rule(self):
        ds = Dataset(np.zeros((20, 1)) + np.arange(20)[:, None], np.repeat([0, 1], 10))
        train, test = split(ds, 0.2, seed=0)
        assert np.bincount(test.labels).tolist() == [2, 2]

    def test_minimum_rule(self):
        ds = Dataset(np.arange(20.0)[:, None], np.repeat([0, 1], 10))
        _, test = split(ds, 0.05, seed=0)
        assert np.bincount(test.labels).tolist() == [1, 1]

    def test_partition(self, small_dataset):
        train, test = split(small_dataset, 0.3, seed=1)
        combined = np.vstack([train.inputs, test.inputs])
        assert combined.shape == small_dataset.inputs.shape
        orig = {tuple(x) for x in small_dataset.inputs}
        assert {tuple(x) for x in combined} == orig

    def test_singleton_class_rejected(self):
        ds = Dataset(np.arange(3.0)[:, None], np.array([0, 0, 1]))
        with pytest.raises(ConfigurationError):
            split(ds, 0.5, seed=0)


class TestCollapseLabels:
    def test_direct_mapping(self):
        ds = Dataset(np.arange(4.0)[:, None], np.array([0, 1, 2, 3]))
        collapsed, fine = collapse_labels(ds, [(0, 1), (2, 3)])
        assert collapsed.labels.tolist() == [0, 0, 1, 1]
        assert fine.tolist() == [0, 1, 2, 3]
        assert collapsed.class_count == ds.class_count // 2

    def test_coverage_rule(self):
        ds = Dataset(np.arange(4.0)[:, None], np.array([0, 1, 2, 3]))
        with pytest.raises(ConfigurationError):
            collapse_labels(ds, [(0, 1), (1, 2)])
        with pytest.raises(ConfigurationError):
            collapse_labels(ds, [(0, 1)])

    def test_random_pairing_deterministic(self):
        assert random_pairing(8, seed=3) == random_pairing(8, seed=3)
        flat = [c for pair in random_pairing(8, seed=3) for c in pair]
        assert sorted(flat) == list(range(8))
