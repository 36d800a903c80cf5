import numpy as np
import pytest

from wann.data import (MixtureShiftSpec, CsvFormatError, CsvSchema,
                       LabeledSample, TrainingSet, gen_mixture_shift,
                       gen_uniform_shift_1d, labeling_fn, load_csv, save_csv)


class TestLabelingFn:
    def test_hand_values(self):
        assert labeling_fn(np.array([1.0, -1.0])) == 1.0
        assert labeling_fn(np.zeros(3)) == 0.0
        assert labeling_fn(np.array([3.0, -4.0, 0.0, 1.0])) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            labeling_fn(np.zeros(0))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=8)
            np.testing.assert_allclose(labeling_fn(x),
                                       labeling_fn(x[rng.permutation(8)]),
                                       rtol=1e-14)

    def test_positively_homogeneous(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=5)
            c = rng.uniform(0, 10)
            np.testing.assert_allclose(labeling_fn(c * x),
                                       c * labeling_fn(x), rtol=1e-12)

    def test_matrix_rows(self):
        X = np.array([[1.0, -1.0], [3.0, 1.0]])
        np.testing.assert_allclose(labeling_fn(X), [1.0, 2.0])


class TestMixtureShift:
    def test_counts_and_shapes(self):
        spec = MixtureShiftSpec(dim=64, m=1000, target_fraction=0.2,
                                n_validation=1000, seed=3)
        data = gen_mixture_shift(spec)
        assert len(data.train) == 1000
        assert data.train.n_target == 200  # exact rounded count
        assert data.train.n_source == 800
        assert data.validation.X.shape == (1000, 64)
        assert data.origin_flags.sum() == 200
        np.testing.assert_array_equal(data.origin_flags,
                                      data.train.is_target)

    def test_flagged_count_exactly_rounded(self):
        for m, frac, expect in ((10, 0.25, 2), (7, 0.5, 4), (100, 0.333, 33)):
            data = gen_mixture_shift(MixtureShiftSpec(dim=2, m=m,
                                                      target_fraction=frac,
                                                      seed=1))
            assert data.train.n_target == expect

    def test_labels_follow_labeling_fn_exactly(self):
        data = gen_mixture_shift(MixtureShiftSpec(dim=8, m=100, seed=4))
        np.testing.assert_array_equal(data.train.y, labeling_fn(data.train.X))
        np.testing.assert_array_equal(data.validation.y,
                                      labeling_fn(data.validation.X))

    def test_validation_mean_near_target_center(self):
        # CLT: per-coordinate sample mean within 4 sigma/sqrt(k)
        spec = MixtureShiftSpec(dim=12, m=50, n_validation=1000, seed=5)
        data = gen_mixture_shift(spec)
        deviation = np.abs(data.validation.X.mean(axis=0)
                           - data.target_center)
        assert (deviation < 4.0 / np.sqrt(1000)).all()

    def test_centers_in_hypercube(self):
        data = gen_mixture_shift(MixtureShiftSpec(dim=6, m=50, seed=6))
        assert np.abs(data.mixture_centers).max() <= 1.0
        assert np.abs(data.target_center).max() <= 1.0
        assert data.mixture_centers.shape == (6, 6)

    def test_seeded_determinism(self):
        spec = MixtureShiftSpec(dim=5, m=60, seed=7)
        a = gen_mixture_shift(spec)
        b = gen_mixture_shift(spec)
        np.testing.assert_array_equal(a.train.X, b.train.X)
        np.testing.assert_array_equal(a.validation.X, b.validation.X)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="target_fraction"):
            MixtureShiftSpec(dim=4, target_fraction=1.5)


class TestUniformShift1d:
    def test_supports_and_identity_labels(self):
        train, grid = gen_uniform_shift_1d(80, 40, seed=8)
        src = train.source_rows()
        tgt = train.target_rows()
        assert ((src.X[:, 0] >= 0) & (src.X[:, 0] <= 2)).all()
        assert ((tgt.X[:, 0] >= 1) & (tgt.X[:, 0] <= 3)).all()
        np.testing.assert_array_equal(train.y, train.X[:, 0])
        np.testing.assert_array_equal(grid.y, grid.X[:, 0])

    def test_overlap_populated_for_moderate_sizes(self):
        for seed in range(5):
            train, _ = gen_uniform_shift_1d(50, 50, seed=seed)
            src = train.source_rows().X[:, 0]
            tgt = train.target_rows().X[:, 0]
            assert ((src >= 1) & (src <= 2)).any()
            assert ((tgt >= 1) & (tgt <= 2)).any()

    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            gen_uniform_shift_1d(0, 5)


class TestCsv:
    def test_small_file_loads(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
        sample = load_csv(path, CsvSchema(label_col="y"))
        assert sample.X.shape == (3, 2)
        np.testing.assert_array_equal(sample.y, [3.0, 6.0, 9.0])

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,y\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(path, CsvSchema(label_col="y"))

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="'y'"):
            load_csv(path, CsvSchema(label_col="y"))

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1,2\nfoo,3\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="row 3.*'a'"):
            load_csv(path, CsvSchema(label_col="y"))

    def test_domain_column_round_trip(self, tmp_path):
        train, _ = gen_uniform_shift_1d(10, 5, seed=9)
        path = tmp_path / "t.csv"
        schema = CsvSchema(domain_col="domain")
        save_csv(path, train, schema)
        loaded = load_csv(path, schema)
        assert isinstance(loaded, TrainingSet)
        np.testing.assert_array_equal(loaded.X, train.X)
        np.testing.assert_array_equal(loaded.y, train.y)
        np.testing.assert_array_equal(loaded.is_target, train.is_target)

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(10)
        sample = LabeledSample(rng.normal(size=(6, 3)) * 1e-7,
                               rng.normal(size=6) * 1e9)
        path = tmp_path / "rt.csv"
        save_csv(path, sample)
        loaded = load_csv(path)
        np.testing.assert_allclose(loaded.X, sample.X, rtol=0, atol=1e-12)
        np.testing.assert_allclose(loaded.y, sample.y, rtol=1e-12)

    def test_bad_domain_value_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y,domain\n1,2,src\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="source.*target"):
            load_csv(path, CsvSchema(label_col="y", domain_col="domain"))
