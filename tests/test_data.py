import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
        assert data.train.is_target.sum() == 200

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
        with pytest.raises(CsvFormatError, match="row 1.*'a'") as err:
            load_csv(path, CsvSchema(label_col="y"))
        assert str(err.value) == (f"{path}: non-numeric value 'foo' at "
                                  f"row 1, column 'a'")

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

    def test_underscore_digit_groups_rejected(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("a,y\n1_000,2\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="'1_000' at row 0"):
            load_csv(path)

    @pytest.mark.parametrize("header, repeated", [("a,a,y", "a"),
                                                  ("a,y,y", "y")])
    def test_repeated_column_rejected_on_load(self, tmp_path, header,
                                              repeated):
        path = tmp_path / "dup.csv"
        path.write_text(f"{header}\n1,2,3\n", encoding="utf-8")
        with pytest.raises(CsvFormatError,
                           match=f"repeated column '{repeated}'"):
            load_csv(path)

    @pytest.mark.parametrize("names, domain_col", [(["a", "a"], None),
                                                   (["a", "y"], None),
                                                   (["a", "d"], "d")])
    def test_repeated_column_rejected_on_save(self, tmp_path, names,
                                              domain_col):
        train, _ = gen_uniform_shift_1d(3, 2, seed=0)
        data = TrainingSet(np.hstack([train.X, train.X]), train.y,
                           train.is_target)
        schema = CsvSchema(feature_cols=names, domain_col=domain_col)
        with pytest.raises(ValueError, match="more than once"):
            save_csv(tmp_path / "dup.csv", data, schema)
        assert not (tmp_path / "dup.csv").exists()

    def test_byte_order_mark_dropped(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text('y,a,domain\n1.5,-2,source\n"3",4e-310,Target\n',
                         encoding="utf-8")
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        schema = CsvSchema(domain_col="domain")
        want, got = load_csv(plain, schema), load_csv(marked, schema)
        assert_same_bits(got, want)


def ref_load_csv(path, schema=None):
    """The per-cell loader that load_csv replaced, kept as its reference."""
    schema = schema or CsvSchema()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        needed = [schema.label_col]
        if schema.domain_col is not None:
            needed.append(schema.domain_col)
        if schema.feature_cols is not None:
            needed.extend(schema.feature_cols)
        for col in needed:
            if col not in header:
                raise CsvFormatError(f"{path}: missing column {col!r}")
        feature_cols = schema.feature_cols
        if feature_cols is None:
            feature_cols = [c for c in header
                            if c != schema.label_col and c != schema.domain_col]
        if not feature_cols:
            raise CsvFormatError(f"{path}: no feature columns")
        index = {c: header.index(c) for c in header}

        def cell(raw, row, col):
            try:
                return float(raw)
            except ValueError:
                raise CsvFormatError(
                    f"non-numeric value {raw!r} at row {row}, column {col!r}"
                ) from None

        rows, labels, flags = [], [], []
        for row_num, record in enumerate(reader):
            if len(record) != len(header):
                raise CsvFormatError(
                    f"{path}: row {row_num} has {len(record)} cells, "
                    f"expected {len(header)}"
                )
            rows.append([cell(record[index[c]], row_num, c)
                         for c in feature_cols])
            labels.append(cell(record[index[schema.label_col]],
                               row_num, schema.label_col))
            if schema.domain_col is not None:
                tag = record[index[schema.domain_col]].strip().lower()
                if tag not in ("source", "target"):
                    raise CsvFormatError(
                        f"{path}: row {row_num}: domain must be 'source' or "
                        f"'target', got {record[index[schema.domain_col]]!r}"
                    )
                flags.append(tag == "target")
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    X = np.array(rows, dtype=np.float64)
    y = np.array(labels, dtype=np.float64)
    if schema.domain_col is not None:
        return TrainingSet(X, y, np.array(flags, dtype=bool))
    return LabeledSample(X, y)


def ref_save_csv(path, data, schema=None):
    """The per-cell writer that save_csv replaced, kept as its reference."""
    schema = schema or CsvSchema()
    feature_cols = schema.feature_cols
    if feature_cols is None:
        feature_cols = [f"x{k}" for k in range(data.X.shape[1])]
    header = list(feature_cols) + [schema.label_col]
    is_training_set = isinstance(data, TrainingSet)
    if is_training_set:
        header.append(schema.domain_col or "domain")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(data)):
            row = [format(v, ".17g") for v in data.X[k]]
            row.append(format(data.y[k], ".17g"))
            if is_training_set:
                row.append("target" if data.is_target[k] else "source")
            writer.writerow(row)


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert got.X.flags["C_CONTIGUOUS"]
    assert got.X.shape == want.X.shape
    np.testing.assert_array_equal(got.X.view(np.int64), want.X.view(np.int64))
    np.testing.assert_array_equal(got.y.view(np.int64), want.y.view(np.int64))
    if isinstance(want, TrainingSet):
        np.testing.assert_array_equal(got.is_target, want.is_target)


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
                  np.inf, -np.inf, np.nan, 1.0, -3.0, 0.1, 1 / 3]
values = st.one_of(st.sampled_from(SPECIAL_VALUES),
                   st.integers(-10**17, 10**17).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def number_cells(draw):
    """One float written in one of the forms a CSV export may use."""
    v = draw(values)
    forms = ["%.17g" % v, repr(v), "%.3e" % v, "%.6g" % v]
    if np.isfinite(v) and v.is_integer():
        forms.append(str(int(v)))
    if np.isnan(v):
        forms += ["NaN", "-nan", "+nan"]
    elif np.isinf(v):
        forms += [("-" if v < 0 else "+") + "Infinity", repr(v).upper()]
    text = draw(st.sampled_from(forms))
    if draw(st.booleans()):
        text = " " + text + " "
    return f'"{text}"' if draw(st.booleans()) else text


domain_cells = st.sampled_from(["source", "target", "Source", "TARGET",
                                " target ", "sOuRcE  ", '"Target"',
                                '" source"'])


@st.composite
def csv_tables(draw):
    """A valid CSV text with its schema: columns in any order, a domain
    column or not, a chosen subset of features or all of them."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    features = [f"f{k}" for k in range(d)]
    with_domain = draw(st.booleans())
    names = features + ["y"] + (["dom"] if with_domain else [])
    names = draw(st.permutations(names))
    chosen = None
    if draw(st.booleans()):
        chosen = draw(st.permutations(features))[:draw(st.integers(1, d))]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(names)]
    for _ in range(n):
        lines.append(",".join(draw(domain_cells) if c == "dom"
                              else draw(number_cells()) for c in names))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    schema = CsvSchema(label_col="y", feature_cols=chosen,
                       domain_col="dom" if with_domain else None)
    return text, schema


def expected_error(path, schema):
    """The reference loader's message, led by the path as every
    CsvFormatError of load_csv is."""
    with pytest.raises(CsvFormatError) as err:
        ref_load_csv(path, schema)
    message = str(err.value)
    return message if message.startswith(f"{path}: ") else f"{path}: {message}"


class TestCsvMatchesReference:
    @given(table=csv_tables())
    def test_valid_tables_load_bit_for_bit(self, tmp_path_factory, table):
        text, schema = table
        path = tmp_path_factory.mktemp("prop") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_bits(load_csv(path, schema), ref_load_csv(path, schema))

    @pytest.mark.parametrize("text", [
        "a,y\n1,2\n3\n",                      # short row
        "a,y\n1\n3,4\n",                      # first row short
        "a,y\n1,2\n3,4,5\n",                  # long row
        "a,y\n1,2,3\n4,5,6\n",                # every row long
        "a,y\n1,2\n\n3,4\n",                   # blank line
        "a,y\r\n1,2\r\n\r\n",                  # trailing blank line
        "a,y\n1,2\n  \n3,4\n",                 # whitespace-only line
        "a,y\n1,2\nfoo,3\n",                  # non-numeric feature
        "a,y\n1,2\n3,bar\n5,x\n",              # non-numeric label
        "a,y\n1,2\n,3\n",                     # empty cell
        "a,y\n1,2\n3,4\n\n1,x\n",              # first fault wins
        "a,y\n#1,2\n3,4\n",                   # comment-like line
        "a,y\n# note\n3,4\n",                 # comment line
        "a,y\n",                              # header only
        "a,y\n\n",                            # header and a blank line
        "",                                    # empty file
        "a,y,domain\n1,2,source\n3,4,src\n",  # bad tag
        "a,y,domain\n1,2,\n",                 # empty tag
        "a,y,domain\nx,2,src\n",              # feature checked before tag
    ])
    def test_malformed_files_raise_the_reference_message(self, tmp_path,
                                                         text):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8"))
        schema = CsvSchema(domain_col="domain" if "domain" in text else None)
        with pytest.raises(CsvFormatError) as err:
            load_csv(path, schema)
        assert str(err.value) == expected_error(path, schema)

    @given(n=st.integers(0, 4), d=st.integers(1, 3), data=st.data(),
           training=st.booleans(),
           names=st.sampled_from([None, ["a,b", 'say "hi"', " c"]]))
    def test_save_writes_the_reference_bytes(self, tmp_path_factory, n, d,
                                             data, training, names):
        cells = st.lists(values, min_size=n * d, max_size=n * d)
        X = np.array(data.draw(cells), dtype=np.float64).reshape(n, d)
        y = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        if training:
            flags = data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n))
            sample = TrainingSet(X, y, np.array(flags, dtype=bool))
        else:
            sample = LabeledSample(X, y)
        schema = CsvSchema(feature_cols=None if names is None else names[:d],
                           domain_col="dom" if training else None)
        root = tmp_path_factory.mktemp("save")
        save_csv(root / "new.csv", sample, schema)
        ref_save_csv(root / "ref.csv", sample, schema)
        assert ((root / "new.csv").read_bytes()
                == (root / "ref.csv").read_bytes())

    def test_memory_stays_near_the_arrays(self, tmp_path):
        data = gen_mixture_shift(MixtureShiftSpec(dim=256, m=2000, seed=0))
        schema = CsvSchema(domain_col="domain")
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_csv(path, data.train, schema)
            save_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_csv(path, schema)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        returned = loaded.X.nbytes + loaded.y.nbytes + loaded.is_target.nbytes
        assert loaded.X.shape == (2000, 256)
        assert load_peak <= 3.5 * returned
        assert save_peak < 1e6
