import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import adaptqn
from adaptqn import (LogisticObjective, ParseError, SparseDataset, logistic_sc_scale,
                     max_row_norm, parse_libsvm, serialize_libsvm, synth_logistic)


def test_parse_basic_record():
    ds = parse_libsvm("+1 1:0.5 3:-0.2")
    assert ds.N == 1 and ds.n == 3
    np.testing.assert_array_equal(ds.X.indices, [0, 2])
    np.testing.assert_array_equal(ds.X.data, [0.5, -0.2])
    assert ds.labels[0] == 1.0


def test_parse_zero_one_labels_mapped():
    ds = parse_libsvm("0 2:1\n1 1:1")
    np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])
    assert ds.n == 2


def test_parse_rejects_nonincreasing_indices():
    with pytest.raises(ParseError, match="line 1"):
        parse_libsvm("+1 3:1 2:1")
    with pytest.raises(ParseError, match="line 2"):
        parse_libsvm("+1 1:1\n-1 2:1 2:3")


def test_parse_rejects_bad_tokens():
    with pytest.raises(ParseError, match="label"):
        parse_libsvm("cat 1:1")
    with pytest.raises(ParseError, match="label"):
        parse_libsvm("2 1:1")
    with pytest.raises(ParseError, match="line 1"):
        parse_libsvm("+1 1:abc")
    with pytest.raises(ParseError, match="index"):
        parse_libsvm("+1 0:1")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "+Infinity"])
def test_parse_rejects_non_finite_feature_values(value):
    # the line is counted past comments and blank lines
    text = f"+1 1:1 2:1\n# comment\n\n-1 1:2 3:{value}\n+1 2:1\n"
    with pytest.raises(ParseError, match=r"^line 4: feature 3 has non-finite value"):
        parse_libsvm(text)


def test_parse_reports_a_non_finite_value_before_a_later_malformed_row():
    with pytest.raises(ParseError, match=r"^line 1: feature 1 has non-finite value nan$"):
        parse_libsvm("+1 1:nan\n-1 1:1\n+1 2:1 2:3\n")


def test_parse_names_the_line_of_an_index_above_the_declared_count():
    with pytest.raises(ParseError, match=r"^line 3: index 5 exceeds declared feature count 3$"):
        parse_libsvm("+1 1:1\n# comment\n-1 2:1 5:1\n+1 3:1\n", n_features=3)


def test_parse_comments_and_blank_lines():
    text = "# header comment\n\n+1 1:2.0  # trailing\n\n-1 2:1\n"
    ds = parse_libsvm(text)
    assert ds.N == 2
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0])


def test_dimension_override():
    ds = parse_libsvm("+1 1:1", n_features=10)
    assert ds.n == 10
    with pytest.raises(ParseError):
        parse_libsvm("+1 5:1", n_features=3)


@pytest.mark.parametrize("n_features", [-1, 2.5, 2**63, "3"], ids=["negative", "fraction",
                                                                 "above-int64", "text"])
def test_parse_refuses_a_feature_count_that_is_no_int64_whole_number(n_features):
    with pytest.raises(ValueError, match=r"^n_features must be a whole number in "
                                         r"\[0, 9223372036854775807\], got "):
        parse_libsvm("+1\n-1\n", n_features=n_features)


@pytest.mark.parametrize("n_features", [0, np.int64(3), 2**63 - 1])
def test_parse_takes_a_feature_count_at_the_ends_of_its_range(n_features):
    ds = parse_libsvm("+1\n-1\n", n_features=n_features)
    assert ds.X.shape == (2, n_features)


def test_round_trip():
    rng = np.random.default_rng(0)
    lines = []
    for i in range(20):
        label = "+1" if rng.random() < 0.5 else "-1"
        cols = np.sort(rng.choice(30, size=rng.integers(0, 6), replace=False))
        feats = " ".join(f"{c + 1}:{rng.normal():.17g}" for c in cols)
        lines.append(f"{label} {feats}".strip())
    ds = parse_libsvm("\n".join(lines), n_features=30)
    ds2 = parse_libsvm(serialize_libsvm(ds), n_features=30)
    np.testing.assert_array_equal(ds.X.indptr, ds2.X.indptr)
    np.testing.assert_array_equal(ds.X.indices, ds2.X.indices)
    np.testing.assert_array_equal(ds.X.data, ds2.X.data)
    np.testing.assert_array_equal(ds.labels, ds2.labels)
    assert np.all(ds.X.indices < ds.n)


def test_max_row_norm():
    assert max_row_norm(parse_libsvm("+1 1:3 2:4")) == pytest.approx(5.0)
    zero = parse_libsvm("+1 1:0\n-1 2:0")
    assert max_row_norm(zero) == 0.0
    with pytest.raises(ValueError, match="all feature rows are zero"):
        logistic_sc_scale(zero)
    with pytest.raises(ValueError, match="empty dataset"):
        max_row_norm(parse_libsvm(""))


def test_max_row_norm_is_zero_when_every_square_underflows():
    # no row is zero, but 1e-170 squared is below the smallest subnormal
    tiny = parse_libsvm("+1 1:1e-170 2:1e-170\n-1 1:-1e-170")
    assert max_row_norm(tiny) == 0.0
    with pytest.raises(ValueError, match=r"underflows to 0.*sc_scale \(--sc-scale\)") as info:
        logistic_sc_scale(tiny)
    assert "all feature rows are zero" not in str(info.value)
    assert LogisticObjective(tiny, sc_scale=1.0).value(np.zeros(2)) == pytest.approx(np.log(2.0))


def test_max_row_norm_matches_dense():
    ds = synth_logistic(60, 12, seed=5)
    X = ds.X.toarray()
    assert max_row_norm(ds) == pytest.approx(np.max(np.linalg.norm(X, axis=1)), rel=1e-12)


def test_max_row_norm_is_bitwise_scipys_row_sum_of_squares():
    # the formula it replaced, kept as the reference: scipy's
    # X.power(2).sum(axis=1) reduces each non-empty row with np.add.reduceat
    from scipy.sparse import csr_matrix

    rng = np.random.default_rng(8)
    for _ in range(300):
        N, n = rng.integers(1, 25, size=2)
        # magnitudes up to 1e160, so that some squared norms overflow
        scale = rng.integers(-160, 161) + rng.integers(-3, 4, size=(N, n))
        dense = rng.normal(size=(N, n)) * 10.0 ** scale
        dense[rng.random((N, n)) < rng.random()] = 0.0
        dense[rng.random(N) < 0.3] = 0.0
        X = csr_matrix(dense)
        with np.errstate(over="ignore"):
            expected = float(np.sqrt(X.power(2).sum(axis=1).max()))
        got = max_row_norm(SparseDataset(X=X, labels=np.ones(N)))
        assert got.hex() == expected.hex()


def test_synth_logistic_determinism():
    a = synth_logistic(100, 10, seed=9)
    b = synth_logistic(100, 10, seed=9)
    np.testing.assert_array_equal(a.X.data, b.X.data)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = synth_logistic(100, 10, seed=10)
    assert not np.array_equal(a.labels, c.labels) or not np.array_equal(a.X.data, c.X.data)


def test_synth_logistic_integer_decay_is_the_equal_float():
    a = synth_logistic(50, 25, seed=1, feature_decay=10)
    b = synth_logistic(50, 25, seed=1, feature_decay=10.0)
    assert a.X.data.tobytes() == b.X.data.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def test_synth_logistic_large_decay_builds_finite_data_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = synth_logistic(20, 400, seed=1, feature_decay=10.0)
    assert np.isfinite(ds.X.data).all()
    assert max_row_norm(ds) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("N, n", [(0, 5), (5, 0)])
def test_synth_logistic_refuses_an_empty_shape(N, n):
    with pytest.raises(ValueError, match="N and n must be positive"):
        synth_logistic(N, n, seed=0)


@pytest.mark.parametrize("name, value", [
    ("feature_decay", float("nan")), ("feature_decay", -10.0), ("feature_decay", 0.0),
    ("feature_decay", float("inf")), ("max_norm", float("nan")), ("max_norm", -2.0),
    ("max_norm", 0.0), ("max_norm", float("inf")), ("separation", float("nan")),
    ("separation", float("inf")), ("separation", -float("inf")),
])
def test_synth_logistic_refuses_what_the_cli_refuses(name, value):
    with pytest.raises(ValueError, match=f"{name} must be"):
        synth_logistic(5, 400, seed=1, **{name: value})


def test_synth_logistic_zero_separation_is_balanced():
    # separation 0 labels are fair coin flips; 3-sigma binomial band
    N = 4000
    ds = synth_logistic(N, 5, seed=3, separation=0.0)
    frac = np.mean(ds.labels == 1.0)
    assert abs(frac - 0.5) < 3.0 * 0.5 / np.sqrt(N)


def test_synth_logistic_max_norm_pinned():
    ds = synth_logistic(200, 20, seed=1, max_norm=2.0)
    assert max_row_norm(ds) == pytest.approx(2.0, rel=1e-12)


def test_dataset_is_one_csr_matrix_with_int32_indices():
    ds = parse_libsvm("+1 1:0.5 3:-0.2\n-1\n+1 2:1", n_features=4)
    assert ds.X.format == "csr" and ds.X.shape == (3, 4)
    assert ds.X.indptr.dtype == ds.X.indices.dtype == np.int32
    np.testing.assert_array_equal(ds.X.indptr, [0, 2, 2, 3])
    np.testing.assert_array_equal(ds.X.toarray(), [[0.5, 0, -0.2, 0], [0, 0, 0, 0],
                                                    [0, 1, 0, 0]])
    with pytest.raises(AttributeError):
        ds.X = None


def test_from_dense_keeps_explicit_zeros_in_row_order():
    X = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    ds = SparseDataset.from_dense(X, np.array([1.0, -1.0]))
    assert ds.X.nnz == 6
    np.testing.assert_array_equal(ds.X.data, X.ravel())
    np.testing.assert_array_equal(ds.X.indices, [0, 1, 2, 0, 1, 2])
    assert ds.X.indices.dtype == np.int32


def test_from_dense_shares_no_memory_with_its_inputs():
    X = np.arange(6.0).reshape(2, 3)
    labels = np.array([1.0, -1.0])
    ds = SparseDataset.from_dense(X, labels)
    for a in (ds.X.data, ds.X.indices, ds.X.indptr, ds.labels):
        assert not np.shares_memory(a, X) and not np.shares_memory(a, labels)
    for F in (np.asfortranarray(X), X.astype(np.float32)):
        ds = SparseDataset.from_dense(F, labels)
        assert not np.shares_memory(ds.X.data, F)
        np.testing.assert_array_equal(ds.X.data, X.ravel())


def test_from_dense_without_columns_matches_a_labels_only_file():
    ds = SparseDataset.from_dense(np.zeros((3, 0)), np.array([1.0, -1.0, 1.0]))
    parsed = parse_libsvm("+1\n-1\n+1")
    assert ds.X.shape == parsed.X.shape == (3, 0)
    for a, b in ((ds.X.indptr, parsed.X.indptr), (ds.X.indices, parsed.X.indices),
                 (ds.X.data, parsed.X.data), (ds.labels, parsed.labels)):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype


@pytest.mark.parametrize("labels", [[1.0, -1.0], [1.0, -1.0, 1.0, -1.0], [[1.0, -1.0, 1.0]]],
                         ids=["short", "long", "2d"])
def test_from_dense_refuses_labels_of_the_wrong_shape(labels):
    with pytest.raises(ValueError, match=r"labels have shape .*, expected \(3,\)"):
        SparseDataset.from_dense(np.ones((3, 2)), labels)


@pytest.mark.parametrize("labels", [[0.0, 1.0], [1.0, 2.0], [-1.0, np.nan]],
                         ids=["zero-one", "two", "nan"])
def test_from_dense_refuses_labels_other_than_plus_minus_one(labels):
    with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
        SparseDataset.from_dense(np.ones((2, 2)), labels)


def test_package_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse is loaded by the dataset builders, not by the package
    src = str(Path(adaptqn.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import adaptqn; "
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
