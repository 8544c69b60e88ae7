"""Differential tests of ``parse_libsvm`` against the one-token-at-a-time
loop it replaced, kept here as the reference: on random valid files and
on the same files with faults injected, both must return identical
arrays, dtypes and feature counts, or raise the same exception with the
same message. The chunk size is drawn small, so rows and errors fall on
both sides of chunk boundaries."""

import io
import math
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from adaptqn import ParseError, SparseDataset, data_io, parse_libsvm
from conftest import property_test


def reference_parse_libsvm(source, n_features=None) -> SparseDataset:
    """``parse_libsvm`` as it read each token before chunked conversion,
    with every check made on the token it concerns."""
    if isinstance(source, str):
        source = io.StringIO(source)
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    labels: list[float] = []
    max_index = 0
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"non-numeric label {tokens[0]!r}", lineno) from None
        if label not in (-1.0, 0.0, 1.0):
            raise ParseError(f"label must be -1, 0 or +1, got {tokens[0]!r}", lineno)
        labels.append(-1.0 if label <= 0.0 else 1.0)
        prev = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"malformed feature token {tok!r}", lineno) from None
            if idx < 1:
                raise ParseError(f"index must be >= 1, got {idx}", lineno)
            if idx <= prev:
                raise ParseError(f"indices must be strictly increasing, got {idx} after {prev}", lineno)
            if n_features is not None and idx > n_features:
                raise ParseError(f"index {idx} exceeds declared feature count {n_features}", lineno)
            if idx > np.iinfo(np.int64).max:
                raise ParseError(f"index {idx} exceeds the int64 range", lineno)
            if not math.isfinite(val):
                raise ParseError(f"feature {idx} has non-finite value {val}", lineno)
            prev = idx
            indices.append(idx - 1)
            values.append(val)
        max_index = max(max_index, prev)
        indptr.append(len(indices))
    n = max_index if n_features is None else n_features
    idx = data_io._index_dtype(len(indices), n)
    return data_io._dataset(np.asarray(indptr, dtype=idx), np.asarray(indices, dtype=idx),
                            np.asarray(values, dtype=float), np.asarray(labels, dtype=float), n)


LABELS = ["+1", "-1", "1", "0", "1.0", "-1.0", "+1e0", "0.0", "-0", "1_0e-1"]
VALUES = ["1", "+3", "1_0", "1e-3", ".5", "-0", "5.", "-1.5E+2", "0"]
# str.split() whitespace that is no line break to the file reader
SPACES = [" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\x1f", "\x85", "　"]
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FAULTY_LABELS = ["2", "cat", "nan", "-2", "0.5", "1e999", "+", "1:1"]
FAULTY_TOKENS = ["7", "3::1", "3:1:2", ":1", "3:", ":", "0:1", "-2:1", "1.5:1", "1e1:1",
                 "3:abc", "3:0x1", "-99999999999999999999:1", "99999999999999999999:1"]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "+Infinity"]


def _index_text(rng, i: int) -> str:
    s = str(i)
    forms = [s, s, "+" + s, "00" + s, s.translate(ARABIC_INDIC)]
    if len(s) > 1:
        forms.append(s[0] + "_" + s[1:])
    return forms[rng.integers(len(forms))]


def _value_text(rng) -> str:
    if rng.random() < 0.5:
        return repr(float(rng.normal()))
    return VALUES[rng.integers(len(VALUES))]


def _records(rng):
    """Lines of a valid file: records as [label, tokens] with strictly
    increasing indices, or blank and comment-only lines as strings."""
    lines = []
    for _ in range(rng.integers(0, 15)):
        kind = rng.integers(6)
        if kind == 0:
            lines.append(SPACES[rng.integers(len(SPACES))] if rng.random() < 0.5 else "")
        elif kind == 1:
            lines.append("# a comment: 1:2 nan")
        else:
            width = int(rng.integers(0, 7))
            cols = np.sort(rng.choice(40, size=width, replace=False)) + 1
            tokens = [f"{_index_text(rng, int(c))}:{_value_text(rng)}" for c in cols]
            lines.append([LABELS[rng.integers(len(LABELS))], tokens])
    return lines


def _render(rng, lines) -> str:
    out = []
    for line in lines:
        if isinstance(line, list):
            label, tokens = line
            text = label
            for tok in tokens:
                text += SPACES[rng.integers(len(SPACES))] + tok
            if rng.random() < 0.2:
                text += " # trailing 3:x"
            line = text
        out.append(line + ("\r\n" if rng.random() < 0.3 else "\n"))
    text = "".join(out)
    return text[:-1] if text and rng.random() < 0.2 else text


def _inject(rng, lines) -> bool:
    """Put one fault into a random record, if there is one. Returns True
    when the fault is to declare too few features, which the caller does."""
    records = [line for line in lines if isinstance(line, list)]
    if not records:
        return False
    record = records[rng.integers(len(records))]
    tokens = record[1]
    kind = rng.integers(6)
    if kind == 0:
        record[0] = FAULTY_LABELS[rng.integers(len(FAULTY_LABELS))]
    elif kind == 1 or not tokens:
        tokens.insert(int(rng.integers(len(tokens) + 1)),
                      FAULTY_TOKENS[rng.integers(len(FAULTY_TOKENS))])
    elif kind == 2:  # a repeated index
        k = int(rng.integers(len(tokens)))
        tokens.insert(k, tokens[k])
    elif kind == 3 and len(tokens) > 1:  # a decreasing index
        k = int(rng.integers(len(tokens) - 1))
        tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
    elif kind == 4:
        k = int(rng.integers(len(tokens)))
        tokens[k] = tokens[k].partition(":")[0] + ":" + NON_FINITE[rng.integers(len(NON_FINITE))]
    else:
        return True
    return False


def _outcome(parse, text, n_features):
    try:
        ds = parse(text, n_features)
    except ValueError as exc:
        return type(exc), str(exc)
    return ds


def _assert_same(text, n_features, chunk_tokens):
    expected = _outcome(reference_parse_libsvm, text, n_features)
    with mock.patch.object(data_io, "_CHUNK_TOKENS", chunk_tokens):
        got = _outcome(parse_libsvm, text, n_features)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert isinstance(got, SparseDataset), got
    assert got.X.shape == expected.X.shape
    for a, b in ((got.X.indptr, expected.X.indptr), (got.X.indices, expected.X.indices),
                 (got.X.data, expected.X.data), (got.labels, expected.labels)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def _assert_walk_is_bulk(text, n_features, chunk_tokens):
    """On the chunks of a valid file, ``_walk`` returns ``_bulk``'s labels,
    indices, values and largest index, bit for bit."""
    with mock.patch.object(data_io, "_CHUNK_TOKENS", chunk_tokens):
        chunks = list(data_io._gather(io.StringIO(text)))
    for labels, linenos, counts, feats in chunks:
        bulk = data_io._bulk(labels, counts, feats, n_features)
        assert bulk is not None
        walk = data_io._walk(labels, linenos, counts, feats, n_features)
        for a, b in zip(walk[:3], bulk[:3]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert walk[3] == bulk[3]


@property_test
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans())
def test_valid_files_parse_as_the_reference(seed, chunk_tokens, declare):
    rng = np.random.default_rng(seed)
    text = _render(rng, _records(rng))
    n_features = 40 + int(rng.integers(3)) if declare else None
    _assert_same(text, n_features, chunk_tokens)
    assert not isinstance(_outcome(reference_parse_libsvm, text, n_features), tuple)
    _assert_walk_is_bulk(text, n_features, chunk_tokens)


@property_test
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 3))
def test_faulty_files_fail_as_the_reference(seed, chunk_tokens, faults):
    rng = np.random.default_rng(seed)
    lines = _records(rng)
    too_few = any([_inject(rng, lines) for _ in range(faults)])
    n_features = int(rng.integers(0, 40)) if too_few else None
    _assert_same(_render(rng, lines), n_features, chunk_tokens)


def test_chunks_of_the_default_size_parse_as_the_reference():
    rng = np.random.default_rng(5)
    lines = [f"{'+1' if rng.random() < 0.5 else '-1'} "
             + " ".join(f"{c + 1}:{rng.normal():.17g}"
                        for c in np.sort(rng.choice(300, size=rng.integers(0, 30), replace=False)))
             for _ in range(3000)]
    text = "\n".join(lines)
    _assert_same(text, None, data_io._CHUNK_TOKENS)
    # errors in the last chunk, after earlier ones converted in bulk
    _assert_same(text + "\n+1 5:1 5:2\n", None, data_io._CHUNK_TOKENS)
    _assert_same(text + "\n+1 5:nan\n", None, data_io._CHUNK_TOKENS)
    # an index too large for int64 is an error of its row, ahead of later ones
    huge = "-1 99999999999999999999:1\n"
    _assert_same(huge + text, None, data_io._CHUNK_TOKENS)
    _assert_same(huge + text + "\n+1 5:1:1\n", None, data_io._CHUNK_TOKENS)
    _assert_same(huge + text, 300, data_io._CHUNK_TOKENS)


def test_tokens_whose_colon_counts_offset_each_other_are_refused():
    # one ':' too many in a token and one too few in another leave a
    # chunk with as many ':' as tokens and two parts a token
    for text in ["+1 1:2:3 5", "+1 5 1:2:3", "-1 2:1\n+1 3:4:5\n-1 6", "-1 6\n+1 3:4:5\n"]:
        for chunk_tokens in (1, 3, 64):
            _assert_same(text, None, chunk_tokens)
