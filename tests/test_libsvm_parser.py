"""Differential tests of ``parse_libsvm`` against the one-token-at-a-time
loop it replaced, kept here as the reference: on random valid files and
on the same files with faults injected, both must return identical
arrays, dtypes and feature counts, or raise the same exception with the
same message. The chunk size is drawn small, so rows and errors fall on
both sides of chunk boundaries, and the tokens are drawn on both sides
of the limits of the byte route, which reads plain chunks from their
bytes; anything else goes through the string route. Each text is also
written to a file, with "\n", "\r\n" or "\r" line ends and sometimes
behind a byte-order mark, which ``load_libsvm`` must read as the
reference reads the text, and so must ``parse_libsvm`` read the file's
bytes decoded as text."""

import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adaptqn import ParseError, SparseDataset, data_io, load_libsvm, parse_libsvm
from conftest import property_test


def reference_parse_libsvm(source) -> SparseDataset:
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
            if idx > np.iinfo(np.int64).max:
                raise ParseError(f"index {idx} exceeds the int64 range", lineno)
            if not math.isfinite(val):
                raise ParseError(f"feature {idx} has non-finite value {val}", lineno)
            prev = idx
            indices.append(idx - 1)
            values.append(val)
        max_index = max(max_index, prev)
        indptr.append(len(indices))
    idx = data_io._index_dtype(len(indices), max_index)
    return data_io._dataset(np.asarray(indptr, dtype=idx), np.asarray(indices, dtype=idx),
                            np.asarray(values, dtype=float), np.asarray(labels, dtype=float),
                            max_index)


# Each list starts with the forms of a plain file, which the byte route
# reads, when no value in it has more than 15 significant digits.
PLAIN_LABELS = ["+1", "-1", "1", "0", "-0"]
LABELS = PLAIN_LABELS + ["1.0", "-1.0", "+1e0", "0.0", "1_0e-1"]
PLAIN_VALUES = ["1", "-0", "0", "-0.0", "0.000001"]
VALUES = PLAIN_VALUES + ["+3", "1_0", "1e-3", ".5", "5.", "-1.5E+2"]
# str.split() whitespace that is no line break to the file reader
PLAIN_SPACES = [" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\x1f"]
SPACES = PLAIN_SPACES + ["\x85", "\u3000"]
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# Faults and near-faults. The plain ones hold only digits, signs, dots,
# colons and spaces, so that the byte route meets them.
PLAIN_FAULTY_LABELS = ["2", "-2", "+", "-", "1:1", "+-1", "1-", "1.", ".1", "01",
                       # one byte either side of the byte route's longest label
                       "+000000000000000001", "-0000000000000000001", "0000000000000000001"]
FAULTY_LABELS = PLAIN_FAULTY_LABELS + ["cat", "nan", "0.5", "1e999"]
PLAIN_FAULTY_TOKENS = ["7", "3::1", "3:1:2", ":1", "3:", ":", "3: 7", "0:1", "-2:1", "+2:1",
                       "1.5:1", "3:+1", "3:1-", "3:--1", "3:-", "3:5.", "3:.", "3:1.2.3", "3:-.5",
                       "-99999999999999999999:1", "99999999999999999999:1",
                       # 18 digits, the byte route's longest index, then the int64 range's ends
                       "999999999999999999:1", "9223372036854775807:1", "9223372036854775808:1",
                       # signs and dots at the byte route's longest fields
                       "+000000000000000001:1", "1:+1234567890123456", "1:+12345678901234567",
                       "1:+.1234567890123456", "1:-.1234567890123456", "1:.12345678901234567",
                       "1:-.12345678901234567"]
FAULTY_TOKENS = PLAIN_FAULTY_TOKENS + ["1e1:1", "3:abc", "3:0x1", "x"]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "+Infinity"]


def _pick(rng, forms):
    return forms[rng.integers(len(forms))]


def _index_text(rng, i: int, plain: bool) -> str:
    s = str(i)
    # with leading zeros, 18 digits still take the byte route and 19 do not
    forms = [s, s, "00" + s, s.zfill(18)]
    if not plain:
        forms += ["+" + s, s.translate(ARABIC_INDIC), s.zfill(19)]
        if len(s) > 1:
            forms.append(s[0] + "_" + s[1:])
    return _pick(rng, forms)


def _value_text(rng, plain: bool) -> str:
    u = rng.random()
    if u < 0.4:  # 1-17 significant digits
        digits = str(rng.integers(1, 10)) + "".join(map(str, rng.integers(0, 10, rng.integers(17))))
        point = int(rng.integers(len(digits) + 1))
        text = (digits[:point] or "0") + ("." + digits[point:] if point < len(digits) else "")
        return "-" + text if rng.random() < 0.5 else text
    if u < 0.7 and not plain:
        return repr(float(rng.normal()))
    return _pick(rng, PLAIN_VALUES if plain else VALUES)


def _records(rng, plain: bool):
    """Lines of a valid file: records as [label, tokens] with strictly
    increasing indices, or blank and comment-only lines as strings."""
    lines = []
    for _ in range(rng.integers(0, 15)):
        kind = rng.integers(6)
        if kind == 0:
            lines.append(_pick(rng, PLAIN_SPACES if plain else SPACES) if rng.random() < 0.5 else "")
        elif kind == 1 and not plain:
            lines.append("# a comment: 1:2 nan")
        else:
            width = int(rng.integers(0, 7))
            cols = np.sort(rng.choice(40, size=width, replace=False)) + 1
            tokens = [f"{_index_text(rng, int(c), plain)}:{_value_text(rng, plain)}" for c in cols]
            lines.append([_pick(rng, PLAIN_LABELS if plain else LABELS), tokens])
    return lines


def _render(rng, lines, plain: bool) -> str:
    out = []
    for line in lines:
        if isinstance(line, list):
            label, tokens = line
            text = label
            for tok in tokens:
                text += _pick(rng, PLAIN_SPACES if plain else SPACES) + tok
            if rng.random() < 0.2 and not plain:
                text += " # trailing 3:x"
            line = text
        out.append(line + ("\r\n" if rng.random() < 0.3 else "\n"))
    text = "".join(out)
    return text[:-1] if text and rng.random() < 0.2 else text


def _inject(rng, lines, plain: bool) -> None:
    """Put one fault into a random record, if there is one."""
    records = [line for line in lines if isinstance(line, list)]
    if not records:
        return
    record = records[rng.integers(len(records))]
    tokens = record[1]
    kind = rng.integers(5)
    if kind == 0:
        record[0] = _pick(rng, PLAIN_FAULTY_LABELS if plain else FAULTY_LABELS)
    elif kind == 1 or not tokens:
        tokens.insert(int(rng.integers(len(tokens) + 1)),
                      _pick(rng, PLAIN_FAULTY_TOKENS if plain else FAULTY_TOKENS))
    elif kind == 3 and len(tokens) > 1:  # a decreasing index
        k = int(rng.integers(len(tokens) - 1))
        tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
    elif kind in (2, 3):  # a repeated index
        k = int(rng.integers(len(tokens)))
        tokens.insert(k, tokens[k])
    else:
        k = int(rng.integers(len(tokens)))
        tokens[k] = tokens[k].partition(":")[0] + ":" + NON_FINITE[rng.integers(len(NON_FINITE))]


def _outcome(parse, text):
    try:
        ds = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return ds


def _assert_same(text, chunk_chars):
    expected = _outcome(reference_parse_libsvm, text)
    with mock.patch.object(data_io, "_CHUNK_CHARS", chunk_chars):
        got = _outcome(parse_libsvm, text)
    _assert_equal_outcomes(got, expected)


BOM = b"\xef\xbb\xbf"


def _assert_file_same(data: bytes, text, chunk_chars):
    """The file of ``data``, read in blocks of ``chunk_chars`` bytes,
    loads as the reference parses ``text``, and ``parse_libsvm`` reads
    ``data`` decoded as text in the same way."""
    expected = _outcome(reference_parse_libsvm, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.svm"
        path.write_bytes(data)
        with mock.patch.object(data_io, "_CHUNK_CHARS", chunk_chars):
            got = _outcome(load_libsvm, path)
            parsed = _outcome(parse_libsvm, data.decode("utf-8", "surrogateescape"))
    _assert_equal_outcomes(got, expected)
    _assert_equal_outcomes(parsed, expected)


def _file_bytes(rng, text: str) -> bytes:
    """``text`` as a file's bytes: its line ends as drawn, or all "\n",
    "\r\n" or "\r", and a byte-order mark before a third of them."""
    ending = _pick(rng, [None, "\n", "\r\n", "\r"])
    if ending is not None:
        text = text.replace("\r\n", "\n").replace("\n", ending)
    return BOM * (rng.random() < 0.3) + text.encode("utf-8")


def _assert_equal_outcomes(got, expected):
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


@property_test
@given(st.integers(0, 2**32 - 1), st.integers(1, 160))
def test_valid_files_parse_as_the_reference(seed, chunk_chars):
    rng = np.random.default_rng(seed)
    plain = rng.random() < 0.5
    text = _render(rng, _records(rng, plain), plain)
    _assert_same(text, chunk_chars)
    assert not isinstance(_outcome(reference_parse_libsvm, text), tuple)
    _assert_file_same(_file_bytes(rng, text), text, chunk_chars)


@property_test
@given(st.integers(0, 2**32 - 1), st.integers(1, 160), st.integers(1, 3))
def test_faulty_files_fail_as_the_reference(seed, chunk_chars, faults):
    rng = np.random.default_rng(seed)
    plain = rng.random() < 0.5
    lines = _records(rng, plain)
    for _ in range(faults):
        _inject(rng, lines, plain)
    text = _render(rng, lines, plain)
    _assert_same(text, chunk_chars)
    _assert_file_same(_file_bytes(rng, text), text, chunk_chars)


def test_chunks_of_the_default_size_parse_as_the_reference():
    rng = np.random.default_rng(5)
    lines = [f"{'+1' if rng.random() < 0.5 else '-1'} "
             + " ".join(f"{c + 1}:{rng.normal():.17g}"
                        for c in np.sort(rng.choice(300, size=rng.integers(0, 30), replace=False)))
             for _ in range(3000)]
    text = "\n".join(lines)
    _assert_same(text, data_io._CHUNK_CHARS)
    # errors in the last chunk, after earlier ones converted in bulk
    _assert_same(text + "\n+1 5:1 5:2\n", data_io._CHUNK_CHARS)
    _assert_same(text + "\n+1 5:nan\n", data_io._CHUNK_CHARS)
    # an index too large for int64 is an error of its row, ahead of later ones
    huge = "-1 99999999999999999999:1\n"
    _assert_same(huge + text, data_io._CHUNK_CHARS)
    _assert_same(huge + text + "\n+1 5:1:1\n", data_io._CHUNK_CHARS)
    # the same rows with a comment on every 7th, blank lines and 1e-3
    # values: every block takes the string route, which numbers its lines
    noted = "\n".join((f"{line} 301:1e-3 # row {i}" if i % 7 == 0 else line) + "\n" * (i % 13 == 0)
                      for i, line in enumerate(lines))
    _assert_same(noted, data_io._CHUNK_CHARS)
    _assert_same(noted + "\n+1 5:1e-3 5:2 # last\n", data_io._CHUNK_CHARS)
    _assert_same(noted + "\n+1 5:1e-3 301:inf # last\n", data_io._CHUNK_CHARS)


def test_tokens_whose_colon_counts_offset_each_other_are_refused():
    # one ':' too many in a token and one too few in another leave a
    # chunk with as many ':' as tokens and two parts a token
    for text in ["+1 1:2:3 5", "+1 5 1:2:3", "-1 2:1\n+1 3:4:5\n-1 6", "-1 6\n+1 3:4:5\n"]:
        for chunk_chars in (1, 8, 64):
            _assert_same(text, chunk_chars)


def test_plain_files_are_read_from_their_bytes(tmp_path):
    # a file shaped like the benchmark's and one of short decimals parse
    # with the string route refusing every chunk: a byte route that never
    # ran would leave every differential test above green
    rng = np.random.default_rng(11)

    def row(value):
        cols = np.sort(rng.choice(200, size=rng.integers(0, 12), replace=False)) + 1
        return " ".join([rng.choice(["+1", "-1"])] + [f"{c}:{value()}" for c in cols])

    binary = "\n".join(row(lambda: 1) for _ in range(3000)) + "\n"
    decimal = "\n".join(row(lambda: f"{rng.normal():.{rng.integers(0, 7)}f}")
                        for _ in range(3000)) + "\n"
    # at their longest: a signed 18-digit label, an 18-digit index, and a
    # value of 17 bytes after its sign
    longest = ("+000000000000000001 000000000000000002:-0.000000000000001\n"
               "-1 3:0.00000000000001\n")
    refuse = mock.patch.object(data_io, "_from_strings",
                               side_effect=AssertionError("a chunk took the string route"))
    for text in (binary, decimal, longest):
        expected = parse_libsvm(text)
        with refuse:
            for chunk_chars in (40, data_io._CHUNK_CHARS):
                _assert_same(text, chunk_chars)
            for bom, ending in ((b"", "\r\n"), (BOM, "\r"), (BOM, "\n")):
                path = tmp_path / "plain.svm"
                path.write_bytes(bom + text.replace("\n", ending).encode("ascii"))
                for chunk_chars in (40, data_io._CHUNK_CHARS):
                    with mock.patch.object(data_io, "_CHUNK_CHARS", chunk_chars):
                        got = load_libsvm(path)
                    for a, b in ((got.X.indptr, expected.X.indptr),
                                 (got.X.indices, expected.X.indices),
                                 (got.X.data, expected.X.data), (got.labels, expected.labels)):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_long_values_take_the_string_route_before_their_digits_are_read():
    # %.17f values are 19 bytes or more, beyond the byte route's 17 after
    # a sign: their length refuses each chunk before any digit is read
    rng = np.random.default_rng(12)
    text = "".join(
        " ".join([rng.choice(["+1", "-1"])]
                 + [f"{c}:{rng.normal():.17f}"
                    for c in np.sort(rng.choice(50, size=rng.integers(1, 8), replace=False)) + 1])
        + "\n" for _ in range(500))
    with mock.patch.object(data_io, "_digits",
                           side_effect=AssertionError("a long value's digits were read")):
        for chunk_chars in (1, 40, data_io._CHUNK_CHARS):
            _assert_same(text, chunk_chars)
            _assert_file_same(text.encode("ascii"), text, chunk_chars)


def test_a_crlf_split_between_reads_ends_one_line():
    # every read size puts a "\r\n" across two reads somewhere; a line
    # counted twice would misnumber the error on line 3
    text = "+1 1:1\r\n-1 2:1\r\n+1 3:1 3:2\r\n"
    data = text.encode("ascii")
    for chunk_chars in range(1, len(data) + 1):
        _assert_file_same(data, text, chunk_chars)
        _assert_file_same(data[:data.index(b"+1 3")], text[:text.index("+1 3")], chunk_chars)


def test_a_lone_cr_at_the_end_of_the_file_ends_its_line():
    for text in ("+1 1:1\r-1 2:1\r", "+1 1:1\r-1 2:1 2:3\r", "\r", "+1 1:1\r\r"):
        for chunk_chars in (1, 2, 3, 7, 64):
            _assert_file_same(text.encode("ascii"), text.replace("\r", "\n"), chunk_chars)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_byte_that_is_not_utf8_in_a_later_block_names_its_line(tmp_path, ending):
    # the reference reads text; a file's undecodable byte is an error of
    # its line, and the rows before it parse first
    path = tmp_path / "bad.svm"
    lines = ["+1 1:1 2:0.5", "-1 2:1", "", "+1 1:1 4:\xff", "-1 2:1 2:3"]
    data = ending.join(lines).encode("latin-1")
    path.write_bytes(data)
    message = r"^line 4: not UTF-8 text: cannot decode byte 0xff$"
    for chunk_chars in (1, 8, 16, 24):
        assert data.index(b"\xff") >= len(BOM) + chunk_chars  # past the first block
        with mock.patch.object(data_io, "_CHUNK_CHARS", chunk_chars), \
                pytest.raises(ParseError, match=message) as raised:
            load_libsvm(path)
        assert type(raised.value.line_number) is int


def test_a_byte_order_mark_is_skipped_before_an_error_on_line_1(tmp_path):
    for text in ("2 1:1\n-1 2:1\n", "+1 3:1 2:1\n", "+1 1:1:1\n"):
        for chunk_chars in (1, 2, 5, 64):
            _assert_file_same(BOM + text.encode("ascii"), text, chunk_chars)
    # the mark is not part of the label that the message names
    path = tmp_path / "bom.svm"
    path.write_bytes(BOM + b"2 1:1\n")
    with pytest.raises(ParseError, match=r"^line 1: label must be -1, 0 or \+1, got '2'$"):
        load_libsvm(path)


@pytest.mark.parametrize("token", FAULTY_LABELS + FAULTY_TOKENS)
def test_faults_in_plain_files_fail_as_the_reference(token):
    # each meets the byte route as a label, among features, and last in
    # its chunk
    for text in [f"{token} 2:1\n-1 1:1\n", f"+1 1:1 {token} 50:2\n-1 2:1\n",
                 f"-1 2:0.5\n+1 {token}\n", f"-1 2:0.5\n+1 {token}"]:
        for chunk_chars in (1, 12, 64):
            _assert_same(text, chunk_chars)


def test_text_is_read_as_a_file_that_holds_it():
    # a lone "\r" ends a line and a leading U+FEFF is skipped, as in a file
    ds = parse_libsvm("+1 1:1\r-1 2:1\n")
    assert ds.labels.tolist() == [1.0, -1.0] and ds.X.indices.tolist() == [0, 1]
    _assert_equal_outcomes(parse_libsvm("\ufeff+1 1:1\n"), parse_libsvm("+1 1:1\n"))
    for k in (1, 2, 3):
        lines = ["+1 1:1", "-1 2:1", "+1 3:1"]
        lines[k - 1] += " # \udcff"
        for chunk_chars in (1, 8, 64):
            with mock.patch.object(data_io, "_CHUNK_CHARS", chunk_chars), \
                    pytest.raises(ParseError, match=rf"^line {k}: not UTF-8 text: "
                                                    r"cannot decode byte 0xff$"):
                parse_libsvm("\n".join(lines))
    # a surrogate that stands for no byte cannot be read, even in a comment
    with pytest.raises(UnicodeEncodeError):
        parse_libsvm("+1 1:1 # \ud800\n")


@pytest.mark.parametrize("source", [["+1 1:1\n", "-1 2:1\n"], b"+1 1:1\n"],
                         ids=["list", "bytes"])
def test_a_source_that_is_not_a_str_is_refused(source):
    with pytest.raises(TypeError, match=f"got {type(source).__name__}$"):
        parse_libsvm(source)
