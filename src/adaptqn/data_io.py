"""LIBSVM-format parsing, dataset statistics and synthetic data generation."""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParseError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = [
    "SparseDataset",
    "parse_libsvm",
    "load_libsvm",
    "serialize_libsvm",
    "max_row_norm",
    "synth_logistic",
]


# Stored entries from which a dataset keeps X' as a CSR copy and the
# logistic oracle splits a product with X or X' between two CPUs. With a
# worker round trip of 20-30 us, a split saved 10-30% of a 200,000-entry
# product, 30-40% at 600,000 and about nothing at 100,000-150,000. Below
# it, X' stays a view of X's arrays: a copy made smaller products slower.
SPLIT_NNZ = 200_000


@dataclass(frozen=True)
class SparseDataset:
    """Row-sparse feature matrix with +-1 labels.

    ``X`` is an N x n ``scipy.sparse.csr_matrix``, the one view of the
    features: row i owns ``X.indices[X.indptr[i]:X.indptr[i+1]]``
    (0-based, strictly increasing) and the matching ``X.data``. Index
    arrays are int32 when the shape and entry count fit. Explicitly
    stored zeros are kept.
    """

    X: csr_matrix
    labels: np.ndarray

    @functools.cached_property
    def XT(self):
        """X' for products X'c, built on the first X'c. Below SPLIT_NNZ
        stored entries, a CSC matrix sharing X's arrays. From SPLIT_NNZ
        on, a CSR copy, whose products can be split by output row: nnz
        * 12 bytes with int32 indices (7.2 MB for a dense 400 x 1500 X).
        Its row j holds column j's entries in the order of their rows
        of X, so its product with c adds the terms of (X'c)_j in the
        order that the CSC scatter adds them, with the same bits."""
        return self.X.T.tocsr() if self.X.indptr[-1] >= SPLIT_NNZ else self.X.T

    @functools.cached_property
    def row_gram(self) -> np.ndarray:
        """The dense N x N row Gram matrix X X', read-only, for Newton
        solves with n > N. Computed on first use only: no other caller
        pays for it."""
        A = self.X.toarray()
        gram = A @ A.T
        gram.flags.writeable = False
        return gram

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @staticmethod
    def from_dense(X: np.ndarray, labels: np.ndarray) -> "SparseDataset":
        """Store a dense N x n matrix as CSR, zeros included. Raises
        ValueError unless ``labels`` holds N values, each -1 or +1."""
        N, n = X.shape
        labels = np.asarray(labels, dtype=float)
        if labels.shape != (N,):
            raise ValueError(f"labels have shape {labels.shape}, expected ({N},)")
        if not np.isin(labels, (-1.0, 1.0)).all():
            raise ValueError("labels must be -1 or +1")
        idx = _index_dtype(N * n, n)
        indptr = np.arange(N + 1, dtype=idx) * n
        indices = np.tile(np.arange(n, dtype=idx), N)
        return _dataset(indptr, indices, X.astype(float, order="C").ravel(), labels.copy(), n)


def _index_dtype(nnz: int, n: int):
    """int32 when every index and row offset fits, else int64."""
    return np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64


def _dataset(indptr, indices, values, labels, n: int) -> SparseDataset:
    """Wrap CSR arrays without copying; scipy.sparse is imported here,
    not at package import, so programs without CSR data never load it."""
    from scipy.sparse import csr_matrix

    X = csr_matrix((values, indices, indptr), shape=(indptr.shape[0] - 1, n), copy=False)
    return SparseDataset(X=X, labels=labels)


# Text is read in blocks of about this many bytes, each converted whole.
# The bound keeps a block's transient arrays small.
_CHUNK_CHARS = 1 << 16

# The UTF-8 byte-order mark that a file may start with, as latin-1 reads it.
_BOM = "\xef\xbb\xbf"

_INT64_MAX = int(np.iinfo(np.int64).max)

# The byte route's classes of ASCII bytes, as a bytes.translate table. A
# byte of class _OTHER (a letter, '#', '_', a non-ASCII byte, ...) sends
# its chunk to the string route. _SPACE is the ASCII whitespace that
# str.split() splits at, except "\n"; fields are runs of digits, signs
# and dots.
_OTHER, _SPACE, _NEWLINE, _COLON, _FIELD = range(5)
_CLASS = bytes({**dict.fromkeys(b"\t\x0b\x0c\r\x1c\x1d\x1e\x1f ", _SPACE),
                ord("\n"): _NEWLINE, ord(":"): _COLON,
                **dict.fromkeys(b"0123456789+-.", _FIELD)}.get(i, _OTHER) for i in range(256))
# The byte route reads the k-th byte before the end of every field at
# once, for k up to 19 (a sign and 18 digits); this many spaces before a
# chunk keep those reads inside it.
_PAD = b" " * 18
_TEN = np.array([float(10 ** k) for k in range(17)])


def parse_libsvm(text: str) -> SparseDataset:
    """Parse LIBSVM text: one ``<label> <idx>:<val> ...`` record per line.

    Indices are 1-based and must be strictly increasing within a row;
    they are stored 0-based. Each token is read as Python's ``int`` and
    ``float`` read it. Feature values must be finite. ``#`` starts a
    comment, blank lines are skipped. Labels +1/-1 are kept; 0/1 files
    are mapped 0 -> -1, 1 -> +1; anything else is a parse error. n is the
    largest index in the data; an index above the int64 range is an
    error. The first error in file order is raised, naming its line.

    ``text`` is read as ``load_libsvm`` reads a file that holds it,
    encoded as UTF-8 with "surrogateescape": "\r\n" and "\r" end lines
    as "\n" does, a leading U+FEFF is skipped, U+DC80-U+DCFF stand for
    the bytes 0x80-0xff, and a line whose bytes are not UTF-8 raises
    ParseError. Any other lone surrogate raises UnicodeEncodeError, a
    ValueError, before any line is read, and a non-str ``text`` TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse_libsvm reads a str, got {type(text).__name__}")
    data = io.BytesIO(text.encode("utf-8", "surrogateescape"))
    return _read(io.TextIOWrapper(data, encoding="latin-1", newline=None))


def load_libsvm(path) -> SparseDataset:
    """Parse the LIBSVM file at path, which must be UTF-8 text, as
    ``parse_libsvm`` parses the text it holds. A leading byte-order mark
    is skipped. The file is read once, as latin-1 text, one character a
    byte, whose text mode ends lines at "\r\n" and "\r" as at "\n", a
    block of whole lines at a time: a byte that is not UTF-8 raises
    ParseError naming its line, unless an earlier line holds an error."""
    with open(path, encoding="latin-1", newline=None) as fh:
        return _read(fh)


def _read(fh) -> SparseDataset:
    """The dataset of a latin-1 text file's blocks, in file order."""
    labels, counts, indices, values, max_index = zip(
        *(_convert(block, first) for first, block in _blocks(fh)))
    n = max(max_index)
    idx = _index_dtype(sum(v.size for v in values), n)
    counts = np.concatenate(counts)
    indptr = np.zeros(counts.size + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    return _dataset(indptr, np.concatenate(indices, dtype=idx), np.concatenate(values),
                    np.concatenate(labels), n)


def _blocks(fh):
    """Yield the lines of a file opened as latin-1 text a block at a time,
    as ``(number of its first line, its bytes)``: about ``_CHUNK_CHARS``
    characters, one per byte, cut after the last "\n", to which text
    mode has turned each "\r\n" and lone "\r". A leading byte-order mark
    is skipped. Always yields at least one block; only a file without
    lines yields an empty one."""
    head = fh.read(len(_BOM))
    pieces, first = ["" if head == _BOM else head], 1
    while data := fh.read(_CHUNK_CHARS):
        cut = data.rfind("\n") + 1
        if cut:
            pieces.append(data[:cut])
            block = "".join(pieces).encode("latin-1")
            yield first, block
            # numpy counts a block's bytes faster than bytes.count
            first += int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))
            pieces = [data[cut:]]
        else:
            pieces.append(data)
    block = "".join(pieces).encode("latin-1")
    if block or first == 1:
        yield first, block


def _convert(block: bytes, first: int) -> tuple:
    """One block of whole lines, numbered from ``first``, as +-1 labels,
    feature counts, 0-based int64 indices, values and the largest index.
    The block is read from its bytes (``_from_bytes``) when it can be,
    else decoded as UTF-8 and read one token at a time, as ``float`` and
    ``int`` read it (``_from_strings``), which raises its first error;
    both give the same arrays."""
    label, counts, idx, values = _from_bytes(block) or _from_strings(block, first)
    return (np.where(label <= 0.0, -1.0, 1.0), counts, idx - 1, values,
            int(idx.max(initial=0)))


def _from_bytes(block: bytes) -> tuple | None:
    """The byte route: labels, feature counts, 1-based indices and values
    of a block of whole ASCII lines, each ended by "\n" but perhaps the
    last, tokenized by numpy passes over its bytes. Labels are ``[+-]?``
    and 1-18 digits, indices 1-18 digits. Values are ``-?digits``,
    ``-?digits.digits`` or ``-?.digits``, at most 17 bytes after the
    sign, with at most 15 significant digits; each is read as M / 10**F:
    M < 2**53 and 10**F (F <= 16) are exact, so the one division rounds
    as ``float`` does (Clinger, PLDI 1990), and is finite. None for a
    block with a token outside this grammar, a '#', a non-ASCII byte, a
    label not -1, 0 or +1, or indices not >= 1 and strictly increasing
    in each row: the string route reads it."""
    raw = _PAD + block + b"\n"
    classes = raw.translate(_CLASS)
    if bytes([_OTHER]) in classes:
        return None
    a, c = np.frombuffer(raw, dtype=np.uint8), np.frombuffer(classes, dtype=np.uint8)
    in_field = c == _FIELD
    edges = np.flatnonzero(in_field[1:] != in_field[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    # each field that ends at a ':' is an index, and the one right after
    # it a value. A value holds at most 17 bytes after its sign and any
    # other field 18; this is checked before any other pass, so that a
    # chunk of long values costs little before the string route
    colon = c[ends] == _COLON
    value = np.zeros_like(colon)
    value[1:] = colon[:-1]
    n = ends - starts
    if n.max(initial=0) > 17:
        head = a[starts]
        if (n - ((head == ord("+")) | (head == ord("-"))) > 18 - value).any():
            return None
    newlines = np.flatnonzero(c == _NEWLINE)
    # the first field of each line is its label; each other field ends at
    # a ':' (an index) or starts right after one (a value)
    label = np.zeros(starts.size + 1, dtype=bool)
    label[np.searchsorted(starts, newlines)] = True
    label[0] = True
    label = label[:-1]
    index = np.flatnonzero(colon)
    if (colon[-1:].any() or np.count_nonzero(a == ord(":")) != index.size
            or ((label.view(np.int8) + colon.view(np.int8) + value.view(np.int8)) != 1).any()
            or (starts[index + 1] != ends[index] + 1).any()):
        return None
    rows = np.flatnonzero(label)
    first = a[starts[rows]]
    signed = (first == ord("+")) | (first == ord("-"))
    negative = a[starts[index + 1]] == ord("-")
    # values first: long ones are the likeliest to send a chunk away
    read = (_digits(a, starts[index + 1] + negative, ends[index + 1], float, dots=True),
            _digits(a, starts[rows] + signed, ends[rows], float),
            _digits(a, starts[index], ends[index], np.int64))
    # a sign only starts a label or a value, and each '.' is one of a value's
    if (any(r is None for r in read)
            or np.count_nonzero(signed) + np.count_nonzero(negative)
            != np.count_nonzero(a == ord("+")) + np.count_nonzero(a == ord("-"))
            or np.count_nonzero(read[0][1]) != np.count_nonzero(a == ord("."))):
        return None
    (M, F), (labels, _), (idx, _) = read
    # labels are still unsigned; each index exceeds the one before it,
    # but for the first of a row, whose field before it is the label
    if not ((M < 1e15).all() and ((labels == 1.0) | (labels == 0.0)).all()
            and idx.min(initial=1) >= 1 and ((idx[1:] > idx[:-1]) | label[index[1:] - 1]).all()):
        return None
    values = M / _TEN[F]
    np.negative(values, out=values, where=negative)
    np.negative(labels, out=labels, where=first == ord("-"))
    return labels, np.diff(rows, append=starts.size) // 2, idx, values


def _digits(a, starts, ends, dtype, dots: bool = False) -> tuple | None:
    """Read the fields ``a[starts:ends]`` as decimal digits, with a '.'
    where ``dots`` allows one. Returns the integers M of their digits, as
    ``dtype``, and the counts F of digits after the last '.' (0 with
    none, or with it last), or None when a field is empty. The k-th byte
    before the end of every field is read at once, k from the longest
    field's length down to 1, so M accumulates from the left."""
    n = ends - starts
    if not 0 < n.min(initial=1):
        return None
    M = np.zeros(n.size, dtype)
    F = np.zeros(n.size, np.intp)
    for k in range(int(n.max(initial=0)), 0, -1):
        d = a[ends - k] - ord("0")
        inside = n >= k
        if dots:
            dot = inside & (d == ord(".") - ord("0") + 256)
            F[dot] = k - 1
            inside &= ~dot
        M = np.where(inside, M * 10 + d, M)
    return M, F


def _from_strings(block: bytes, first: int) -> tuple:
    """The string route: labels, feature counts, 1-based indices and
    values of a block's rows, decoded as UTF-8, its lines split at "\n"
    and numbered from ``first``. Each label and token is read as
    ``float`` and ``int`` read it and checked as it is read, so the first
    error in the block is raised, naming its line. A line that is not
    UTF-8 raises once the rows before it are read; later lines are not
    read."""
    try:
        lines, bad = block.decode("utf-8").split("\n"), None
    except UnicodeDecodeError as exc:
        # the whole lines before the first byte that is not UTF-8
        lines, bad = block[:exc.start].decode("utf-8").split("\n")[:-1], block[exc.start]
    labels, counts, indices, values = [], [], [], []
    for lineno, line in enumerate(lines, start=first):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"non-numeric label {tokens[0]!r}", lineno) from None
        if label not in (-1.0, 0.0, 1.0):
            raise ParseError(f"label must be -1, 0 or +1, got {tokens[0]!r}", lineno)
        labels.append(label)
        counts.append(len(tokens) - 1)
        prev = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise ParseError(f"malformed feature token {tok!r}", lineno) from None
            if not (prev < idx <= _INT64_MAX and math.isfinite(val)):
                if idx < 1:
                    problem = f"index must be >= 1, got {idx}"
                elif idx <= prev:
                    problem = f"indices must be strictly increasing, got {idx} after {prev}"
                elif idx <= _INT64_MAX:
                    problem = f"feature {idx} has non-finite value {val}"
                else:
                    problem = f"index {idx} exceeds the int64 range"
                raise ParseError(problem, lineno)
            indices.append(idx)
            values.append(val)
            prev = idx
    if bad is not None:
        raise ParseError(f"not UTF-8 text: cannot decode byte {bad:#04x}", first + len(lines))
    return (np.array(labels, dtype=float), np.array(counts, dtype=np.int64),
            np.array(indices, dtype=np.int64), np.array(values, dtype=float))


def serialize_libsvm(ds: SparseDataset) -> str:
    """Emit the dataset in the same text format (round-trip precision)."""
    X = ds.X
    lines = []
    for i in range(ds.N):
        parts = ["+1" if ds.labels[i] > 0 else "-1"]
        for j in range(X.indptr[i], X.indptr[i + 1]):
            parts.append(f"{X.indices[j] + 1}:{X.data[j]:.17g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def max_row_norm(ds: SparseDataset) -> float:
    """Largest Euclidean row norm, B = max_i ||x_i||; inf when a squared
    norm overflows, and 0 when every squared norm underflows, as it does
    when every value is below about 2e-162 in magnitude. The squared
    norms of the non-empty rows are one ``np.add.reduceat`` of the
    squared stored values at the rows' starts, the reduction that
    scipy's ``X.power(2).sum(axis=1)`` makes, without its copy of X."""
    if ds.N < 1:
        raise ValueError("empty dataset")
    X = ds.X
    rows = np.flatnonzero(np.diff(X.indptr))
    with np.errstate(over="ignore"):
        squares = np.add.reduceat(np.square(X.data), X.indptr[rows])
        return float(np.sqrt(squares.max(initial=0.0)))


def synth_logistic(N: int, n: int, seed: int, separation: float = 1.5,
                   feature_decay: float = 0.6, max_norm: float = 2.0) -> SparseDataset:
    """Synthetic binary classification data for desk-scale runs.

    Features are dense Gaussians with geometrically decaying per-column
    scales (``feature_decay``), then rescaled so the largest row norm
    is ``max_norm`` -- mimicking pre-scaled benchmark datasets. Only the
    ratios between scales matter, so the largest scale is 1. Labels
    follow a noisy linear rule: sign(separation * margin + noise) with
    unit Gaussian noise, so ``separation`` is the signal-to-noise ratio
    of the labelling (0 gives pure coin flips). Raises ValueError unless
    N and n are whole numbers >= 1, ``seed`` is a whole number >= 0,
    ``feature_decay`` and ``max_norm`` are positive and finite, and
    ``separation`` is finite.
    """
    if not all(isinstance(v, Integral) and v >= 1 for v in (N, n)):
        raise ValueError(f"N and n must be positive whole numbers, got N = {N!r}, n = {n!r}")
    if not (isinstance(seed, Integral) and seed >= 0):
        raise ValueError(f"seed must be a whole number >= 0, got {seed!r}")
    if not 0.0 < feature_decay < np.inf:
        raise ValueError(f"feature_decay must be positive and finite, got {feature_decay}")
    if not 0.0 < max_norm < np.inf:
        raise ValueError(f"max_norm must be positive and finite, got {max_norm}")
    if not -np.inf < separation < np.inf:
        raise ValueError(f"separation must be finite, got {separation}")
    rng = np.random.default_rng(seed)
    # float exponents, largest scale 1: an int decay cannot wrap, a large one cannot overflow
    scales = feature_decay ** (np.arange(n, dtype=float) - (n - 1 if feature_decay > 1 else 0))
    X = rng.standard_normal((N, n))
    X *= scales
    w_true = rng.standard_normal(n)
    w_true /= np.linalg.norm(w_true)
    margin = X @ w_true
    sd = np.std(margin)
    if sd > 0:
        margin = margin / sd
    noise = rng.standard_normal(N)
    y = np.where(separation * margin + noise >= 0, 1.0, -1.0)
    X *= max_norm / np.max(np.linalg.norm(X, axis=1))
    return SparseDataset.from_dense(X, y)
