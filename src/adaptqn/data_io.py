"""LIBSVM-format parsing, dataset statistics and synthetic data generation."""

from __future__ import annotations

import functools
import io
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NoReturn

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
        """X' as a CSC matrix sharing X's arrays, for products X'c."""
        return self.X.T

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


# Rows are gathered as tokens until they hold this many, then converted
# together; the bound keeps a chunk's transient strings small.
_CHUNK_TOKENS = 1 << 14

# A byte that is not UTF-8, as the "surrogateescape" decoder stores it.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def parse_libsvm(source: Iterable[str] | str, n_features: int | None = None) -> SparseDataset:
    """Parse LIBSVM text: one ``<label> <idx>:<val> ...`` record per line.

    Indices are 1-based and must be strictly increasing within a row;
    they are stored 0-based. Each token is read as Python's ``int`` and
    ``float`` read it. Feature values must be finite. ``#`` starts a
    comment, blank lines are skipped. Labels +1/-1 are kept; 0/1 files
    are mapped 0 -> -1, 1 -> +1; anything else is a parse error. The
    feature count is the largest index seen unless ``n_features``
    overrides it; an index above it, or above the int64 range, is an
    error. A line holding a byte that the "surrogateescape" decoder
    kept (U+DC80-U+DCFF) is not UTF-8 text. The first error in file
    order is raised, naming its line.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    labels, counts, indices, values, max_index = zip(
        *(_convert(*chunk, n_features) for chunk in _gather(source)))
    n = max(max_index) if n_features is None else n_features
    idx = _index_dtype(sum(v.size for v in values), n)
    counts = np.concatenate(counts)
    indptr = np.zeros(counts.size + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    return _dataset(indptr, np.concatenate(indices, dtype=idx), np.concatenate(values),
                    np.concatenate(labels), n)


def _gather(lines: Iterable[str]):
    """Split each line into its label and feature tokens and yield them
    a chunk of rows at a time, as ``(labels, linenos, counts, feats)``.
    Always yields at least one chunk, which may hold no rows. A line
    that is not UTF-8 raises ParseError once the rows before it are
    yielded, so that an earlier row's error wins."""
    labels, linenos, counts, feats = [], [], [], []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.isascii() and (bad := _ESCAPED_BYTE.search(raw)):
            yield labels, linenos, counts, feats
            raise ParseError(f"not UTF-8 text: cannot decode byte {ord(bad[0]) - 0xdc00:#04x}",
                             lineno)
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            labels.append(tokens.pop(0))
            linenos.append(lineno)
            counts.append(len(tokens))
            feats += tokens
            if len(feats) + len(labels) >= _CHUNK_TOKENS:
                yield labels, linenos, counts, feats
                labels, linenos, counts, feats = [], [], [], []
    yield labels, linenos, counts, feats


def _convert(labels, linenos, counts, feats, n_features) -> tuple:
    """One chunk of rows as +-1 labels, feature counts, 0-based int64
    indices, values and the largest index, converted by numpy (which
    reads each token with ``int`` or ``float``). A chunk that fails a
    check goes to ``_first_fault``, which raises its first error."""
    joined = " ".join(feats)
    parts = joined.replace(":", " ").split()
    try:
        label = np.array(labels, dtype=float)
        idx = np.array(parts[0::2], dtype=np.int64)
        values = np.array(parts[1::2], dtype=float)
    except (ValueError, OverflowError):  # a token that int() or float() refuses
        _first_fault(labels, linenos, counts, feats, n_features)
    # one ':' a token, the k-th between the (k-1)-th and k-th space, and
    # two parts a token: none starts or ends with ':'
    b = np.frombuffer(joined.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    colons, spaces = np.flatnonzero(b == ord(":")), np.flatnonzero(b == ord(" "))
    # each index must exceed the one before it, except where a row starts
    increasing = idx[1:] > idx[:-1]
    starts = np.cumsum(counts[:-1], dtype=np.int64)
    increasing[starts[(starts > 0) & (starts < idx.size)] - 1] = True
    max_index = int(idx.max(initial=0))
    if (len(parts) != 2 * len(feats) or colons.size != len(feats)
            or (spaces < colons[:-1]).any() or (colons[1:] < spaces).any()
            or not ((label == 1.0) | (label == -1.0) | (label == 0.0)).all()
            or idx.min(initial=1) < 1 or not increasing.all()
            or (n_features is not None and max_index > n_features)
            or not np.isfinite(values).all()):
        _first_fault(labels, linenos, counts, feats, n_features)
    return (np.where(label <= 0.0, -1.0, 1.0), np.array(counts, dtype=np.int64),
            idx - 1, values, max_index)


def _first_fault(labels, linenos, counts, feats, n_features) -> NoReturn:
    """Raise the ParseError of the first bad row of a chunk that failed a
    bulk check in ``_convert``, checking its tokens one at a time."""
    int64_max = np.iinfo(np.int64).max
    end = 0
    for label_s, lineno, count in zip(labels, linenos, counts):
        try:
            label = float(label_s)
        except ValueError:
            raise ParseError(f"non-numeric label {label_s!r}", lineno) from None
        if label not in (-1.0, 0.0, 1.0):
            raise ParseError(f"label must be -1, 0 or +1, got {label_s!r}", lineno)
        prev = 0
        end += count
        for tok in feats[end - count:end]:
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
            if idx > int64_max:
                raise ParseError(f"index {idx} exceeds the int64 range", lineno)
            if not math.isfinite(val):
                raise ParseError(f"feature {idx} has non-finite value {val}", lineno)
            prev = idx
    raise AssertionError("a chunk failed a bulk check but holds no fault")


def load_libsvm(path) -> SparseDataset:
    """Parse the LIBSVM file at path, which must be UTF-8 text; a
    leading byte-order mark is skipped. The file is read once: a byte
    that is not UTF-8 raises ParseError naming its line, unless an
    earlier line holds an error."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        return parse_libsvm(fh)


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
    norm overflows."""
    if ds.N < 1:
        raise ValueError("empty dataset")
    with np.errstate(over="ignore"):
        return float(np.sqrt(ds.X.power(2).sum(axis=1).max()))


def synth_logistic(N: int, n: int, seed: int, separation: float = 1.5,
                   feature_decay: float = 0.6, max_norm: float = 2.0) -> SparseDataset:
    """Synthetic binary classification data for desk-scale runs.

    Features are dense Gaussians with geometrically decaying per-column
    scales (``feature_decay``), then rescaled so the largest row norm
    is ``max_norm`` -- mimicking pre-scaled benchmark datasets. Only the
    ratios between scales matter, so the largest scale is 1. Labels
    follow a noisy linear rule: sign(separation * margin + noise) with
    unit Gaussian noise, so ``separation`` is the signal-to-noise ratio
    of the labelling (0 gives pure coin flips).
    """
    if N < 1 or n < 1:
        raise ValueError("N and n must be positive")
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
