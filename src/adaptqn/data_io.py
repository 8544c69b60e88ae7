"""LIBSVM-format parsing, dataset statistics and synthetic data generation."""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

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
        return _dataset(indptr, indices, X.ravel().astype(float).copy(), labels.copy(), n)


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


def parse_libsvm(source: Iterable[str] | str, n_features: int | None = None) -> SparseDataset:
    """Parse LIBSVM text: one ``<label> <idx>:<val> ...`` record per line.

    Indices are 1-based and must be strictly increasing within a row;
    they are stored 0-based. Each token is read as Python's ``int`` and
    ``float`` read it. Feature values must be finite. ``#`` starts a
    comment, blank lines are skipped. Labels +1/-1 are kept; 0/1 files
    are mapped 0 -> -1, 1 -> +1; anything else is a parse error. The
    feature count is the largest index seen unless ``n_features``
    overrides it. The first error in file order is raised; an index
    above ``n_features`` or a non-finite value is looked for only once
    every row has parsed.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    chunks = _gather(source)
    max_index = max(c.max_index for c in chunks)
    n = max_index if n_features is None else n_features
    if n_features is not None and max_index > n_features:
        raise ParseError(f"index {max_index} exceeds declared feature count {n_features}")
    for c in chunks:
        if c.non_finite is not None:
            raise c.non_finite
    idx = _index_dtype(sum(c.values.size for c in chunks), n)
    counts = np.concatenate([c.counts for c in chunks])
    indptr = np.zeros(counts.size + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate([np.asarray(c.indices, dtype=idx) for c in chunks])
    return _dataset(indptr, indices, np.concatenate([c.values for c in chunks]),
                    np.concatenate([c.labels for c in chunks]), n)


@dataclass(frozen=True)
class _Chunk:
    """Consecutive rows, converted: +-1 labels, feature counts, 0-based
    indices (a list of ints only for an index that int64 cannot hold)
    and values, the largest index, and the error for the first
    non-finite value, which is raised only once the whole file parsed."""

    labels: np.ndarray
    counts: np.ndarray
    indices: np.ndarray | list
    values: np.ndarray
    max_index: int
    non_finite: ParseError | None


def _gather(lines: Iterable[str]) -> list[_Chunk]:
    """Split each line into its label and feature tokens and convert
    them a chunk at a time; raises the ParseError of the first bad row.
    Always returns at least one chunk, which may hold no rows."""
    chunks = []
    labels, linenos, counts, feats = [], [], [], []
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            labels.append(tokens.pop(0))
            linenos.append(lineno)
            counts.append(len(tokens))
            feats += tokens
            if len(feats) + len(labels) >= _CHUNK_TOKENS:
                chunks.append(_convert(labels, linenos, counts, feats))
                labels, linenos, counts, feats = [], [], [], []
    chunks.append(_convert(labels, linenos, counts, feats))
    return chunks


def _convert(labels, linenos, counts, feats) -> _Chunk:
    """One chunk of rows in bulk; when a bulk check fails, ``_walk``
    goes through its rows to raise the first error."""
    converted = _bulk(labels, counts, feats)
    if converted is None:
        converted = _walk(labels, linenos, counts, feats)
    label, indices, values, max_index = converted
    counts = np.array(counts, dtype=np.int64)
    non_finite = None
    finite = np.isfinite(values)
    if not finite.all():
        pos = int(finite.argmin())
        row = int(np.searchsorted(np.cumsum(counts), pos, side="right"))
        non_finite = ParseError(f"feature {indices[pos] + 1} has non-finite value "
                                f"{values[pos]}", linenos[row])
    return _Chunk(np.where(label <= 0.0, -1.0, 1.0), counts, indices, values,
                  max_index, non_finite)


def _bulk(labels, counts, feats):
    """Labels, 0-based indices, values and largest index of a chunk,
    converted by numpy (which reads each token with ``int`` or
    ``float``); None when a token or row is malformed."""
    joined = " ".join(feats)
    parts = joined.replace(":", " ").split()
    # two parts per token: no token starts or ends with ':' or holds '::'
    if len(parts) != 2 * len(feats) or not _one_colon_each(joined, len(feats)):
        return None
    try:
        label = np.array(labels, dtype=float)
        idx = np.array(parts[0::2], dtype=np.int64)
        values = np.array(parts[1::2], dtype=float)
    except (ValueError, OverflowError):  # a token that int() or float() refuses
        return None
    if not ((label == 1.0) | (label == -1.0) | (label == 0.0)).all() or idx.min(initial=1) < 1:
        return None
    # each index must exceed the one before it, except where a row starts
    increasing = idx[1:] > idx[:-1]
    starts = np.cumsum(counts[:-1], dtype=np.int64)
    increasing[starts[(starts > 0) & (starts < idx.size)] - 1] = True
    if not increasing.all():
        return None
    return label, idx - 1, values, int(idx.max(initial=0))


def _one_colon_each(joined: str, count: int) -> bool:
    """Whether each of the ``count`` tokens that single spaces separate
    in ``joined`` holds exactly one ':'."""
    b = np.frombuffer(joined.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    colons = np.flatnonzero(b == ord(":"))
    if colons.size != count:
        return False
    spaces = np.flatnonzero(b == ord(" "))
    return bool((spaces > colons[:-1]).all() and (colons[1:] > spaces).all())


def _walk(labels, linenos, counts, feats):
    """``_bulk``'s result one token at a time, for a chunk that failed a
    bulk check: raises the ParseError of its first bad row. It returns
    only when an index is too large for int64, which then fails when
    the index array is built."""
    indices: list[int] = []
    values: list[float] = []
    max_index = end = 0
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
            prev = idx
            indices.append(idx - 1)
            values.append(val)
        max_index = max(max_index, prev)
    return np.array(labels, dtype=float), indices, np.array(values, dtype=float), max_index


def load_libsvm(path) -> SparseDataset:
    """Parse the LIBSVM file at path, which must be UTF-8 text. An
    undecodable byte raises ParseError naming its line, unless a row on
    an earlier line is malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_libsvm(fh)
    except UnicodeDecodeError:
        pass
    # the text decoder reads ahead, so the file is read again, whole, to
    # find the bad byte's line and check the rows before it
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).readlines()
        complete = lines if not lines or lines[-1].endswith("\n") else lines[:-1]
        _gather(complete)
        raise ParseError(f"not UTF-8 text: cannot decode byte {data[exc.start]:#04x}",
                         len(complete) + 1) from None
    raise ParseError("not UTF-8 text")  # the file changed between the two reads


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
    is ``max_norm`` -- mimicking pre-scaled benchmark datasets. Labels
    follow a noisy linear rule: sign(separation * margin + noise) with
    unit Gaussian noise, so ``separation`` is the signal-to-noise ratio
    of the labelling (0 gives pure coin flips).
    """
    if N < 1 or n < 1:
        raise ValueError("N and n must be positive")
    rng = np.random.default_rng(seed)
    scales = feature_decay ** np.arange(n)
    X = rng.standard_normal((N, n)) * scales
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
