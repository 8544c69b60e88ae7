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


def parse_libsvm(source: Iterable[str] | str, n_features: int | None = None) -> SparseDataset:
    """Parse LIBSVM text: one ``<label> <idx>:<val> ...`` record per line.

    Indices are 1-based and must be strictly increasing within a row;
    they are stored 0-based. ``#`` starts a comment, blank lines are
    skipped. Labels +1/-1 are kept; 0/1 files are mapped 0 -> -1,
    1 -> +1; anything else is a parse error. The feature count is the
    largest index seen unless ``n_features`` overrides it.
    """
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
            prev = idx
            indices.append(idx - 1)
            values.append(val)
        max_index = max(max_index, prev)
        indptr.append(len(indices))
    n = max_index if n_features is None else n_features
    if n_features is not None and max_index > n_features:
        raise ParseError(f"index {max_index} exceeds declared feature count {n_features}")
    idx = _index_dtype(len(indices), n)
    return _dataset(np.asarray(indptr, dtype=idx), np.asarray(indices, dtype=idx),
                    np.asarray(values, dtype=float), np.asarray(labels, dtype=float), n)


def load_libsvm(path) -> SparseDataset:
    with open(path, "r", encoding="utf-8") as fh:
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
