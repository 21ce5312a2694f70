"""SVD feature extraction and active-subspace discovery.

A snapshot matrix (runs x outputs) is factorized once, as its full thin
SVD F V^T with features F = U Sigma: the error curve that sizes k reads it,
and its first k columns are the rank-k truncation that is kept.  Per-feature
active subspaces come from the eigendecomposition of the gradient
covariance of a global quadratic fit over the normalized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

__all__ = [
    "FeatureDecomposition",
    "ActiveSubspace",
    "decompose",
    "error_curve",
    "select_feature_count",
    "check_bounds",
    "normalize_inputs",
    "monomial_exponents",
    "design_matrix",
    "least_squares",
    "estimate_gradients",
    "discover",
]

MAX_ACTIVE_DIM = 3
# Relative scale below which a covariance eigenvalue counts as zero when
# sizing the active dimension; keeps noise-level directions from claiming
# a dimension through a divide-by-nothing ratio.
EIGENVALUE_FLOOR = 1e-6


@dataclass(frozen=True)
class FeatureDecomposition:
    """Full thin SVD of a snapshot matrix, features = U Sigma; the first k
    columns of features and right_vectors are its rank-k truncation."""

    features: np.ndarray  # M x min(M, N)
    right_vectors: np.ndarray  # N x min(M, N)
    row_norms: np.ndarray  # M, the norm of each data row


@dataclass(frozen=True)
class ActiveSubspace:
    """Dominant gradient-covariance eigenvectors for one feature."""

    w1: np.ndarray  # n x r
    eigenvalues: np.ndarray  # all n, non-increasing
    r: int


def _check_matrix(data) -> np.ndarray:
    m = np.asarray(data, dtype=float)
    if m.ndim != 2 or m.shape[0] < 2:
        raise ValueError("snapshot matrix must be 2D with at least 2 rows")
    if not np.isfinite(m).all():
        raise ValueError("snapshot matrix contains non-finite entries")
    return m


def _fix_signs(rows: np.ndarray, *partners: np.ndarray) -> None:
    """Flip in place each row of rows whose largest-magnitude entry is
    negative, and with it the same column of every partner."""
    for j, row in enumerate(rows):
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
            for m in partners:
                m[:, j] *= -1.0


def decompose(data) -> FeatureDecomposition:
    """The full thin SVD of data, each right vector's largest-magnitude entry positive."""
    m = _check_matrix(data)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    _fix_signs(vt, u)
    return FeatureDecomposition(
        features=u * s, right_vectors=vt.T, row_norms=np.linalg.norm(m, axis=1)
    )


def error_curve(full: FeatureDecomposition, k_max: int) -> np.ndarray:
    """Mean relative row reconstruction error for k = 1..k_max of the data
    that full = decompose(data) factorizes.

    The residual of row i at truncation k has squared norm equal to the tail
    sum of full's squared features (U_ij sigma_j)^2 over j > k, so the whole
    curve falls out of suffix sums without rebuilding reconstructions.
    """
    rank_cap = full.features.shape[1]
    if not 1 <= k_max <= rank_cap:
        raise ValueError(f"k_max must lie in [1, {rank_cap}], got {k_max}")
    if np.any(full.row_norms == 0.0):
        raise ValueError("zero-norm row: relative error undefined")
    comp_sq = np.pad(full.features**2, ((0, 0), (0, 1)))  # M x (rank + 1), last 0
    # tail_sq[:, k] = sum of comp_sq[:, k:] = squared residual at truncation k
    tail_sq = np.cumsum(comp_sq[:, ::-1], axis=1)[:, ::-1]
    errs = np.sqrt(tail_sq[:, 1 : k_max + 1]) / full.row_norms[:, None]
    return errs.mean(axis=0)


def select_feature_count(errs, threshold: float, min_gain: float) -> int:
    """Pick the retained feature count from an error curve.

    Returns the smallest k with errs[k] <= threshold.  If the curve never
    reaches the threshold, falls back to diminishing returns: the smallest
    k from which every subsequent marginal decrease stays below min_gain.
    """
    errs = np.asarray(errs, dtype=float)
    if errs.size == 0:
        raise ValueError("empty error curve")
    if np.any(np.diff(errs) > 1e-9):
        raise ValueError("error curve must be non-increasing")
    hit = np.nonzero(errs <= threshold)[0]
    if hit.size:
        return int(hit[0]) + 1
    gains = errs[:-1] - errs[1:]
    big = np.nonzero(gains >= min_gain)[0]
    if big.size == 0:
        return 1
    return min(int(big[-1]) + 2, errs.size)


def check_bounds(bounds) -> np.ndarray:
    """bounds as an (n, 2) float array of finite (lower, upper) rows,
    lower < upper."""
    b = np.asarray(bounds, dtype=float)
    if b.ndim != 2 or b.shape[1] != 2:
        raise ValueError("bounds must be an (n, 2) array of (lower, upper)")
    if not np.all(np.isfinite(b)):
        raise ValueError("bounds must be finite")
    if np.any(b[:, 0] >= b[:, 1]):
        raise ValueError("each lower bound must be below its upper bound")
    return b


def normalize_inputs(xi, bounds) -> np.ndarray:
    """Affine map of physical coordinates onto [-1, 1] per coordinate.

    Coordinates sticking out by more than 1e-9 (normalized units), or not
    finite, raise; smaller excursions clamp.
    """
    b = check_bounds(bounds)
    x = np.asarray(xi, dtype=float)
    mid = 0.5 * (b[:, 0] + b[:, 1])
    half = 0.5 * (b[:, 1] - b[:, 0])
    u = (x - mid) / half
    if not np.all(np.abs(u) <= 1.0 + 1e-9):
        worst = float(np.max(np.abs(u)))
        raise ValueError(f"input outside bounds (|normalized| up to {worst:.3e})")
    return np.clip(u, -1.0, 1.0)


@lru_cache(maxsize=None)
def monomial_exponents(n_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples in graded order: by total degree, then by the
    lexicographic order of the variable-index combination."""
    exps = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(n_vars), total):
            e = [0] * n_vars
            for i in combo:
                e[i] += 1
            exps.append(tuple(e))
    return tuple(exps)


def design_matrix(x: np.ndarray, exps) -> np.ndarray:
    """The (n_points, len(exps)) monomial design matrix of the rows of x.

    Column-major: each column is contiguous, so a product design @ c runs
    BLAS's column kernel and streams each column once, where a row-major
    matrix of few columns costs one short dot product per point."""
    n_pts, n_vars = x.shape
    max_pow = [max(e[i] for e in exps) for i in range(n_vars)]
    pows = []
    for i in range(n_vars):
        cols = [np.ones(n_pts)]
        for _ in range(max_pow[i]):
            cols.append(cols[-1] * x[:, i])
        pows.append(cols)
    out = np.empty((n_pts, len(exps)), order="F")
    for j, e in enumerate(exps):
        col = out[:, j]
        col[:] = pows[0][e[0]]
        for i in range(1, n_vars):
            if e[i]:
                col *= pows[i][e[i]]
    return out


def least_squares(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients by an orthogonal factorization (degree-6 bases
    are too ill-conditioned for the normal equations); rank deficiency raises."""
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("rank-deficient polynomial basis on these inputs")
    return coeffs


def estimate_gradients(inputs, values) -> np.ndarray:
    """Analytic gradients, at each input row, of the least-squares full
    quadratic over normalized inputs: constant, linear and pair terms, in
    monomial order."""
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(values, dtype=float).ravel()
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValueError("inputs must be (M, n) with one value per row")
    n = x.shape[1]
    exps = monomial_exponents(n, 2)
    if x.shape[0] < len(exps):
        raise ValueError(
            f"need at least {len(exps)} samples for a {n}-variable quadratic, "
            f"got {x.shape[0]}"
        )
    coeffs = least_squares(design_matrix(x, exps), y)
    grad = np.tile(coeffs[1 : n + 1], (x.shape[0], 1))
    pairs = combinations_with_replacement(range(n), 2)
    for c, (i, j) in zip(coeffs[n + 1 :], pairs):
        grad[:, i] += c * x[:, j]
        grad[:, j] += c * x[:, i]
    return grad


def discover(gradients) -> ActiveSubspace:
    """Active subspace from the gradient covariance (1/M) sum g g^T.

    The active dimension r maximizes the eigenvalue ratio lambda_r /
    lambda_{r+1} over r = 1..MAX_ACTIVE_DIM, with trailing eigenvalues floored at
    EIGENVALUE_FLOOR times lambda_1 so that numerically-zero directions
    cannot win the ratio; eigenvector signs fix the largest-magnitude
    component positive.
    """
    g = np.asarray(gradients, dtype=float)
    if g.ndim != 2 or g.shape[0] < 2:
        raise ValueError("gradients must be (M, n) with M >= 2")
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradients")
    n = g.shape[1]
    cov = g.T @ g / g.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    vals = np.maximum(vals, 0.0)  # Gram spectrum; negatives are fp noise
    _fix_signs(vecs.T)
    r_cap = min(MAX_ACTIVE_DIM, n - 1)
    if vals[0] <= 0.0:
        r = 1
    else:
        floor = vals[0] * EIGENVALUE_FLOOR
        ratios = vals[:r_cap] / np.maximum(vals[1 : r_cap + 1], floor)
        r = int(np.argmax(ratios)) + 1
    return ActiveSubspace(w1=vecs[:, :r].copy(), eigenvalues=vals, r=r)
