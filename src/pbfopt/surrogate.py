"""Polynomial response surfaces over active variables.

Each retained feature gets a dense multivariate polynomial in its active
variables; an output model groups one output's feature models with its
right vectors, so a full output row is the feature predictions times the
right vectors, and a bundle holds the temperature and stress outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from pathlib import Path

import numpy as np

from .reduction import (
    MAX_ACTIVE_DIM, ActiveSubspace, design_matrix, least_squares, monomial_exponents,
)

__all__ = [
    "PolySurrogate",
    "FeatureSurrogate",
    "OutputModel",
    "SurrogateBundle",
    "OUTPUT_NAMES",
    "SCHEMA_VERSION",
    "fit",
    "fit_best_degree",
    "predict",
    "basis",
    "shift_coefficients",
    "derivative_coefficients",
    "r2_score",
    "bundle_to_dict",
    "bundle_from_dict",
    "load_bundle",
]

SCHEMA_VERSION = 1
# the bundle's outputs, each an OutputModel field and a bundle.json section
OUTPUT_NAMES = ("temperature", "stress")
MAX_DEGREE = 6
# a lower degree wins whenever its training r2 sits within this margin of
# the best degree tried
DEGREE_R2_MARGIN = 0.01


@lru_cache(maxsize=None)
def _shift_table(n_vars: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Binomial weights prod_i C(alpha_i, beta_i) (zero unless alpha >= beta)
    and power gaps alpha - beta (clipped at zero) over basis pairs [beta, alpha]."""
    exps = np.array(monomial_exponents(n_vars, degree))
    weights = np.vectorize(comb)(exps[None, :, :], exps[:, None, :]).prod(axis=-1)
    gaps = np.maximum(exps[None, :, :] - exps[:, None, :], 0)
    weights.setflags(write=False)
    gaps.setflags(write=False)
    return weights, gaps


@lru_cache(maxsize=None)
def _derivative_table(n_vars: int, degree: int) -> np.ndarray:
    """(n_vars, n, n) matrices D: D[j][beta, alpha] = alpha_j where alpha is
    beta plus one in variable j, so D[j] @ c differentiates in eta_j: the shift
    weights on the pairs whose power gap is one in variable j alone."""
    weights, gaps = _shift_table(n_vars, degree)
    table = np.stack([weights * (gaps == e).all(axis=-1) for e in np.eye(n_vars)])
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class PolySurrogate:
    """Dense polynomial over the full monomial basis of its active vars."""

    n_vars: int
    degree: int
    coefficients: np.ndarray
    r2: float

    def __post_init__(self):
        if not 1 <= self.n_vars <= MAX_ACTIVE_DIM:
            raise ValueError(f"n_vars must lie in [1, {MAX_ACTIVE_DIM}]")
        if not 0 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"degree must lie in [0, {MAX_DEGREE}]")
        coeffs = np.asarray(self.coefficients, dtype=float)
        expected = comb(self.n_vars + self.degree, self.degree)
        if coeffs.shape != (expected,):
            raise ValueError(
                f"expected {expected} coefficients for degree {self.degree} "
                f"in {self.n_vars} variables, got {coeffs.shape}"
            )
        if not self.r2 <= 1.0 + 1e-9:
            raise ValueError("r2 cannot exceed 1")
        object.__setattr__(self, "coefficients", coeffs)


def r2_score(values, predicted) -> float:
    """Coefficient of determination; constant targets give 1 when matched
    exactly and 0 otherwise."""
    y = np.asarray(values, dtype=float)
    ss_res = float(np.sum((y - np.asarray(predicted, dtype=float)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res <= 1e-12 * max(1.0, float(np.sum(y**2))) else 0.0
    return 1.0 - ss_res / ss_tot


def _check_etas(etas) -> np.ndarray:
    e = np.asarray(etas, dtype=float)
    if e.ndim == 1:
        e = e[:, None]
    if e.ndim != 2 or not 1 <= e.shape[1] <= MAX_ACTIVE_DIM:
        raise ValueError(f"active variables must be (M, r), r in [1, {MAX_ACTIVE_DIM}]")
    return e


def fit(etas, values, degree: int) -> PolySurrogate:
    """Least-squares polynomial fit of the given degree (least_squares)."""
    e = _check_etas(etas)
    y = np.asarray(values, dtype=float).ravel()
    if y.size != e.shape[0]:
        raise ValueError("one value per input row required")
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must lie in [1, {MAX_DEGREE}]")
    exps = monomial_exponents(e.shape[1], degree)
    if y.size <= len(exps):
        raise ValueError(
            f"need more than {len(exps)} samples for degree {degree} "
            f"in {e.shape[1]} variables, got {y.size}"
        )
    design = design_matrix(e, exps)
    coeffs = least_squares(design, y)
    return PolySurrogate(
        n_vars=e.shape[1],
        degree=degree,
        coefficients=coeffs,
        r2=r2_score(y, design @ coeffs),
    )


def fit_best_degree(etas, values) -> PolySurrogate:
    """Fit degrees 1..MAX_DEGREE (capped by sample count) and keep the
    lowest degree whose r2 comes within DEGREE_R2_MARGIN of the best."""
    e = _check_etas(etas)
    y = np.asarray(values, dtype=float).ravel()
    fits = [fit(e, y, degree) for degree in range(1, MAX_DEGREE + 1)
            if y.size > comb(e.shape[1] + degree, degree)]
    if not fits:
        raise ValueError("too few samples to fit even a linear model")
    best = max(f.r2 for f in fits)
    return next(f for f in fits if f.r2 >= best - DEGREE_R2_MARGIN)


def predict(s: PolySurrogate, eta) -> np.ndarray:
    """Evaluate the polynomial at n points, given as basis takes them, as
    an (n,) array: shift_coefficients(s, 0) in place of s.coefficients."""
    return basis(s, eta) @ s.coefficients


def basis(s: PolySurrogate, eta) -> np.ndarray:
    """The (n, n_coefficients) monomial design matrix of s's basis at n
    points, given as fit takes them: an (n, r) array, or a 1-D array of n
    points in one variable.  Column-major, as design_matrix builds it, so
    basis @ c streams each column once."""
    e = _check_etas(eta)
    if e.shape[1] != s.n_vars:
        raise ValueError(f"expected {s.n_vars} active variables, got {e.shape[1]}")
    return design_matrix(e, monomial_exponents(s.n_vars, s.degree))


def shift_coefficients(s: PolySurrogate, offset) -> np.ndarray:
    """Coefficients c' of eta -> p(eta + offset) in s's basis, so that
    basis(s, eta) @ c' is predict at eta + offset: c'_beta = sum over
    alpha >= beta of c_alpha prod_i C(alpha_i, beta_i) offset_i^(alpha_i - beta_i)."""
    weights, gaps = _shift_table(s.n_vars, s.degree)
    powers = (np.asarray(offset, dtype=float) ** gaps).prod(axis=-1)
    return (weights * powers) @ s.coefficients


def derivative_coefficients(s: PolySurrogate, coefficients) -> np.ndarray:
    """(n_vars, n_coefficients) array whose row j holds, in s's basis, the
    coefficients of the derivative in eta_j of the polynomial with the given
    coefficients.  Shifting and differentiating commute, so on
    shift_coefficients(s, offset) it is their derivative in offset."""
    return _derivative_table(s.n_vars, s.degree) @ coefficients


@dataclass(frozen=True)
class FeatureSurrogate:
    """One feature's active subspace plus its polynomial model."""

    subspace: ActiveSubspace
    poly: PolySurrogate

    def __post_init__(self):
        if self.poly.n_vars != self.subspace.r:
            raise ValueError("polynomial arity must equal the subspace dimension")


@dataclass(frozen=True)
class OutputModel:
    """One surrogate output: N x K right vectors and one model per feature,
    so a full output row is the K feature predictions times the vectors."""

    right_vectors: np.ndarray
    features: tuple[FeatureSurrogate, ...]

    def __post_init__(self):
        vectors = np.asarray(self.right_vectors, dtype=float)
        object.__setattr__(self, "right_vectors", vectors)
        object.__setattr__(self, "features", tuple(self.features))
        if len(self.features) < 1:
            raise ValueError("at least one feature model required")
        if vectors.ndim != 2 or vectors.shape[1] != len(self.features):
            raise ValueError("right-vector shape mismatch")


@dataclass(frozen=True)
class SurrogateBundle:
    """Everything needed to predict snapshot rows and stress fields."""

    input_bounds: np.ndarray  # n x 2 physical bounds
    temperature: OutputModel
    stress: OutputModel
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "input_bounds", np.asarray(self.input_bounds, dtype=float)
        )
        n = self.input_bounds.shape[0]
        for name in OUTPUT_NAMES:
            if any(m.subspace.w1.shape[0] != n for m in getattr(self, name).features):
                raise ValueError(f"{name} subspace dimension mismatch")


def _subspace_to_dict(s: ActiveSubspace) -> dict:
    return {
        "w1": s.w1.tolist(),
        "eigenvalues": s.eigenvalues.tolist(),
        "r": int(s.r),
    }


def _subspace_from_dict(d: dict) -> ActiveSubspace:
    return ActiveSubspace(
        w1=np.asarray(d["w1"], dtype=float),
        eigenvalues=np.asarray(d["eigenvalues"], dtype=float),
        r=int(d["r"]),
    )


def _model_to_dict(m: FeatureSurrogate) -> dict:
    return {
        "subspace": _subspace_to_dict(m.subspace),
        "degree": int(m.poly.degree),
        "n_vars": int(m.poly.n_vars),
        "coefficients": m.poly.coefficients.tolist(),
        "r2": float(m.poly.r2),
    }


def _model_from_dict(d: dict) -> FeatureSurrogate:
    poly = PolySurrogate(
        n_vars=int(d["n_vars"]),
        degree=int(d["degree"]),
        coefficients=np.asarray(d["coefficients"], dtype=float),
        r2=float(d["r2"]),
    )
    return FeatureSurrogate(subspace=_subspace_from_dict(d["subspace"]), poly=poly)


def bundle_to_dict(b: SurrogateBundle) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input_bounds": b.input_bounds.tolist(),
        "provenance": dict(b.provenance),
    }
    for name in OUTPUT_NAMES:
        out = getattr(b, name)
        doc[name] = {
            "right_vectors": out.right_vectors.tolist(),
            "features": [_model_to_dict(m) for m in out.features],
        }
    return doc


def bundle_from_dict(d: dict) -> SurrogateBundle:
    version = d.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported bundle schema version: {version!r}")
    outputs = {
        name: OutputModel(
            right_vectors=np.asarray(d[name]["right_vectors"], dtype=float),
            features=tuple(_model_from_dict(m) for m in d[name]["features"]),
        )
        for name in OUTPUT_NAMES
    }
    return SurrogateBundle(
        input_bounds=np.asarray(d["input_bounds"], dtype=float),
        provenance=dict(d.get("provenance", {})),
        **outputs,
    )


def load_bundle(path) -> SurrogateBundle:
    return bundle_from_dict(json.loads(Path(path).read_text()))
