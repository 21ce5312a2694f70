"""Sampling-based estimators for quantile, superquantile and failure risk.

All estimators operate on a one-dimensional set of limit-state samples
(larger values = closer to failure) and are pure: inputs are never
modified, and results depend only on the multiset of values.

Failure measures against a threshold ``tau``:

* probability of failure ``pof``: fraction of samples strictly above tau,
* buffered probability of failure ``bpof``: the conservative envelope
  ``min over zeta < tau of mean((g - zeta)^+) / (tau - zeta)``,
  equivalently the tail level at which the superquantile equals tau.

The minimization form is solved exactly (Mafusalov & Uryasev 2018):
between consecutive samples the ratio is linear-fractional in zeta, so
its minimum sits at a sample value and a scan of those values finds it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "estimate_quantile",
    "estimate_superquantile",
    "buffered_superquantile",
    "estimate_pof",
    "estimate_bpof_minform",
]


def _as_samples(values) -> np.ndarray:
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size < 1:
        raise ValueError("sample set must contain at least one value")
    if not np.isfinite(vals).all():
        raise ValueError("sample set contains non-finite values")
    return vals


def estimate_quantile(values, alpha: float) -> float:
    """Empirical alpha-quantile: the k-th largest sample, k = round(m*(1-alpha)).

    Rounds half away from zero and clamps k below at 1 so high levels on
    small sets return the maximum.
    """
    vals = _as_samples(values)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    m = vals.size
    # round half up, not banker's rounding
    k = int(np.floor(m * (1.0 - alpha) + 0.5))
    k = min(max(k, 1), m)
    # k-th largest = (m - k)-th entry of the ascending order
    return float(np.partition(vals, m - k)[m - k])


def estimate_superquantile(values, alpha: float) -> float:
    """Empirical alpha-superquantile (mean of the upper (1-alpha) tail).

    Uses the tail-average identity anchored at the empirical quantile:
    ``Q + mean((g - Q)^+) / (1 - alpha)``.  alpha = 0 returns the sample
    mean exactly.
    """
    vals = _as_samples(values)
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if alpha == 0.0:
        return float(np.mean(vals))
    return buffered_superquantile(vals, estimate_quantile(vals, alpha), alpha)


def buffered_superquantile(values, zeta: float, alpha: float) -> float:
    """Superquantile upper bound anchored at zeta:
    ``zeta + mean((g - zeta)^+) / (1 - alpha)``.

    Every zeta gives an upper bound on the alpha-superquantile and the
    alpha-quantile attains it; estimate_superquantile anchors at the
    empirical quantile, validation at the optimizer's zeta.
    """
    vals = _as_samples(values)
    return float(zeta + np.maximum(vals - zeta, 0.0).mean() / (1.0 - alpha))


def estimate_pof(values, tau: float) -> float:
    """Fraction of samples strictly above the threshold."""
    vals = _as_samples(values)
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    return float(np.mean(vals > tau))


def estimate_bpof_minform(values, tau: float) -> tuple[float, float]:
    """Buffered probability of failure via the minimization form.

    Returns ``(bpof, zeta)`` where zeta attains the minimum of
    ``mean((g - zeta)^+) / (tau - zeta)`` over zeta < tau.  Between
    consecutive sample values the ratio is linear-fractional in zeta, hence
    monotone there, and it grows without bound as zeta approaches tau; so
    the minimum sits at a candidate: a distinct sample value below tau, or
    one point a full span below the minimum.  Ties take the smallest zeta.

    Boundary conventions: tau at or above the sample maximum gives
    ``(0.0, max)``; tau at or below the sample mean gives 1.0 with zeta
    below tau; all-equal samples give 1.0 when tau <= the common value and
    0.0 otherwise.
    """
    vals = _as_samples(values)
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    tau = float(tau)
    gmin, gmax = float(vals.min()), float(vals.max())
    if gmax == gmin:
        if tau <= gmax:
            return 1.0, tau - 1.0
        return 0.0, gmax
    if tau >= gmax:
        return 0.0, gmax
    g = np.sort(vals)
    gmean = float(np.mean(g))
    if tau <= gmean:
        return 1.0, tau - (gmax - gmin)
    span = gmax - gmin
    # suffix[i] = sum of g[i:]
    suffix = np.concatenate([np.cumsum(g[::-1])[::-1], [0.0]])
    # the last copy of each distinct sample below tau (g[k] >= tau exists,
    # since tau < gmax); above candidate g[i] lie exactly g[i + 1:]
    k = np.count_nonzero(g < tau)
    last = np.flatnonzero(g[:k] != g[1 : k + 1])
    cand = np.concatenate([[gmin - span], g[last]])
    idx = np.concatenate([[0], last + 1])
    ratios = (suffix[idx] - (g.size - idx) * cand) / (g.size * (tau - cand))
    best = int(np.argmin(ratios))
    zeta, bpof = float(cand[best]), float(ratios[best])
    return float(min(max(bpof, 0.0), 1.0)), zeta
