"""Reference implementations that tests compare the package against.

None of these is part of the package: each is a direct, unoptimized
statement of a quantity some package code computes another way.
"""

import numpy as np

from pbfopt import optimize, pipeline, risk, surrogate
from pbfopt.reduction import normalize_inputs


def heat_flux(x, y, z, t, d, p):
    """Volumetric beam flux (W/mm^3) at position (x, y, depth z) and time t.

    z is measured downward from the irradiated surface; the cubic depth
    profile (1/5)(-3(z/z0)^2 - 2(z/z0) + 5) reaches zero at z = z0 and the
    flux vanishes outside [0, z0].
    """
    u = np.asarray(z, dtype=float) / p.z0
    depth = (-3.0 * u**2 - 2.0 * u + 5.0) / 5.0
    depth = np.where((u >= 0.0) & (u <= 1.0), depth, 0.0)
    amp = 2.0 * p.A * d.P / (np.pi * p.r**2 * p.z0)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return amp * np.exp(-2.0 * ((x - d.v * t) ** 2 + y**2) / p.r**2) * depth


def estimate_bpof_tail(values, alpha):
    """Tail-scanning estimate of the (bpof, threshold) pair at level alpha.

    Sorts descending and grows the running mean of the top-k samples until
    it drops below the empirical alpha-superquantile.  Returns
    ``bpof = (k - 1) / m`` together with the mean of the top (k - 1)
    samples, the last running mean still at or above the superquantile, so
    the pair is consistent with the minimization form at the returned
    threshold.  If even the full mean stays above (all-equal samples),
    returns ``(1.0, mean)``.
    """
    vals = np.asarray(values, dtype=float).ravel()
    sq = risk.estimate_superquantile(vals, alpha)
    g = np.sort(vals)[::-1]
    m = g.size
    run = np.cumsum(g) / np.arange(1, m + 1)
    k = 1
    c = float(run[0])
    while c >= sq and k < m:
        k += 1
        c = float(run[k - 1])
    if c >= sq:
        # never dropped below: the whole set sits in the tail
        return 1.0, float(run[-1])
    return (k - 1) / m, float(run[k - 2])


def predict_row(bundle, side, xi):
    """Full predicted output row of one side ("temperature" or "stress")
    at one raw input vector: feature predictions times right vectors.  An
    (n, 6) batch of raw inputs gives one column per input."""
    xi = np.asarray(xi, dtype=float)
    u = normalize_inputs(np.atleast_2d(xi), bundle.input_bounds)
    output = getattr(bundle, side)
    features = [surrogate.predict(m.poly, u @ m.subspace.w1) for m in output.features]
    rows = output.right_vectors @ np.array(features)
    return rows[:, 0] if xi.ndim == 1 else rows


def row_max_samples(bundle, side, d, samples):
    """Per-sample maximum of the full predicted row of one side at design
    d, one row per material sample (T0, Y, E, rho)."""
    z = np.atleast_2d(np.asarray(samples, dtype=float))
    xi = np.column_stack([np.full(len(z), d.v), np.full(len(z), d.P), z])
    return predict_row(bundle, side, xi).max(axis=0)


def temperature_max_samples(bundle, d, samples):
    """row_max_samples on the temperature side."""
    return row_max_samples(bundle, "temperature", d, samples)


def evaluate_constraints(d, zeta, bundle, samples, cfg):
    """Risk constraint value at a given zeta (buffered exceedance ratio,
    or the plain exceedance frequency in pof mode) and the mean per-sample
    maximum temperature at one design on a frozen sample set."""
    if not zeta < cfg.tau:
        raise ValueError(f"zeta must stay below tau={cfg.tau}, got {zeta}")
    sigma = optimize.stress_max_samples(bundle, d, samples)
    t_hat = float(temperature_max_samples(bundle, d, samples).mean())
    if cfg.constraint_kind == "pof":
        return float(np.mean(sigma > cfg.tau)), t_hat
    return float(np.maximum(sigma - zeta, 0.0).mean() / (cfg.tau - zeta)), t_hat


def buffered_superquantile_se(values, zeta, alpha):
    """Monte Carlo standard error of the superquantile bound anchored at
    zeta (risk.buffered_superquantile)."""
    vals = np.asarray(values, dtype=float)
    excess = np.maximum(vals - zeta, 0.0)
    return float(excess.std(ddof=1) / ((1.0 - alpha) * np.sqrt(vals.size)))


def reconstruct(decomposition):
    """Rank-k approximation F V_k^T of the decomposed snapshot matrix."""
    return decomposition.features @ decomposition.right_vectors.T


def maximin_doe_pdist(M, bounds, seed):
    """pipeline.generate_doe with scipy's pdist scoring each restart: the
    same permutations, kept by the largest minimum pairwise distance."""
    from scipy.spatial.distance import pdist

    b = np.asarray(bounds, dtype=float)
    rng = np.random.default_rng(seed)
    best, best_score = None, -np.inf
    for _ in range(pipeline._MAXIMIN_RESTARTS):
        perms = [pipeline._symmetric_permutation(M, rng) for _ in range(len(b))]
        unit = (np.column_stack(perms) + 0.5) / M
        score = pdist(unit).min()
        if score > best_score:
            best, best_score = unit, score
    return b[:, 0] + best * (b[:, 1] - b[:, 0])
