"""Reference implementations that tests compare the package against.

None of these is part of the package: each is a direct, unoptimized
statement of a quantity some package code computes another way.
"""

import numpy as np

from pbfopt import optimize, pipeline, risk, surrogate, thermal
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


def solve_field_per_run(d, z, p, grid):
    """One run of the thermal solver stepped on its own, one field at a
    time: the loop thermal._solve_field advances in lockstep blocks.

    Returns (temps, peak_sim, final_sim, peak_field), peak_field being the
    peak resampled to the stress grid as thermal.simulate_batch does.
    """
    nx, nz = grid.cells_x, grid.cells_z
    dx, dz = p.l / nx, p.h / nz
    xc = (np.arange(nx) + 0.5) * dx
    zc = (np.arange(nz) + 0.5) * dz
    x_edges = np.arange(nx + 1) * dx

    rho = thermal.bulk_density(z.rho)
    t_scan = p.l / d.v
    times = thermal.snapshot_times(d.v, p.l)
    clamp_lo = min(z.T0, p.Tc) - 50.0
    clamp_hi = 3.0 * p.Tliq
    cp_min, _ = thermal._quad_extrema(p.a0, p.a1, p.a2, clamp_lo, clamp_hi)
    _, kap_max = thermal._quad_extrema(p.b0, p.b1, p.b2, clamp_lo, clamp_hi)
    kap_max *= 1e-3
    dt_stable = grid.cfl_factor * rho * cp_min * min(dx, dz) ** 2 / (4.0 * kap_max)
    n_steps = max(1, int(np.ceil(t_scan / dt_stable)))
    dt = t_scan / n_steps

    T = np.full((nx, nz), float(z.T0))
    peak = T.copy()
    amp = 2.0 * p.A * d.P / (np.pi * p.r**2 * p.z0)
    gz = thermal._depth_deposit(nz, dz, p.h, p.z0)
    tc_k4 = (p.Tc + thermal.KELVIN_OFFSET) ** 4
    rad_coeff = thermal.STEFAN_BOLTZMANN_MM * p.eps_s

    cell = thermal._bilinear_cell(T.shape, xc[0], dx, zc[0], dz, p.l / 2.0, p.h)
    trace = np.empty(n_steps + 1)
    trace[0] = thermal._bilinear(T, *cell)
    for step in range(1, n_steps + 1):
        t_old = (step - 1) * dt
        cp, kap = thermal.material_props(T, p)
        kap = kap * 1e-3
        rate = np.zeros_like(T)
        fx = 0.5 * (kap[1:, :] + kap[:-1, :]) * (T[1:, :] - T[:-1, :]) / dx
        rate[:-1, :] += fx / dx
        rate[1:, :] -= fx / dx
        fz = 0.5 * (kap[:, 1:] + kap[:, :-1]) * (T[:, 1:] - T[:, :-1]) / dz
        rate[:, :-1] += fz / dz
        rate[:, 1:] -= fz / dz
        if d.P > 0:
            gx = thermal._gauss_deposit(x_edges, d.v * t_old, p.r, dx)
            rate += amp * np.outer(gx, gz)
        t_k = T[:, -1] + thermal.KELVIN_OFFSET
        rate[:, -1] -= rad_coeff * (t_k**4 - tc_k4) / dz
        T = T + dt * rate / (rho * cp)
        np.maximum(peak, T, out=peak)
        probe = trace[step] = thermal._bilinear(T, *cell)
        if not clamp_lo <= probe <= clamp_hi:
            raise thermal.SimulationError(f"probe {probe} outside the clamp", step)
    temps = np.interp(times, np.arange(n_steps + 1) * dt, trace)

    nsx, nsz = thermal.STRESS_GRID_SHAPE
    xq, zq = np.meshgrid(
        np.linspace(0.0, p.l, nsx), np.linspace(0.0, p.h, nsz), indexing="ij"
    )
    cell = thermal._bilinear_cell(peak.shape, xc[0], dx, zc[0], dz, xq, zq)
    return temps, peak, T, thermal._bilinear(peak, *cell)
