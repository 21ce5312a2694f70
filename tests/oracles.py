"""Reference implementations that tests compare the package against.

None of these is part of the package: each is a direct, unoptimized
statement of a quantity some package code computes another way.
"""

import math
from itertools import combinations

import numpy as np

from pbfopt import optimize, pipeline, risk, surrogate, thermal
from pbfopt.reduction import (
    FeatureDecomposition,
    design_matrix,
    least_squares,
    monomial_exponents,
    normalize_inputs,
)


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


def estimate_quantile_sort(values, alpha):
    """risk.estimate_quantile read from a full ascending sort: the k-th
    largest sample, k = round(m (1 - alpha)) half up, clamped to [1, m]."""
    g = np.sort(np.asarray(values, dtype=float).ravel())
    k = min(max(int(np.floor(g.size * (1.0 - alpha) + 0.5)), 1), g.size)
    return float(g[g.size - k])


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


def estimate_bpof_minform_scan(values, tau):
    """risk.estimate_bpof_minform with its candidate ratios read by a
    search: the distinct samples below tau, plus one point a span below the
    minimum, each located in the sorted set with np.searchsorted."""
    vals = np.asarray(values, dtype=float).ravel()
    tau = float(tau)
    gmin, gmax = float(vals.min()), float(vals.max())
    if gmax == gmin:
        return (1.0, tau - 1.0) if tau <= gmax else (0.0, gmax)
    if tau >= gmax:
        return 0.0, gmax
    g = np.sort(vals)
    if tau <= float(np.mean(g)):
        return 1.0, tau - (gmax - gmin)
    suffix = np.concatenate([np.cumsum(g[::-1])[::-1], [0.0]])
    cand = np.concatenate([[gmin - (gmax - gmin)], np.unique(g[g < tau])])
    idx = np.searchsorted(g, cand, side="right")
    ratios = (suffix[idx] - (g.size - idx) * cand) / (g.size * (tau - cand))
    best = int(np.argmin(ratios))
    return float(min(max(float(ratios[best]), 0.0), 1.0)), float(cand[best])


def design_matrix_row_major(x, exps):
    """reduction.design_matrix filled row-major: each column formed as a
    temporary by the same multiplies in the same order, then copied in."""
    n_pts, n_vars = x.shape
    max_pow = [max(e[i] for e in exps) for i in range(n_vars)]
    pows = []
    for i in range(n_vars):
        cols = [np.ones(n_pts)]
        for _ in range(max_pow[i]):
            cols.append(cols[-1] * x[:, i])
        pows.append(cols)
    out = np.empty((n_pts, len(exps)))
    for j, e in enumerate(exps):
        col = pows[0][e[0]].copy()
        for i in range(1, n_vars):
            if e[i]:
                col *= pows[i][e[i]]
        out[:, j] = col
    return out


def fit_quadratic(x, y):
    """Coefficients of the least-squares full quadratic over the rows of x,
    in monomial order: the fit whose gradients reduction.estimate_gradients
    returns."""
    return least_squares(design_matrix(x, monomial_exponents(x.shape[1], 2)), y)


def quadratic_values(coeffs, x):
    """The values at the rows of x of the full quadratic with fit_quadratic's
    coefficients: those coefficients times the monomial basis."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return design_matrix(x, monomial_exponents(x.shape[1], 2)) @ coeffs


def derivative_table(n_vars, degree):
    """surrogate._derivative_table built explicitly: D[j][beta, alpha] =
    alpha_j where alpha - beta is the unit vector of variable j."""
    exps = np.array(monomial_exponents(n_vars, degree))
    steps = exps[None, :, :] - exps[:, None, :]  # alpha - beta over [beta, alpha]
    return np.stack(
        [(steps == e).all(axis=-1) * exps[:, j] for j, e in enumerate(np.eye(n_vars))]
    )


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


def hull_row_max(row_max, u_d):
    """optimize._RowMax's per-sample maximum over every row it keeps from
    optimize._hull_columns, each row's values formed one v @ g at a time
    on the solver's own feature values g.  Returns (max, g)."""
    shift = surrogate.shift_coefficients
    g = np.stack(
        [a @ shift(m.poly, u_d @ m.subspace.w1[:2]) for m, a in row_max._bases]
    )
    return np.max([v @ g for v in row_max._vectors], axis=0), g


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


def slsqp_solve(bundle, cfg, d0):
    """Lowest feasible energy that scipy's SLSQP finds on the solver's own
    problem: the same frozen draws, normalized design box and constraint
    rows (optimize._SolveState.assess), with forward-difference gradients;
    the lowest energy among its history's rows that pass is_feasible, None
    when it evaluates no feasible point."""
    from scipy.optimize import minimize

    state = optimize._SolveState(bundle, cfg, optimize._frozen_row_max(bundle, cfg))
    x0 = normalize_inputs(np.array([d0.v, d0.P]), bundle.input_bounds[:2])
    minimize(
        lambda x: state.assess(x)[0],
        x0,
        method="SLSQP",
        bounds=[(-1.0, 1.0)] * 2,
        constraints=[{"type": "ineq", "fun": lambda x: state.assess(x)[1]}],
        options={"ftol": 1e-10, "maxiter": 200},
    )
    _, _, _, e, lhs, t_hat = np.asarray(state.history).T
    ok = optimize.is_feasible(cfg, lhs, t_hat)
    return e[ok].min() if ok.any() else None


def qp_per_system(hess, g, rows, jac):
    """optimize._qp with one np.linalg.solve per active set: the KKT system
    of every set of at most two rows, in order of size and then of
    itertools.combinations, skipping those LAPACK finds singular; the best
    feasible candidate wins, a later one only with a strictly lower value."""
    best = (np.inf, None)
    for k in range(3):
        kkt, rhs = np.zeros((2 + k, 2 + k)), np.empty(2 + k)
        kkt[:2, :2], rhs[:2] = hess, -g
        for act in map(list, combinations(range(rows.size), k)):
            kkt[2:, :2] = jac[act]
            kkt[:2, 2:] = -jac[act].T
            rhs[2:] = -rows[act]
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:  # dependent rows
                continue
            d, lam = sol[:2], np.zeros(rows.size)
            lam[act] = np.maximum(sol[2:], 0.0)
            q = g @ d + 0.5 * d @ hess @ d
            if q < best[0] and np.all(rows + jac @ d >= -1e-9):
                best = (q, (d, lam))
    return best[1]


def buffered_superquantile_se(values, zeta, alpha):
    """Monte Carlo standard error of the superquantile bound anchored at
    zeta (risk.buffered_superquantile)."""
    vals = np.asarray(values, dtype=float)
    excess = np.maximum(vals - zeta, 0.0)
    return float(excess.std(ddof=1) / ((1.0 - alpha) * np.sqrt(vals.size)))


def two_svd_reduction(data, k_max, k):
    """The error curve for k = 1..k_max and the k-column decomposition of
    data, each from its own SVD: reduction's error_curve and decompose as
    they were before one full SVD fed both."""
    m = np.asarray(data, dtype=float)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    comp_sq = (u * s) ** 2
    tail_sq = np.concatenate(
        [np.cumsum(comp_sq[:, ::-1], axis=1)[:, ::-1], np.zeros((m.shape[0], 1))],
        axis=1,
    )
    row_norms = np.linalg.norm(m, axis=1)
    errs = np.sqrt(np.maximum(tail_sq[:, 1 : k_max + 1], 0.0)) / row_norms[:, None]
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    u, vt = u[:, :k].copy(), vt[:k].copy()
    for j, row in enumerate(vt):  # largest-magnitude right-vector entry positive
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
            u[:, j] *= -1.0
    dec = FeatureDecomposition(
        features=u * s[:k], right_vectors=vt.T, row_norms=row_norms
    )
    return errs.mean(axis=0), dec


def reconstruct(decomposition, k=None):
    """Rank-k approximation F_k V_k^T of the decomposed snapshot matrix from
    the first k columns of its factors, all of them when k is None."""
    return decomposition.features[:, :k] @ decomposition.right_vectors[:, :k].T


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


def material_props(T, p):
    """Temperature-dependent (Cp in J/(kg K), kappa in W/(m K)) in T's
    float dtype; the kernel evaluates them folded (folded_constants)."""
    T = np.asarray(T)
    cp = p.a0 + p.a1 * T + p.a2 * T**2
    kap = p.b0 + p.b1 * T + p.b2 * T**2
    return cp, kap


def _poly(t, c, out=None):
    """c[0] + t * (c[1] + t * (... + t * c[-1])), by Horner, in place in out if
    given: the operations of the compiled step's quadratics, in their order."""
    acc = np.multiply(c[-1], t, out=out)
    for ci in c[-2:0:-1]:
        acc += ci
        acc *= t
    return np.add(acc, c[0], out=acc)


# math.erf elementwise: CPython's math.erf is the C library's erf, the one
# the compiled step calls
_erf = np.frompyfunc(math.erf, 1, 1)


def gauss_deposit(edges, beam_x, r, dx):
    """Cell-averaged Gaussian factor along x via exact erf integrals, along the
    last axis of edges - beam_x, in the compiled step's double operations."""
    s = _erf(np.sqrt(2.0) * (edges - beam_x) / r).astype(float)
    return np.sqrt(np.pi / 8.0) * (r / dx) * np.diff(s)


def folded_constants(p, dx, dz, rho, dt):
    """The constants thermal._step_block folds into its step, in float64:
    rho Cp(T) / dt = A0 + T (A1 + T A2) for a run of density rho (kg/mm^3)
    and step dt; kappa(T) 1e-3 0.5 / dx^2 = B0 + T (B1 + T B2), the x faces'
    conductance; dx^2 / dz^2, the z faces' weight over the x faces'; and
    sigma eps / dz, radiation's.  Returns ((A0, A1, A2), (B0, B1, B2),
    z_ratio, rad)."""
    heat = tuple(a * rho / dt for a in (p.a0, p.a1, p.a2))
    cond = tuple(b * 1e-3 * 0.5 / dx**2 for b in (p.b0, p.b1, p.b2))
    return heat, cond, dx**2 / dz**2, thermal.STEFAN_BOLTZMANN_MM * p.eps_s / dz


def solve_field_per_run(d, z, p, grid, *ceiling, dtype=thermal.FIELD_DTYPE):
    """One run of the thermal solver stepped on its own, one field at a
    time: the loop thermal._solve_field advances in blocks, with
    the step thermal._plan gives for its default or the given ceiling (a
    multiple of Tliq).  It steps with the kernel's arithmetic in its order:
    the folded_constants, Horner's form for kappa and for rho Cp / dt, and
    the z faces' weight on their conductivity sum.  The fields are of the
    given dtype, the kernel's by default, and the float64 beam deposit is
    cast to it where the kernel casts it.  A run fails when its probe
    leaves [clamp_lo, 3 Tliq], or when at its end the field is not finite
    or the peak is over the plan's top; one that fails under a top below
    3 Tliq is solved again at 3 Tliq, as thermal._solve_field does.

    Returns (temps, peak_sim, final_sim, peak_field), peak_field being the
    peak resampled to the stress grid as thermal.simulate_batch does.
    """
    nx, nz = grid.cells_x, grid.cells_z
    dx, dz = p.l / nx, p.h / nz
    xc = (np.arange(nx) + 0.5) * dx
    zc = (np.arange(nz) + 0.5) * dz
    x_edges = np.arange(nx + 1) * dx

    rho, dt, n_steps, clamp_lo, top = thermal._plan(d, z, p, grid, *ceiling)
    clamp_hi = 3.0 * p.Tliq
    times = thermal.snapshot_times(d.v, p.l)

    T = np.full((nx, nz), float(z.T0), dtype=dtype)
    peak = T.copy()
    amp = 2.0 * p.A * d.P / (np.pi * p.r**2 * p.z0)
    gz_amp = thermal._depth_deposit(nz, dz, p.h, p.z0) * amp
    tc_k4 = (p.Tc + thermal.KELVIN_OFFSET) ** 4
    # the kernel's folded constants, A in the field dtype
    heat, (b0, b1, b2), z_ratio, rad = folded_constants(p, dx, dz, rho, dt)
    a0, a1, a2 = (dtype(a) for a in heat)

    cell = thermal._bilinear_cell(T.shape, xc[0], dx, zc[0], dz, p.l / 2.0, p.h)
    trace = np.empty(n_steps + 1)
    trace[0] = thermal._bilinear(T, *cell)
    error = None
    for step in range(1, n_steps + 1):
        t_old = (step - 1) * dt
        kap = b0 + T * (b1 + T * b2)
        rate = np.zeros_like(T)
        # a face's share of each neighbour's rate: the sum of the two folded
        # conductivities, on z faces times dx^2 / dz^2, times the difference
        fx = (kap[1:, :] + kap[:-1, :]) * (T[1:, :] - T[:-1, :])
        rate[:-1, :] += fx
        rate[1:, :] -= fx
        fz = (kap[:, 1:] + kap[:, :-1]) * z_ratio * (T[:, 1:] - T[:, :-1])
        rate[:, :-1] += fz
        rate[:, 1:] -= fz
        if d.P > 0:
            gx = gauss_deposit(x_edges, d.v * t_old, p.r, dx)
            rate += np.outer(gx, gz_amp).astype(dtype)
        t_k = T[:, -1] + thermal.KELVIN_OFFSET
        t_k *= t_k
        rate[:, -1] -= (t_k * t_k - tc_k4) * rad
        T = T + rate / (a0 + T * (a1 + T * a2))
        np.maximum(peak, T, out=peak)
        probe = trace[step] = thermal._bilinear(T, *cell)
        if not clamp_lo <= probe <= clamp_hi:
            error = thermal.SimulationError(f"probe {probe} outside the clamp", step)
            break
    if error is None and not (np.isfinite(T).all() and peak.max() <= top):
        error = thermal.SimulationError(f"peak {peak.max()} over the top {top}", n_steps)
    if error and top < clamp_hi:
        return solve_field_per_run(d, z, p, grid, 3.0, dtype=dtype)
    if error:
        raise error
    temps = np.interp(times, np.arange(n_steps + 1) * dt, trace)

    nsx, nsz = thermal.STRESS_GRID_SHAPE
    xq, zq = np.meshgrid(
        np.linspace(0.0, p.l, nsx), np.linspace(0.0, p.h, nsz), indexing="ij"
    )
    cell = thermal._bilinear_cell(peak.shape, xc[0], dx, zc[0], dz, xq, zq)
    return temps, peak, T, thermal._bilinear(peak, *cell)


# the steps whose deposit lockstep_block computes at once, and after which it
# checks the probe band
DEPOSIT_STEPS = 32


def lockstep_block(runs, p, grid, dtype=np.float32):
    """thermal._step_block with its step in numpy, on fields of the given dtype:
    the compiled step's float operations in their order, one whole-block array
    operation at a time, so at float32 its results are the kernel's bit for bit.
    Runs are (design, random inputs, thermal._plan) triples; returns a snapshot
    or SimulationError per run, in their order."""
    nx, nz = grid.cells_x, grid.cells_z
    dx, dz = p.l / nx, p.h / nz
    x_edges = np.arange(nx + 1) * dx
    order = sorted(range(len(runs)), key=lambda k: -runs[k][2][2])  # most steps first
    rho, dt, n_steps, lo, top, v, power, t0 = np.array(
        [(*runs[k][2], runs[k][0].v, runs[k][0].P, runs[k][1].T0) for k in order], float).T
    n_steps = n_steps.astype(int).tolist()
    amp = 2.0 * p.A * power / (np.pi * p.r**2 * p.z0)
    cells = nx * nz  # one run's (z, x) field after another, x fastest
    size = len(order) * cells

    def per_run(values):  # each run's value over its cells
        return np.repeat(values.astype(dtype), cells)
    heat = [per_run(a * rho / dt) for a in (p.a0, p.a1, p.a2)]
    cond = tuple(b * 1e-3 * 0.5 / dx**2 for b in (p.b0, p.b1, p.b2))
    T, peak = per_run(t0), per_run(t0)
    kap, rate, den = (np.empty(size, dtype) for _ in range(3))
    T3, peak3, rate3 = (a.reshape(-1, nz, nx) for a in (T, peak, rate))  # views
    # face fluxes f[off + k], cells k to k + off; at walls and run boundaries 0
    fx, fz = (np.zeros(size + off, dtype) for off in (1, nx))
    faces = [(None, 1, fx, fx[1:].reshape(-1, nz, nx)[..., -1]),
             (dx**2 / dz**2, nx, fz, fz[nx:].reshape(-1, nz, nx)[:, -1])]
    gz = thermal._depth_deposit(nz, dz, p.h, p.z0)
    j0 = int(np.flatnonzero(gz)[0])
    gz_amp = gz[j0:, None] * amp[:, None, None]
    deposit = np.empty((DEPOSIT_STEPS, len(order), nz - j0, nx), dtype)
    tc_k4 = (p.Tc + thermal.KELVIN_OFFSET) ** 4
    rad = thermal.STEFAN_BOLTZMANN_MM * p.eps_s / dz
    i, j, wx, wz = thermal._bilinear_cell((nx, nz), dx / 2, dx, dz / 2, dz, p.l / 2.0, p.h)
    corners = (j + np.array([0, 1, 0, 1])) * nx + i + np.array([0, 0, 1, 1])
    corners = corners[:, None] + cells * np.arange(len(order))  # (4, runs), flat in T
    chunk = np.empty((DEPOSIT_STEPS, 4, len(order)), dtype)

    def blend(rows):
        return thermal._bilinear(np.moveaxis(rows.reshape(-1, 2, 2, len(order)), 0, 2),
                                 0, 0, wx, wz)
    hi = thermal.TOP_CEILING * p.Tliq
    trace = np.empty((n_steps[0] + 1, len(order)))
    trace[0] = blend(T[corners][None])
    fail = np.zeros(len(order), int)
    n, built = len(order), 0
    with np.errstate(all="ignore"):
        for start in range(1, n_steps[0] + 1, DEPOSIT_STEPS):
            stop = min(start + DEPOSIT_STEPS, n_steps[0] + 1)
            while n_steps[n - 1] < start:
                n -= 1
            ahead = np.arange(start - 1, stop - 1)
            beam = v[:n, None] * (ahead[:, None, None] * dt[:n, None])
            gx = gauss_deposit(x_edges, beam, p.r, dx)
            np.multiply(gx[:, :, None], gz_amp[:n], out=deposit[: stop - start, :n],
                        casting="same_kind")
            for k, step in enumerate(range(start, stop)):
                while n_steps[n - 1] < step:
                    n -= 1
                if n != built:  # the views of the n runs still stepping
                    built, m = n, n * cells
                    Tn, kapn, raten, denn, peakn = (a[:m] for a in (T, kap, rate, den, peak))
                    flux_views = [(w, f[off:m], kapn[off:], kapn[:-off], Tn[off:], Tn[:-off],
                                   raten[:-off], wall[:n]) for w, off, f, wall in faces]
                    sides = fx[1 : m + 1], fx[:m], fz[nx : m + nx], fz[:m]
                    rate_beam, T_top, rate_top = rate3[:n, j0:], T3[:n, -1], rate3[:n, -1]
                    heatn = [a[:m] for a in heat]
                _poly(Tn, cond, out=kapn)
                # each face's share of its two cells' rates: (kappa'_i + kappa'_j)
                # [dx^2 / dz^2 on z] (T_j - T_i)
                for weight, flux, kap_j, kap_i, T_j, T_i, diff, wall in flux_views:
                    np.add(kap_j, kap_i, out=flux)
                    if weight is not None:
                        flux *= weight
                    flux *= np.subtract(T_j, T_i, out=diff)
                    wall[...] = 0.0
                np.subtract(sides[0], sides[1], out=raten)
                raten += sides[2]
                raten -= sides[3]
                rate_beam += deposit[k, :n]
                hot = T_top + thermal.KELVIN_OFFSET
                hot *= hot
                rate_top -= (hot * hot - tc_k4) * rad
                _poly(Tn, heatn, out=denn)
                raten /= denn
                Tn += raten
                np.maximum(peakn, Tn, out=peakn)
                chunk[k] = T[corners]
            probe = trace[start:stop] = blend(chunk[: stop - start])
            bad = ~((lo <= probe) & (probe <= hi))
            new = (fail == 0) & bad.any(0)
            fail[new] = start + bad.argmax(0)[new]
            if fail.all():
                break
    xq, zq = np.meshgrid(np.linspace(0.0, p.l, thermal.STRESS_GRID_SHAPE[0]),
                         np.linspace(0.0, p.h, thermal.STRESS_GRID_SHAPE[1]), indexing="ij")
    stress_cell = thermal._bilinear_cell((nx, nz), dx / 2, dx, dz / 2, dz, xq, zq)
    out = []
    for s in np.argsort(order):  # in input order
        step, end = int(fail[s]), n_steps[s]
        if step:
            out.append(thermal.SimulationError(
                f"probe temperature {trace[step, s]:.1f} degC "
                f"outside [{lo[s]:.1f}, {hi:.1f}] at step {step}", step))
        elif not np.isfinite(T3[s]).all():
            out.append(thermal.SimulationError(f"field became non-finite by step {end}", end))
        elif not (hottest := peak3[s].max()) <= top[s]:
            out.append(thermal.SimulationError(f"peak field {hottest:.1f} degC over the plan's "
                                               f"top {top[s]:.1f} degC by step {end}", end))
        else:
            times = thermal.snapshot_times(v[s], p.l)
            temps = np.interp(times, np.arange(end + 1) * dt[s], trace[: end + 1, s])
            out.append(thermal.TemperatureSnapshot(
                times, temps, thermal._bilinear(peak3[s].T, *stress_cell)))
    return out


def lockstep_batch(designs, inputs, p, grid, dtype=np.float32):
    """thermal.simulate_batch's snapshots, or its lowest-indexed run's error, by
    lockstep_block on the whole batch as one block (no result depends on the
    block), each failed run solved again at the TOP_CEILING plan."""
    runs = [(d, z, thermal._plan(d, z, p, grid)) for d, z in zip(designs, inputs, strict=True)]
    out = lockstep_block(runs, p, grid, dtype)
    for k, (d, z, plan) in enumerate(runs):
        if isinstance(out[k], thermal.SimulationError) and plan[4] < 3.0 * p.Tliq:
            [out[k]] = lockstep_block([(d, z, thermal._plan(d, z, p, grid, 3.0))],
                                      p, grid, dtype)
        if isinstance(out[k], thermal.SimulationError):
            out[k].run = k
            raise out[k]
    return out
