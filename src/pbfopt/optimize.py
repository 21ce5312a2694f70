"""Risk-constrained scan-energy minimization on the surrogate bundle.

Minimizes beam energy per scan over the design (v, P) subject to a
buffered failure-probability budget on maximum residual stress and a
melt-window band on the mean maximum temperature.  One frozen Monte Carlo
sample set per run_optimization, shared by its starts, turns the stochastic
constraints into deterministic functions of the design (sample average
approximation with common random numbers).  The buffered probability is the
minimum over zeta < tau of mean((sigma - zeta)^+) / (tau - zeta); each
evaluation solves that inner minimization exactly, so zeta is reported but
never searched.  On the frozen draws those functions are piecewise smooth in
the design, and each evaluation also returns their exact gradients, which
the SQP takes as its Jacobian: no evaluation is spent on differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from . import risk, surrogate
from .reduction import normalize_inputs
from .thermal import DesignPoint, ModelParams

__all__ = [
    "OptimizeConfig",
    "OptimizationResult",
    "HISTORY_COLUMNS",
    "CONSTRAINT_TOL",
    "energy",
    "draw_material_samples",
    "stress_max_samples",
    "is_feasible",
    "solve",
]

CONSTRAINT_BPOF = "bpof"
CONSTRAINT_POF = "pof"
HISTORY_COLUMNS = ("v", "P", "zeta", "energy", "bpof_lhs", "t_max_hat")

# slack allowed when a point is judged feasible (see is_feasible)
CONSTRAINT_TOL = 1e-4
_STEP_TOL = 1e-6  # the SQP stops on a step below this, in normalized units
# line search steps 1, 1/2, ..., 1/2^11; with no feasible design, 20 such steps
_LINE_SEARCH_TRIALS = 12  # crawled on tiny decreases, to 2,356 evaluations a start
# the SQP's QP asks each constraint row for this much slack, far above
# rounding, so a step onto a linearized boundary lands inside it: pof's
# exceedance count jumps one draw a rounding error outside
_ROW_MARGIN = 1e-9
_MAX_ITERS = 500  # SQP iterations per phase; solves stop long before it


@dataclass(frozen=True)
class OptimizeConfig:
    """Solver settings; defaults reproduce the nominal study setup."""

    alpha_t: float = 0.95
    tau: float = 825.0
    n_mc: int = 20000
    temp_window: tuple[float, float] = (ModelParams.Tliq, 1.1 * ModelParams.Tliq)
    seed: int = 0
    constraint_kind: str = CONSTRAINT_BPOF
    scan_length: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "temp_window", tuple(self.temp_window))
        if not 0.0 < self.alpha_t < 1.0:
            raise ValueError("alpha_t must lie in (0, 1)")
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if self.n_mc < 100:
            raise ValueError("n_mc must be at least 100")
        if not self.temp_window[0] < self.temp_window[1]:
            raise ValueError("temperature window is empty")
        if self.seed < 0:
            raise ValueError("optimize seed cannot be negative")
        if self.constraint_kind not in (CONSTRAINT_BPOF, CONSTRAINT_POF):
            raise ValueError(f"unknown constraint kind: {self.constraint_kind!r}")
        if not self.scan_length > 0.0:
            raise ValueError("scan_length must be positive")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Solver outcome plus the full evaluation history.

    iterations counts surrogate evaluations, one per history row: the SQP's
    iterates and backtracking trials, the elastic phase's included.  Each
    evaluation gives its exact Jacobian too, so no row is a difference point.
    """

    d_star: DesignPoint
    zeta_star: float
    energy: float
    bpof_lhs: float
    t_max_hat: float
    feasible: bool
    history: np.ndarray = field(repr=False)  # columns HISTORY_COLUMNS

    @property
    def iterations(self) -> int:
        return self.history.shape[0]


def energy(d: DesignPoint, l: float = 2.0) -> float:
    """Beam energy per scan P*l/v in joules."""
    if not d.v > 0.0:
        raise ValueError("scanning speed must be positive")
    return d.P * l / d.v


def draw_material_samples(bounds, n: int, rng) -> np.ndarray:
    """Uniform draws inside per-coordinate bounds, one row per sample."""
    b = np.asarray(bounds, dtype=float)
    if n < 1:
        raise ValueError("need at least one sample")
    return b[:, 0] + (b[:, 1] - b[:, 0]) * rng.uniform(size=(n, b.shape[0]))


def _material_inputs(b: surrogate.SurrogateBundle, samples) -> np.ndarray:
    """Material samples, one (T0, Y, E, rho) row each, normalized on b's box."""
    z = np.atleast_2d(np.asarray(samples, dtype=float))
    if z.size == 0:
        raise ValueError("empty sample set")
    if z.ndim != 2 or z.shape[1] != 4:
        raise ValueError("material samples must be (n, 4) rows (T0, Y, E, rho)")
    return normalize_inputs(z, b.input_bounds[2:])


def stress_max_samples(b: surrogate.SurrogateBundle, d: DesignPoint, samples):
    """Predicted maximum residual stress for each material sample."""
    u_d = normalize_inputs(np.array([d.v, d.P]), b.input_bounds[:2])
    return _RowMax(b.stress, _material_inputs(b, samples))(u_d)


def _risk(sigma: np.ndarray, cfg: OptimizeConfig):
    """The risk constraint on one sample set: (lhs, zeta, row, slope).

    lhs is the constraint value, bPOF at tau in bpof mode and the plain
    exceedance frequency in pof mode.  zeta solves the inner minimization
    of the buffered exceedance ratio exactly, so it never needs to be
    searched.  row is the solver's risk row 1 - rho / tau, continuous in
    the design: rho is the alpha-superquantile in bpof mode (bPOF_tau <=
    1 - alpha exactly when rho <= tau; Rockafellar & Royset 2010), and in
    pof mode the (k + 1)-th largest sample, k = floor((1 - alpha) n),
    exceeded by at most k samples.  slope = (draws, weights), weights an
    array or one scalar, gives the row's gradient as the weighted sum of
    those draws' gradients.  In bpof mode it is exact: each tail draw above
    the quantile weighs 1 / (n (1 - alpha)) and the quantile's own draw the
    rest of 1 (Hong & Liu 2009).  In pof mode it averages the order
    statistics within isqrt(k) ranks of rho (Hong 2009); the single order
    statistic's gradient stalls the SQP.
    """
    if not np.isfinite(cfg.tau):
        return 0.0, float(sigma.max()), 1.0, (np.empty(0, dtype=int), 0.0)
    bpof, zeta = risk.estimate_bpof_minform(sigma, cfg.tau)
    # tau equal to the sample maximum returns zeta = tau; zeta must stay below
    zeta = min(zeta, float(np.nextafter(cfg.tau, -np.inf)))
    n = sigma.size
    if cfg.constraint_kind == CONSTRAINT_POF:
        k = int((1.0 - cfg.alpha_t) * n)
        mid, m = n - k - 1, isqrt(k)
        lo, hi = max(mid - m, 0), min(mid + m, n - 1)
        order = np.argpartition(sigma, (lo, mid, hi))
        lhs, rho = risk.estimate_pof(sigma, cfg.tau), sigma[order[mid]]
        draws, weights = order[lo : hi + 1], 1.0 / (hi + 1 - lo)
    else:
        q = risk.estimate_quantile(sigma, cfg.alpha_t)
        lhs, rho = bpof, risk.buffered_superquantile(sigma, q, cfg.alpha_t)
        tail, share = np.flatnonzero(sigma > q), 1.0 / (n * (1.0 - cfg.alpha_t))
        draws = np.append(tail, np.argmax(sigma == q))
        weights = np.append(np.full(tail.size, share), 1.0 - tail.size * share)
    return lhs, zeta, 1.0 - rho / cfg.tau, (draws, -weights / cfg.tau)


def _planar_hull(points: np.ndarray) -> np.ndarray:
    """Ascending indices of the convex hull vertices of planar points
    (Andrew's monotone chain); collinear and repeated points are not vertices."""
    def turns_left(a, b, c):  # cross product of b - a and c - a is positive
        return ((b - a).conjugate() * (c - a)).imag > 0.0

    z = (points[:, 0] + 1j * points[:, 1]).tolist()
    order = np.lexsort((points[:, 1], points[:, 0])).tolist()
    hull: list[int] = []
    for chain in (order, order[::-1]):  # lower hull, then upper hull
        kept: list[int] = []
        for i in chain:
            while len(kept) > 1 and not turns_left(z[kept[-2]], z[kept[-1]], z[i]):
                kept.pop()
            kept.append(i)
        hull += kept[:-1]
    return np.unique(hull)


def _hull_columns(vectors: np.ndarray) -> np.ndarray:
    """Rows of `vectors` that can attain a rowwise max of g @ vectors.T.

    A linear functional over a finite point set attains its maximum at a
    vertex of the convex hull of those points, so interior rows can never
    win the max for any feature vector g and are safe to drop.  The hull
    is found for one or two columns; with more, every row is kept.
    """
    n, k = vectors.shape
    if k == 1:
        return np.unique([int(np.argmin(vectors)), int(np.argmax(vectors))])
    if k == 2:
        keep = _planar_hull(vectors)
        if keep.size > 2:
            return keep
    return np.arange(n)


def _reachable_rows(vectors: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The rows of `vectors` that can win the max of vectors @ g in some
    column of g: a subset that holds every column's winner.

    Where g[0] > 0 in every column, a row v's value there is g[0] times
    v[0] + v[1:] @ r, r = g[1:] / g[0], which is linear in r; so over the
    box bounding r across the columns it ranges between a low and a high
    taken at corners of that box.  A row whose high falls below the
    highest low by more than 1e-9 of the rows' scale, far above the
    rounding of v @ g, is beaten at every corner by the row with that low.
    Dropping such rows leaves the max over every row, bit for bit.
    Otherwise, or where a ratio overflows, every row is kept.
    """
    if not (g[0] > 0.0).all():
        return vectors
    ratios = g[1:] / g[0]
    lo, hi = ratios.min(axis=1), ratios.max(axis=1)
    # |v[0]| + |v[1:]| @ |r| on the box bounds each row's value and its rounding
    margin = 1e-9 * (np.abs(vectors) @ np.append(1.0, np.maximum(-lo, hi))).max()
    if not np.isfinite(margin):
        return vectors
    a, b = vectors[:, 1:] * lo, vectors[:, 1:] * hi
    low = vectors[:, 0] + np.minimum(a, b).sum(axis=1)
    high = vectors[:, 0] + np.maximum(a, b).sum(axis=1)
    return vectors[high >= low.max() - margin]


class _RowMax:
    """Per-sample maximum of one output's predicted row at any normalized
    design, on one fixed set of normalized material draws u_z.

    A design only shifts each feature's active variables by u_d @ w1[:2],
    so the monomial basis of the material part u_z @ w1[2:] is built once,
    n_mc x (coefficients over its features) x 8 bytes, and each design folds
    its shift into the coefficients.  The bases are column-major
    (design_matrix), so each feature's product basis @ coefficients streams
    the basis columns once instead of taking n_mc short dot products.
    Two cuts leave the max unchanged.
    Once, _hull_columns keeps the rows that can win for some feature vector
    g: for one or two features the right vectors' convex hull vertices,
    and otherwise every row.  At each design, _reachable_rows keeps those
    that can win for the draws' own feature vectors, which span a narrow
    cone: on the nominal bundle one to nine of its 32 stress and 23
    temperature hull rows.
    """

    def __init__(self, output: surrogate.OutputModel, u_z: np.ndarray):
        self._bases = [
            (m, surrogate.basis(m.poly, u_z @ m.subspace.w1[2:]))
            for m in output.features
        ]
        self._sums = [a.sum(axis=0) for _, a in self._bases]  # for gradient
        vectors = output.right_vectors
        self._vectors = vectors[_hull_columns(vectors)]

    def __call__(self, u_d: np.ndarray) -> np.ndarray:
        return self.evaluate(u_d)[0]

    def evaluate(self, u_d: np.ndarray):
        """(out, at): the per-sample maximum at u_d, and what gradient needs
        of it: each feature's shifted coefficients, the reachable rows, the
        feature values g and out."""
        shift = surrogate.shift_coefficients
        coeffs = [shift(m.poly, u_d @ m.subspace.w1[:2]) for m, _ in self._bases]
        g = np.stack([a @ c for (_, a), c in zip(self._bases, coeffs)])
        rows = _reachable_rows(self._vectors, g)
        out = rows[0] @ g
        for v in rows[1:]:  # column-wise max, one n-length row at a time
            np.maximum(out, v @ g, out=out)
        return out, (coeffs, rows, g, out)

    def gradient(self, at, weights, draws=None) -> np.ndarray:
        """The sum over `draws` of weights (one each, or one scalar) times
        the gradient in u_d of each one's maximum at evaluate's call `at`;
        with draws None, over every sample with one scalar weight, which
        needs all of `at` (only its first two items otherwise).  A sample's
        maximum is its winning row v @ g, and a design only shifts each
        feature's active variables by u_d @ w1[:2], so its gradient is
        sum_k v_k basis_k @ (d c_k / d shift) @ w1_k[:2].T.  Over every
        sample, the basis products are the stored column sums through the
        row that wins at the mean feature values, corrected on the samples
        that it loses: on the nominal bundle few or none."""
        coeffs, rows, *full = at
        if draws is None:
            g, out = full
            top = rows[np.argmax(rows @ g.mean(axis=1))]
            draws = np.flatnonzero(top @ g < out) if len(rows) > 1 else []
            base, weights = weights * top, np.full(len(draws), weights)
        else:
            top, base = 0.0, np.zeros(rows.shape[1])
        picked = [a[draws] for _, a in self._bases]
        g = np.stack([p @ c for p, c in zip(picked, coeffs)])  # the draws' features
        lead = (_winning_rows(rows, g) - top) * np.reshape(weights, (-1, 1))
        return sum(
            (b * s + v @ p) @ surrogate.derivative_coefficients(m.poly, c).T
            @ m.subspace.w1[:2].T
            for b, s, v, p, c, (m, _) in zip(
                base, self._sums, lead.T, picked, coeffs, self._bases
            )
        )


def _winning_rows(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """For each column of feature values g, the first of `rows` that attains
    the max of rows @ g, found by a running max in O(columns) memory."""
    best, win = np.full(g.shape[1], -np.inf), np.zeros(g.shape[1], dtype=int)
    for j, v in enumerate(rows):
        val = v @ g
        win[val > best] = j
        np.maximum(best, val, out=best)
    return rows[win]


def _window_width(cfg: OptimizeConfig) -> float:
    """_margins' unit for t_hat: the melt window's width, 1 if an edge is open."""
    lo, hi = cfg.temp_window
    return (hi - lo) if np.isfinite(hi - lo) else 1.0


def _margins(cfg: OptimizeConfig, lhs, t_hat) -> np.ndarray:
    """Scaled constraint slack, non-negative where a constraint holds: the
    risk budget left over as a fraction of the budget, then the distances
    of t_hat above the window's lower edge and below its upper edge in
    window widths.  On arrays the three margins run along the last axis."""
    budget, scale = 1.0 - cfg.alpha_t, _window_width(cfg)
    lo, hi = cfg.temp_window
    return np.stack(
        [(budget - lhs) / budget, (t_hat - lo) / scale, (hi - t_hat) / scale],
        axis=-1,
    )


def is_feasible(cfg: OptimizeConfig, lhs, t_hat):
    """Whether risk values lhs and mean maximum temperatures t_hat meet
    both constraints within CONSTRAINT_TOL (absolute on lhs, in window
    widths on t_hat); elementwise on arrays."""
    tol = CONSTRAINT_TOL * np.array([1.0 / (1.0 - cfg.alpha_t), 1.0, 1.0])
    return np.all(_margins(cfg, lhs, t_hat) >= -tol, axis=-1)


def _qp(hess, g, rows, jac):
    """Minimize g.d + d.hess.d / 2 subject to rows + jac @ d >= 0 in the plane:
    the minimizer solves the equality problem of at most two active rows, so
    it is the best feasible such candidate.  The KKT systems of each active
    set size are solved in one stacked call (_solve_stack); the sets whose
    rows are a zero row, or two equal or opposite rows, are exactly singular
    and skipped.  Candidates are tried in order of size, then of
    itertools.combinations, and a later one wins only with a strictly lower
    value.  Returns (d, multipliers) or None."""
    n = rows.size
    zero = ~jac.any(axis=1)
    i, j = np.triu_indices(n, 1)  # the pairs in itertools.combinations order
    dependent = (
        zero[i] | zero[j] | (jac[i] == jac[j]).all(1) | (jac[i] == -jac[j]).all(1)
    )
    best = (np.inf, None)
    for act in (
        np.empty((1, 0), dtype=int),
        np.flatnonzero(~zero)[:, None],
        np.column_stack([i, j])[~dependent],
    ):
        # [[hess, -J.T], [J, 0]] d, lam = [-g, -rows] for the k active rows J
        m, k = act.shape
        kkt, rhs = np.zeros((m, 2 + k, 2 + k)), np.empty((m, 2 + k))
        kkt[:, :2, :2], rhs[:, :2] = hess, -g
        kkt[:, 2:, :2] = jac[act]
        kkt[:, :2, 2:] = -jac[act].transpose(0, 2, 1)
        rhs[:, 2:] = -rows[act]
        sol = _solve_stack(kkt, rhs)
        # numpy's matmul forms each (1, 2) @ (2, 1) item with the dot kernel of
        # a 1-D g @ d and each (n, 2) @ (2, 1) item with the kernel of jac @ d,
        # so q and the fit test are those of one system at a time, bit for bit
        d, d_col = sol[:, None, :2], sol[:, :2, None]
        q = (d @ g[:, None] + 0.5 * d @ hess @ d_col)[:, 0, 0]
        fits = np.all(rows + (jac @ d_col)[:, :, 0] >= -1e-9, axis=1)  # up to rounding
        for c in np.flatnonzero(fits):
            if q[c] < best[0]:
                lam = np.zeros(n)
                lam[act[c]] = np.maximum(sol[c, 2:], 0.0)
                best = (q[c], (sol[c, :2], lam))
    return best[1]


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solutions of the stacked systems a @ x = b in one np.linalg.solve
    call.  If LAPACK meets an exactly singular member, which makes the whole
    call raise, the systems are solved one at a time instead and a singular
    one's solution is NaN, which no comparison passes."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for x, a_i, b_i in zip(out, a, b):
            try:
                x[:] = np.linalg.solve(a_i, b_i)
            except np.linalg.LinAlgError:  # dependent rows
                pass
        return out


def _sqp(fun, x: np.ndarray) -> None:
    """Minimize fun(x)[0][0] subject to fun(x)[0][1:] >= 0 over the box
    [-1, 1]^2 by SQP, fun(x) giving those values and their Jacobian: the QP
    (_qp) on a Powell-damped BFGS Hessian of the Lagrangian (Powell 1978),
    backtracking on the l1 merit f + mu * sum(c^-), and a least-squares
    restoration step that relaxes the rows when their linearization has no
    feasible point.  Stops on a proposed step below _STEP_TOL, when none of
    the _LINE_SEARCH_TRIALS halving steps descends, or after _MAX_ITERS."""
    def l1(c):  # total violation of rows c >= 0
        return np.maximum(-c, 0.0).sum()

    (f, jac), hess, mu = fun(x), np.eye(2), 0.0
    for _ in range(_MAX_ITERS):
        c, a, g = f[1:], jac[1:], jac[0]
        rows = np.concatenate([c - _ROW_MARGIN, 1.0 - x, 1.0 + x])
        jac_rows = np.vstack([a, -np.eye(2), np.eye(2)])
        step = _qp(hess, g, rows, jac_rows)
        if step is None:  # relax each row to a least-squares restoration step
            d = np.linalg.lstsq(jac_rows[rows < 0.0], -rows[rows < 0.0], rcond=None)[0]
            d = np.clip(x + d, -1.0, 1.0) - x
            rows -= np.minimum(rows + jac_rows @ d, 0.0)
            step = _qp(hess, g, rows, jac_rows) or (d, np.zeros(rows.size))
        d, lam = step[0], step[1][: c.size]
        drop = l1(c) - l1(c + a @ d)
        if drop > 0.0:  # Nocedal & Wright (18.36): d descends on the merit
            mu = max(mu, (g @ d + 0.5 * d @ hess @ d) / (0.5 * drop))
        slope = g @ d - mu * drop
        if np.abs(d).max() < _STEP_TOL or not slope < 0.0:
            return
        for t in 0.5 ** np.arange(_LINE_SEARCH_TRIALS):  # backtracking
            x_t = np.clip(x + t * d, -1.0, 1.0)
            f_t, jac_t = fun(x_t)
            if f_t[0] + mu * l1(f_t[1:]) <= f[0] + mu * l1(c) + 1e-4 * t * slope:
                break
        else:  # no descent along d
            return
        s, y = x_t - x, jac_t[0] - jac_t[1:].T @ lam - (g - a.T @ lam)
        hs = hess @ s
        if s @ y < 0.2 * s @ hs:  # Powell's damping keeps hess positive definite
            theta = 0.8 * (s @ hs) / (s @ hs - s @ y)
            y = theta * y + (1.0 - theta) * hs
        hess += np.outer(y, y) / (s @ y) - np.outer(hs, hs) / (s @ hs)
        x, f, jac = x_t, f_t, jac_t


class _SolveState:
    """The history, one HISTORY_COLUMNS row per evaluation, is a solve's only
    record.  row_max is the (stress, temperature) _RowMax pair on the frozen
    draws.  The solver searches b's design box in b's normalized coordinates."""

    def __init__(self, b, cfg: OptimizeConfig, row_max: tuple[_RowMax, _RowMax]):
        self.cfg = cfg
        self.row_max = row_max
        self.history: list[list[float]] = []
        self.box = box = b.input_bounds[:2]
        self.box_mid = 0.5 * (box[:, 0] + box[:, 1])
        self.box_half = 0.5 * (box[:, 1] - box[:, 0])

    def assess(self, x: np.ndarray, elastic: bool = False):
        """Evaluate one solver point, a design in normalized coordinates, and
        append its history row.  Returns the energy, the constraint rows and
        the exact Jacobian in x of the energy and those rows on the frozen
        draws.  The rows are the solver's, _margins with its risk row in
        stress units (_risk); with elastic, they are _margins itself, whose
        risk row is the bPOF or POF margin.  POF's gradient is 0 almost
        everywhere.  bPOF is sum((sigma - zeta)^+) / n (tau - zeta) at a
        zeta that is one draw's value, and stays that draw's nearby: so each
        of the m draws above zeta weighs 1 / n (tau - zeta) in its gradient
        and that draw (n bPOF - m) / n (tau - zeta)."""
        cfg = self.cfg
        v, p = self.box_mid + self.box_half * np.clip(x, -1.0, 1.0)
        # normalized by the public rule, so a history row reproduces exactly
        xc = normalize_inputs(np.array([v, p]), self.box)
        d = DesignPoint(v=v, P=p)
        stress_max, temperature_max = self.row_max
        sigma, at = stress_max.evaluate(xc)
        at = at[:2]  # the risk draws' features come from their basis rows
        lhs, zeta, risk_row, (draws, weights) = _risk(sigma, cfg)
        if elastic and cfg.constraint_kind == CONSTRAINT_BPOF and 0.0 < lhs < 1.0:
            above, n = np.flatnonzero(sigma > zeta), sigma.size
            draws = np.append(above, np.argmax(sigma == zeta))
            weights = np.append(np.ones(above.size), lhs * n - above.size)
            weights *= -1.0 / (n * (cfg.tau - zeta) * (1.0 - cfg.alpha_t))
        elif elastic:  # 0 at bPOF 0 or 1, and POF's almost everywhere
            draws, weights = draws[:0], 0.0
        risk_grad = stress_max.gradient(at, weights, draws)
        temps, at = temperature_max.evaluate(xc)
        t_hat = float(temps.mean())
        dt = temperature_max.gradient(at, 1.0 / temps.size) / _window_width(cfg)
        e = energy(d, cfg.scan_length)
        self.history.append([v, p, zeta, e, lhs, t_hat])
        rows = _margins(cfg, lhs, t_hat)
        if not elastic:
            rows[0] = risk_row
        de = [-e / v * self.box_half[0], cfg.scan_length / v * self.box_half[1]]
        return e, rows, np.array([de, risk_grad, dt, -dt])

    # not called here, but perfbench/tracing.py calls it by this name
    def _is_feasible(self, lhs, t_hat):
        return is_feasible(self.cfg, lhs, t_hat)


def _reported_row(cfg: OptimizeConfig, rows) -> int:
    """The index of the row to report among HISTORY_COLUMNS rows: the first
    of least energy among those that pass is_feasible or, with none, among
    those of least total violation (the negative part of _margins)."""
    e, lhs, t_hat = np.asarray(rows, dtype=float)[:, 3:].T
    ok = is_feasible(cfg, lhs, t_hat)
    violation = np.maximum(-_margins(cfg, lhs, t_hat), 0.0).sum(axis=1)
    first = ~ok if ok.any() else violation
    return int(np.lexsort((e, first))[0])  # a stable sort: ties keep the first row


def _frozen_row_max(b: surrogate.SurrogateBundle, cfg: OptimizeConfig):
    """The (stress, temperature) _RowMax pair on the frozen sample set: cfg.n_mc
    material draws in b's box from an RNG seeded with cfg.seed.  Building it
    draws the samples and builds every feature's basis and the hull rows."""
    rng = np.random.default_rng(cfg.seed)
    u_z = _material_inputs(b, draw_material_samples(b.input_bounds[2:], cfg.n_mc, rng))
    return _RowMax(b.stress, u_z), _RowMax(b.temperature, u_z)


def _start_point(b: surrogate.SurrogateBundle, d0: DesignPoint) -> np.ndarray:
    """d0 in b's normalized design box; a ValueError names d0 when it is not
    finite or lies outside the box."""
    try:
        return normalize_inputs(np.array([d0.v, d0.P], dtype=float), b.input_bounds[:2])
    except ValueError as e:
        raise ValueError(f"initial design ({d0.v}, {d0.P}): {e}") from None


def solve(
    b: surrogate.SurrogateBundle,
    cfg: OptimizeConfig,
    d0: DesignPoint,
    row_max: tuple[_RowMax, _RowMax] | None = None,
) -> OptimizationResult:
    """Minimize scan energy subject to the risk and melt-window constraints.

    Runs one SQP (_sqp) over (v, P) in b's design box from d0 on the frozen
    sample set; with no feasible point, an elastic phase reruns it on the
    squared scaled violations from the least-infeasible one.  It reports the
    history row that _reported_row picks.  row_max is that set's _RowMax
    pair from _frozen_row_max(b, cfg), which a caller with several starts
    builds once and passes to each; it is built here when not given.
    """
    start = _start_point(b, d0)
    if row_max is None:
        row_max = _frozen_row_max(b, cfg)
    state = _SolveState(b, cfg, row_max)

    def energy_and_rows(x):
        e, rows, jac = state.assess(x)
        # a row above 1 is never active, and an open window edge makes it inf
        jac[1:][rows > 1.0] = 0.0
        return np.append(e, np.minimum(rows, 1.0)), jac

    def squared_violation(x):
        _, rows, jac = state.assess(x, elastic=True)
        viol = np.maximum(-rows, 0.0)
        return np.array([np.sum(viol**2)]), (-2.0 * viol @ jac[1:])[None]

    _sqp(energy_and_rows, start)
    v, p, _, _, lhs, t_hat = state.history[_reported_row(cfg, state.history)]
    if not is_feasible(cfg, lhs, t_hat):  # the elastic phase
        _sqp(squared_violation, _start_point(b, DesignPoint(v=v, P=p)))
    v, p, zeta_star, e, lhs, t_hat = state.history[_reported_row(cfg, state.history)]
    return OptimizationResult(
        d_star=DesignPoint(v=v, P=p),
        zeta_star=float(zeta_star),
        energy=float(e),
        bpof_lhs=float(lhs),
        t_max_hat=float(t_hat),
        feasible=bool(is_feasible(cfg, lhs, t_hat)),
        history=np.asarray(state.history, dtype=float),
    )
