"""Risk-constrained scan-energy minimization on the surrogate bundle.

Minimizes beam energy per scan over the design (v, P) subject to a
buffered failure-probability budget on maximum residual stress and a
melt-window band on the mean maximum temperature.  One frozen Monte Carlo
sample set per solve turns the stochastic constraints into deterministic
functions of the design (sample average approximation with common random
numbers).  The buffered probability is the minimum over zeta < tau of
mean((sigma - zeta)^+) / (tau - zeta); each evaluation solves that inner
minimization exactly, so zeta is reported but never searched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

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
_FD_STEP = 1e-6  # difference step in normalized units; the SQP stops below it
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

    iterations counts surrogate evaluations, one per history row, finite
    differences and the elastic phase included.
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
    """The risk constraint on one sample set: (lhs, zeta, row).

    lhs is the constraint value, bPOF at tau in bpof mode and the plain
    exceedance frequency in pof mode.  zeta solves the inner minimization
    of the buffered exceedance ratio exactly, so it never needs to be
    searched.  row is the solver's risk row 1 - rho / tau, continuous in
    the design: rho is the alpha-superquantile in bpof mode (bPOF_tau <=
    1 - alpha exactly when rho <= tau; Rockafellar & Royset 2010), and in
    pof mode the (k + 1)-th largest sample, k = floor((1 - alpha) n),
    exceeded by at most k samples.
    """
    if not np.isfinite(cfg.tau):
        return 0.0, float(sigma.max()), 1.0
    bpof, zeta = risk.estimate_bpof_minform(sigma, cfg.tau)
    # tau equal to the sample maximum returns zeta = tau; zeta must stay below
    zeta = min(zeta, float(np.nextafter(cfg.tau, -np.inf)))
    if cfg.constraint_kind == CONSTRAINT_POF:
        k = int((1.0 - cfg.alpha_t) * sigma.size)
        lhs = risk.estimate_pof(sigma, cfg.tau)
        rho = np.partition(sigma, -k - 1)[-k - 1]
    else:
        lhs, rho = bpof, risk.estimate_superquantile(sigma, cfg.alpha_t)
    return lhs, zeta, 1.0 - rho / cfg.tau


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
    its shift into the coefficients.  Two cuts leave the max unchanged.
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
        vectors = output.right_vectors
        self._vectors = vectors[_hull_columns(vectors)]

    def __call__(self, u_d: np.ndarray) -> np.ndarray:
        shift = surrogate.shift_coefficients
        g = np.stack(
            [a @ shift(m.poly, u_d @ m.subspace.w1[:2]) for m, a in self._bases]
        )
        rows = _reachable_rows(self._vectors, g)
        out = rows[0] @ g
        for v in rows[1:]:  # column-wise max, one n-length row at a time
            np.maximum(out, v @ g, out=out)
        return out


def _margins(cfg: OptimizeConfig, lhs, t_hat) -> np.ndarray:
    """Scaled constraint slack, non-negative where a constraint holds: the
    risk budget left over as a fraction of the budget, then the distances
    of t_hat above the window's lower edge and below its upper edge in
    window widths.  On arrays the three margins run along the last axis."""
    budget = 1.0 - cfg.alpha_t
    lo, hi = cfg.temp_window
    scale = (hi - lo) if np.isfinite(hi - lo) else 1.0
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
    it is the best feasible such candidate.  Returns (d, multipliers) or None."""
    best = (np.inf, None)
    for k in range(3):
        # [[hess, -J.T], [J, 0]] d, lam = [-g, -rows] for the k active rows J,
        # filled in place for each active set of that size
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
            if q < best[0] and np.all(rows + jac @ d >= -1e-9):  # up to rounding
                best = (q, (d, lam))
    return best[1]


def _sqp(fun, x: np.ndarray) -> None:
    """Minimize fun(x)[0] subject to fun(x)[1:] >= 0 over the box [-1, 1]^2 by
    SQP: forward-difference gradients, the QP (_qp) on a Powell-damped BFGS
    Hessian of the Lagrangian (Powell 1978), backtracking on the l1 merit
    f + mu * sum(c^-), and a least-squares restoration step that relaxes the
    rows when their linearization has no feasible point.  Stops when the step
    vanishes, when backtracking finds no descent, or after _MAX_ITERS."""
    def l1(c):  # total violation of rows c >= 0
        return np.maximum(-c, 0.0).sum()

    def jacobian(x, f):  # forward differences, stepping inward at the box edge
        hs = np.where(x + _FD_STEP <= 1.0, _FD_STEP, -_FD_STEP)
        cols = [(fun(x + h * e) - f) / h for h, e in zip(hs, np.eye(2))]
        return np.column_stack(cols)

    f, hess, mu = fun(x), np.eye(2), 0.0
    jac = jacobian(x, f)
    for _ in range(_MAX_ITERS):
        c, a, g = f[1:], jac[1:], jac[0]
        rows = np.concatenate([c, 1.0 - x, 1.0 + x])
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
        if np.abs(d).max() < _FD_STEP or not slope < 0.0:
            return
        for t in 0.5 ** np.arange(20):  # backtracking
            x_t = np.clip(x + t * d, -1.0, 1.0)
            f_t = fun(x_t)
            if f_t[0] + mu * l1(f_t[1:]) <= f[0] + mu * l1(c) + 1e-4 * t * slope:
                break
        else:  # no descent along d
            return
        jac_t = jacobian(x_t, f_t)
        s, y = x_t - x, jac_t[0] - jac_t[1:].T @ lam - (g - a.T @ lam)
        hs = hess @ s
        if s @ y < 0.2 * s @ hs:  # Powell's damping keeps hess positive definite
            theta = 0.8 * (s @ hs) / (s @ hs - s @ y)
            y = theta * y + (1.0 - theta) * hs
        hess += np.outer(y, y) / (s @ y) - np.outer(hs, hs) / (s @ hs)
        x, f, jac = x_t, f_t, jac_t


class _SolveState:
    """Shared bookkeeping across solver phases: history and incumbents.
    row_max is the (stress, temperature) _RowMax pair on the frozen draws.
    The solver searches b's design box in b's own normalized coordinates."""

    def __init__(self, b, cfg: OptimizeConfig, row_max: tuple[_RowMax, _RowMax]):
        self.cfg = cfg
        self.row_max = row_max
        self.history: list[list[float]] = []
        # (energy, history row) and (violation, energy, clipped search point,
        # history row); the elastic phase starts at the latter's point
        self.best_feasible: tuple[float, list] | None = None
        self.least_infeasible: tuple[float, float, np.ndarray, list] | None = None
        box = b.input_bounds[:2]
        self.box_mid = 0.5 * (box[:, 0] + box[:, 1])
        self.box_half = 0.5 * (box[:, 1] - box[:, 0])

    def assess(self, x: np.ndarray):
        """Evaluate one solver point, a design in normalized coordinates;
        records history and incumbents.  Returns the energy, the scaled
        constraint violations (the negative part of _margins) and the
        solver's constraint rows: _margins with its risk row in stress
        units (_risk)."""
        cfg = self.cfg
        xc = np.clip(x, -1.0, 1.0)  # the evaluated design lives at the clip
        v, p = self.box_mid + self.box_half * xc
        d = DesignPoint(v=v, P=p)
        stress_max, temperature_max = self.row_max
        sigma = stress_max(xc)
        lhs, zeta, risk_row = _risk(sigma, cfg)
        t_hat = float(temperature_max(xc).mean())
        e = energy(d, cfg.scan_length)
        margins = _margins(cfg, lhs, t_hat)
        viol = np.maximum(-margins, 0.0)
        row = [v, p, zeta, e, lhs, t_hat]
        self.history.append(row)
        total_viol = float(viol.sum())
        if self._is_feasible(lhs, t_hat):
            if self.best_feasible is None or e < self.best_feasible[0]:
                self.best_feasible = (e, row)
        key = (total_viol, e)
        if self.least_infeasible is None or key < self.least_infeasible[:2]:
            self.least_infeasible = (total_viol, e, xc, row)
        margins[0] = risk_row
        return e, viol, margins

    def _is_feasible(self, lhs, t_hat):
        return is_feasible(self.cfg, lhs, t_hat)


def solve(
    b: surrogate.SurrogateBundle, cfg: OptimizeConfig, d0: DesignPoint
) -> OptimizationResult:
    """Minimize scan energy subject to the risk and melt-window constraints.

    Runs one SQP (_sqp) over (v, P) in b's design box from d0 on one frozen
    sample set and reports the best feasible evaluated point.  Without one,
    an elastic phase reruns it on the squared scaled violations from the
    least-infeasible point, which is reported with feasible=False.
    """
    try:
        start = normalize_inputs(np.array([d0.v, d0.P]), b.input_bounds[:2])
    except ValueError as e:
        raise ValueError(f"initial design ({d0.v}, {d0.P}): {e}") from None
    rng = np.random.default_rng(cfg.seed)
    u_z = _material_inputs(b, draw_material_samples(b.input_bounds[2:], cfg.n_mc, rng))
    state = _SolveState(b, cfg, (_RowMax(b.stress, u_z), _RowMax(b.temperature, u_z)))
    del u_z  # only its bases are needed from here

    def energy_and_rows(x):
        e, _, rows = state.assess(x)
        # a row above 1 is never active, and an open window edge makes it inf
        return np.append(e, np.minimum(rows, 1.0))

    def squared_violation(x):
        return np.array([np.sum(state.assess(x)[1] ** 2)])

    _sqp(energy_and_rows, start)
    if state.best_feasible is None:  # the elastic phase
        _sqp(squared_violation, state.least_infeasible[2])

    feasible = state.best_feasible is not None
    row = state.best_feasible[1] if feasible else state.least_infeasible[3]
    v, p, zeta_star, e, lhs, t_hat = row
    return OptimizationResult(
        d_star=DesignPoint(v=v, P=p),
        zeta_star=float(zeta_star),
        energy=float(e),
        bpof_lhs=float(lhs),
        t_max_hat=float(t_hat),
        feasible=feasible,
        history=np.asarray(state.history, dtype=float),
    )
