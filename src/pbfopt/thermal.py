"""Reduced 2D transient heat conduction with a moving Gaussian beam.

Solves rho*Cp(T) dT/dt = div(kappa(T) grad T) + Q_beam on the x-z midplane
rectangle [0,l] x [0,h] (mm), explicit forward Euler on a uniform
cell-centered grid.  Side and bottom boundaries are insulated; the top
surface radiates per Stefan-Boltzmann (computed in Kelvin).  The beam is a
volumetric Gaussian moving along the top surface at scanning speed v with
a cubic depth profile vanishing at penetration depth z0.

Runs advance in lockstep blocks of up to BLOCK_RUNS: one (B, nx, nz) array
whose runs each keep their own density, time step, step count, clamp range
and beam.  Sorted by step count, the runs still stepping are a shrinking
leading prefix.  Each element gets a single-run step's arithmetic in the
same order, so no result depends on the block or its size.  The probe at
the center of the top surface is recorded after every step; the 31
snapshot instants interpolate that trace linearly between step end times.

Units: mm, s, W, degC internally.  Conductivity is supplied in W/(m*K)
and converted by 1e-3; density in kg/m^3 converted by 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import erf

__all__ = [
    "DesignPoint", "RandomInputs", "ModelParams", "SimGridConfig",
    "TemperatureSnapshot", "SimulationError",
    "DESIGN_BOUNDS", "RANDOM_INPUT_BOUNDS", "STRESS_GRID_SHAPE",
    "snapshot_times", "material_props", "bulk_density", "simulate", "simulate_batch",
]

# decision-variable box and the uniform ranges of the random inputs
DESIGN_BOUNDS = {"v": (100.0, 1000.0), "P": (20.0, 200.0)}
RANDOM_INPUT_BOUNDS = {
    "T0": (585.0, 715.0),
    "Y": (742.5, 907.5),
    "E": (100.0, 120.0),
    "rho": (550.8, 673.2),
}

# stress field resolution: 32 points along the length, 14 along the height
STRESS_GRID_SHAPE = (32, 14)

STEFAN_BOLTZMANN_MM = 5.67e-14  # W / (mm^2 K^4)
KELVIN_OFFSET = 273.15
BLOCK_RUNS = 16  # runs stepped together in one lockstep block


class SimulationError(RuntimeError):
    """Raised when a run becomes numerically invalid; carries step and run index."""

    def __init__(self, message: str, step: int, run: int = 0):
        super().__init__(message)
        self.step = step
        self.run = run

    def __reduce__(self):  # multi-argument init needs explicit pickle support
        return (SimulationError, (self.args[0], self.step, self.run))


@dataclass(frozen=True)
class DesignPoint:
    """Decision vector: scanning speed v (mm/s) and beam power P (W)."""

    v: float
    P: float


@dataclass(frozen=True)
class RandomInputs:
    """One realization of (T0 degC, Y MPa, E GPa, rho kg/m^3)."""

    T0: float
    Y: float
    E: float
    rho: float


@dataclass(frozen=True)
class ModelParams:
    """Material, beam and geometry parameters with nominal defaults:
    Cp(T) = a0 + a1*T + a2*T^2 in J/(kg K); kappa(T) = b0 + b1*T + b2*T^2
    in W/(m K); temperatures in degC."""

    a0: float = 540.0
    a1: float = 0.43
    a2: float = -3.2e-5
    b0: float = 7.2
    b1: float = 0.011
    b2: float = 1.4e-6
    A: float = 0.203  # powder absorptivity
    r: float = 0.2  # beam spot radius, mm
    z0: float = 0.05  # beam penetration depth, mm
    eps_s: float = 0.35  # surface emissivity
    Tc: float = 650.0  # chamber temperature, degC
    Tliq: float = 1650.0  # liquidus temperature, degC
    l: float = 2.0  # part length, mm
    h: float = 0.65  # part height, mm

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("beam radius must be positive")
        if not 0 < self.z0 <= self.h:
            raise ValueError("penetration depth must lie in (0, h]")
        if not 0 < self.A <= 1:
            raise ValueError("absorptivity must lie in (0, 1]")
        if min(self.l, self.h) <= 0:
            raise ValueError("part dimensions must be positive")
        ts = np.linspace(self.Tc, 1.1 * self.Tliq, 200)
        cp, kap = material_props(ts, self)
        if np.min(cp) <= 0 or np.min(kap) <= 0:
            raise ValueError("heat capacity and conductivity must stay positive "
                             "between chamber and 1.1x liquidus temperature")


@dataclass(frozen=True)
class SimGridConfig:
    """Uniform-grid resolution and the explicit time-step safety factor."""

    cells_x: int = 64
    cells_z: int = 26
    cfl_factor: float = 0.4

    def __post_init__(self):
        if self.cells_x < 4 or self.cells_z < 4:
            raise ValueError("grid needs at least 4 cells per direction")
        if not 0 < self.cfl_factor <= 1:
            raise ValueError("cfl_factor must lie in (0, 1]")


@dataclass(frozen=True)
class TemperatureSnapshot:
    """Probe history at the 31 snapshot instants plus the peak field: the
    per-point running maximum temperature over the scan, resampled to the
    32x14 stress grid (axis 0 = length, axis 1 = height)."""

    times: np.ndarray
    temps: np.ndarray
    t_scan: float
    peak_field: np.ndarray


def snapshot_times(v: float, l: float) -> np.ndarray:
    """31 probe instants: 10 early, 10 clustered mid-scan, 11 late.  The
    middle block brackets the beam's pass over the probe so the maximum is
    captured tightly."""
    if v <= 0:
        raise ValueError("scanning speed must be positive")
    t = l / v
    return np.concatenate([np.linspace(0.0, 0.405 * t, 10),
                           np.linspace(0.45 * t, 0.54 * t, 10),
                           np.linspace(0.55 * t, t, 11)])


def material_props(T, p: ModelParams):
    """Temperature-dependent (Cp in J/(kg K), kappa in W/(m K))."""
    T = np.asarray(T, dtype=float)
    cp = p.a0 + p.a1 * T + p.a2 * T**2
    kap = p.b0 + p.b1 * T + p.b2 * T**2
    return cp, kap


# The sampled density range (midpoint 612) sits far below the bulk value the
# thermal model uses, so the sampled rho acts as a relative-density factor
# anchored to 4300 kg/m^3 at the midpoint; this is the one place it lives.
def bulk_density(rho_sample: float) -> float:
    """Map a sampled density factor to bulk density in kg/mm^3."""
    return rho_sample * (4300.0 / 612.0) * 1e-9


def _quad_extrema(c0: float, c1: float, c2: float, lo: float, hi: float):
    """(min, max) of c0 + c1*T + c2*T^2 over [lo, hi]."""
    cand = [lo, hi]
    if c2 != 0.0:
        vertex = -c1 / (2.0 * c2)
        if lo < vertex < hi:
            cand.append(vertex)
    vals = [c0 + c1 * t + c2 * t * t for t in cand]
    return min(vals), max(vals)


def _depth_deposit(nz: int, dz: float, h: float, z0: float) -> np.ndarray:
    """Cell-averaged depth factor per cell row (index 0 = bottom): the cubic
    antiderivative of the depth profile integrated over each cell's depth
    span, so total deposited power is grid-independent."""

    def antideriv(u):
        u = np.clip(u, 0.0, 1.0)
        return (-(u**3) - u**2 + 5.0 * u) / 5.0

    z_lo = np.arange(nz) * dz  # cell bottom coordinates
    depth_hi = h - z_lo  # deepest point of the cell
    depth_lo = depth_hi - dz
    frac = antideriv(depth_hi / z0) - antideriv(depth_lo / z0)
    return frac * z0 / dz


def _gauss_deposit(edges: np.ndarray, beam_x: float, r: float, dx: float) -> np.ndarray:
    """Cell-averaged Gaussian factor along x via exact erf integrals."""
    s = erf(np.sqrt(2.0) * (edges - beam_x) / r)
    return np.sqrt(np.pi / 8.0) * (r / dx) * np.diff(s)


def _bilinear_cell(shape, x0: float, dx: float, z0c: float, dz: float, xq, zq):
    """Clamped-edge bilinear lookup of the points (xq, zq) on a
    cell-centered grid of the given shape: the lower corner (i0, j0) of
    each point's cell and its fractional offsets (wx, wz) in [0, 1]."""
    nx, nz = shape
    fx = np.clip((xq - x0) / dx, 0.0, nx - 1.0)
    fz = np.clip((zq - z0c) / dz, 0.0, nz - 1.0)
    i0 = np.minimum(fx.astype(int), nx - 2)
    j0 = np.minimum(fz.astype(int), nz - 2)
    return i0, j0, fx - i0, fz - j0


def _bilinear(field: np.ndarray, i0, j0, wx, wz):
    """Bilinear blend of a field at the points of a _bilinear_cell lookup."""
    return (field[i0, j0] * (1 - wx) * (1 - wz) + field[i0 + 1, j0] * wx * (1 - wz)
            + field[i0, j0 + 1] * (1 - wx) * wz + field[i0 + 1, j0 + 1] * wx * wz)


def _plan(d: DesignPoint, z: RandomInputs, p: ModelParams, grid: SimGridConfig):
    """Check one run's inputs; its (rho, dt, n_steps, clamp_lo, clamp_hi)."""
    if not (np.isfinite(d.v) and d.v > 0):
        raise ValueError("scanning speed must be positive")
    if not (np.isfinite(d.P) and d.P >= 0):
        raise ValueError("beam power must be non-negative")
    for name in ("T0", "Y", "E", "rho"):
        val = getattr(z, name)
        if not np.isfinite(val) or val <= 0:
            raise ValueError(f"random input {name} must be positive and finite")
    rho = bulk_density(z.rho)
    # temperature range a run may visit: the floor starts from the coldest
    # legitimate state (preheat may sit below chamber), the ceiling is far
    # above liquidus; the probe must stay inside it
    clamp_lo, clamp_hi = min(z.T0, p.Tc) - 50.0, 3.0 * p.Tliq
    # stability bound from worst-case properties over that range
    cp_min, _ = _quad_extrema(p.a0, p.a1, p.a2, clamp_lo, clamp_hi)
    _, kap_max = _quad_extrema(p.b0, p.b1, p.b2, clamp_lo, clamp_hi)
    kap_max *= 1e-3  # W/(mm K)
    if cp_min <= 0 or kap_max <= 0:
        raise ValueError("material properties non-positive over the run range")
    h = min(p.l / grid.cells_x, p.h / grid.cells_z)
    dt_stable = grid.cfl_factor * rho * cp_min * h**2 / (4.0 * kap_max)
    n_steps = max(1, int(np.ceil(p.l / d.v / dt_stable)))
    return rho, p.l / d.v / n_steps, n_steps, clamp_lo, clamp_hi


def _solve_field(runs, p: ModelParams, grid: SimGridConfig):
    """Step one block of (design, random inputs) runs in lockstep; internals
    for simulate_batch and tests.  Per run in input order: (times,
    probe_temps, peak_sim, final_sim, x_centers, z_centers), or the run's
    SimulationError."""
    nx, nz = grid.cells_x, grid.cells_z
    dx, dz = p.l / nx, p.h / nz
    xc, zc = (np.arange(nx) + 0.5) * dx, (np.arange(nz) + 0.5) * dz
    x_edges = np.arange(nx + 1) * dx
    order = sorted(range(len(runs)), key=lambda k: -_plan(*runs[k], p, grid)[2])
    runs = [runs[k] for k in order]  # most steps first
    rho, dt, n_steps, lo, hi = np.array([_plan(d, z, p, grid) for d, z in runs]).T
    n_steps = n_steps.astype(int).tolist()
    v, power, t0 = np.array([(d.v, d.P, z.T0) for d, z in runs]).T
    amp = 2.0 * p.A * power / (np.pi * p.r**2 * p.z0)
    T = np.repeat(t0, nx * nz).reshape(-1, nx, nz)
    peak = T.copy()
    cp, kap, rate, sq = (np.empty_like(T) for _ in range(4))
    gz = _depth_deposit(nz, dz, p.h, p.z0)  # per cell row, index 0 = bottom
    tc_k4, rad_coeff = (p.Tc + KELVIN_OFFSET) ** 4, STEFAN_BOLTZMANN_MM * p.eps_s
    # per face direction: spacing, cells above and below, flux and difference
    faces = [(h, up, dn, np.empty_like(T[dn]), np.empty_like(T[dn])) for h, up, dn in
             ((dx, np.s_[:, 1:], np.s_[:, :-1]), (dz, np.s_[..., 1:], np.s_[..., :-1]))]
    # the probe keeps one cell and one set of bilinear weights throughout
    cell = _bilinear_cell((nx, nz), xc[0], dx, zc[0], dz, p.l / 2.0, p.h)
    trace = np.empty((n_steps[0] + 1, len(order)))  # probe at each step's end
    trace[0] = _bilinear(T.transpose(1, 2, 0), *cell)
    n = len(order)
    errors = [None] * n
    with np.errstate(all="ignore"):  # a failed run steps on, never read
        for step in range(1, n_steps[0] + 1):
            while n_steps[n - 1] < step:
                n -= 1
            Tn, cpn, kapn, raten, sqn = T[:n], cp[:n], kap[:n], rate[:n], sq[:n]
            # material_props in place, in its order of operations
            np.square(Tn, out=sqn)
            for c0, c1, c2, prop in ((p.a0, p.a1, p.a2, cpn), (p.b0, p.b1, p.b2, kapn)):
                np.add(np.multiply(Tn, c1, out=prop), c0, out=prop)
                prop += np.multiply(sqn, c2, out=raten)
            kapn *= 1e-3
            # conduction: arithmetic-mean face conductivities, insulated walls
            raten.fill(0.0)
            for h, up, dn, flux, diff in faces:
                flux, diff = flux[:n], diff[:n]
                np.multiply(np.add(kapn[up], kapn[dn], out=flux), 0.5, out=flux)
                flux *= np.subtract(Tn[up], Tn[dn], out=diff)
                flux /= h  # the face flux,
                flux /= h  # then its share of each neighbour's rate
                raten[dn] += flux
                raten[up] -= flux
            # beam deposition, cell-averaged in both directions (P = 0 adds 0)
            beam_x = v[:n, None] * ((step - 1) * dt[:n, None])
            gx = _gauss_deposit(x_edges, beam_x, p.r, dx)
            np.multiply(gx[..., None], gz, out=sqn)
            raten += np.multiply(sqn, amp[:n, None, None], out=sqn)
            # top-surface radiation out of the top cell row
            t_k = Tn[:, :, -1] + KELVIN_OFFSET
            raten[:, :, -1] -= rad_coeff * (t_k**4 - tc_k4) / dz
            # T += dt * rate / (rho * cp)
            raten *= dt[:n, None, None]
            raten /= np.multiply(cpn, rho[:n, None, None], out=cpn)
            Tn += raten
            np.maximum(peak[:n], Tn, out=peak[:n])
            probe = trace[step, :n] = _bilinear(Tn.transpose(1, 2, 0), *cell)
            for s in np.flatnonzero(~((lo[:n] <= probe) & (probe <= hi[:n]))):  # nan
                errors[s] = errors[s] or SimulationError(
                    f"probe temperature {probe[s]:.1f} degC outside "
                    f"[{lo[s]:.1f}, {hi[s]:.1f}] at step {step}", step)
            if None not in errors:
                break
    out = []
    for s in np.argsort(order):  # in input order
        last = n_steps[s]
        if errors[s] is None and not np.isfinite(T[s]).all():
            errors[s] = SimulationError(f"field became non-finite by step {last}", last)
        # snapshots: linear interpolation of the trace between step ends; the
        # last instant may exceed n_steps * dt by rounding, where interp clamps
        times = snapshot_times(v[s], p.l)
        temps = np.interp(times, np.arange(last + 1) * dt[s], trace[: last + 1, s])
        out.append(errors[s] or (times, temps, peak[s].copy(), T[s].copy(), xc, zc))
    return out


def simulate_batch(designs, inputs, p: ModelParams | None = None,
                   grid: SimGridConfig | None = None,
                   map_blocks=map) -> list[TemperatureSnapshot]:
    """One scan per (design, random inputs) pair, snapshots in that order.

    All inputs are checked before any run steps.  Sorted by step count, the
    runs go in blocks of BLOCK_RUNS to the kernel through map_blocks (map,
    or a process pool's), which changes no result.  The lowest-indexed
    failed run raises its SimulationError, with .run set to that index."""
    p = ModelParams() if p is None else p
    grid = SimGridConfig() if grid is None else grid
    runs = list(zip(designs, inputs, strict=True))
    order = sorted(range(len(runs)), key=lambda k: -_plan(*runs[k], p, grid)[2])
    blocks = [order[i : i + BLOCK_RUNS] for i in range(0, len(order), BLOCK_RUNS)]
    solved = map_blocks(partial(_solve_field, p=p, grid=grid),
                        [[runs[k] for k in block] for block in blocks])
    # the peak field resampled to the 32x14 stress grid by clamped bilinear
    # interpolation, so it inherits the initial-condition floor T0
    xq, zq = np.meshgrid(np.linspace(0.0, p.l, STRESS_GRID_SHAPE[0]),
                         np.linspace(0.0, p.h, STRESS_GRID_SHAPE[1]), indexing="ij")
    dx, dz = p.l / grid.cells_x, p.h / grid.cells_z
    cell = _bilinear_cell((grid.cells_x, grid.cells_z), dx / 2, dx, dz / 2, dz, xq, zq)
    snaps = [None] * len(runs)
    for block, results in zip(blocks, solved):
        for k, r in zip(block, results):
            snaps[k] = r if isinstance(r, SimulationError) else TemperatureSnapshot(
                r[0], r[1], p.l / designs[k].v, _bilinear(r[2], *cell))
    for k, s in enumerate(snaps):
        if isinstance(s, SimulationError):
            s.run = k
            raise s
    return snaps


def simulate(d: DesignPoint, z: RandomInputs, p: ModelParams | None = None,
             grid: SimGridConfig | None = None) -> TemperatureSnapshot:
    """Run one scan, a batch of one: the probe history at the center of the
    top surface (x = l/2, z = h) and the peak field."""
    return simulate_batch([d], [z], p, grid)[0]
