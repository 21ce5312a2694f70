"""Reduced 2D transient heat conduction with a moving Gaussian beam.

Solves rho*Cp(T) dT/dt = div(kappa(T) grad T) + Q_beam on the x-z midplane
rectangle [0,l] x [0,h] (mm), explicit forward Euler on a uniform
cell-centered grid.  Side and bottom boundaries are insulated; the top
surface radiates per Stefan-Boltzmann (computed in Kelvin).  The beam is a
volumetric Gaussian moving along the top surface at scanning speed v with
a cubic depth profile vanishing at penetration depth z0.

The probe at the center of the top surface is recorded after every step;
the 31 snapshot instants are linear interpolation of that trace between
step end times.

Units: mm, s, W, degC internally.  Conductivity is supplied in W/(m*K)
and converted by 1e-3; density in kg/m^3 converted by 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

__all__ = [
    "DesignPoint",
    "RandomInputs",
    "ModelParams",
    "SimGridConfig",
    "TemperatureSnapshot",
    "SimulationError",
    "DESIGN_BOUNDS",
    "RANDOM_INPUT_BOUNDS",
    "STRESS_GRID_SHAPE",
    "snapshot_times",
    "material_props",
    "bulk_density",
    "simulate",
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


class SimulationError(RuntimeError):
    """Raised when a run becomes numerically invalid; carries the step index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step

    def __reduce__(self):  # two-argument init needs explicit pickle support
        return (SimulationError, (self.args[0], self.step))


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
    """Material, beam and geometry parameters with nominal defaults.

    Cp(T) = a0 + a1*T + a2*T^2 in J/(kg K); kappa(T) = b0 + b1*T + b2*T^2
    in W/(m K); temperatures in degC.
    """

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
            raise ValueError(
                "heat capacity and conductivity must stay positive "
                "between chamber and 1.1x liquidus temperature"
            )


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
    """Probe history at the 31 snapshot instants plus the peak field.

    peak_field is the per-point running maximum temperature over the scan,
    resampled to the 32x14 stress grid (axis 0 = length, axis 1 = height).
    """

    times: np.ndarray
    temps: np.ndarray
    t_scan: float
    peak_field: np.ndarray


def snapshot_times(v: float, l: float) -> np.ndarray:
    """31 probe instants: 10 early, 10 clustered mid-scan, 11 late.

    The middle block brackets the beam's pass over the probe so the maximum
    is captured tightly.
    """
    if v <= 0:
        raise ValueError("scanning speed must be positive")
    t = l / v
    return np.concatenate(
        [
            np.linspace(0.0, 0.405 * t, 10),
            np.linspace(0.45 * t, 0.54 * t, 10),
            np.linspace(0.55 * t, t, 11),
        ]
    )


def material_props(T, p: ModelParams):
    """Temperature-dependent (Cp in J/(kg K), kappa in W/(m K))."""
    T = np.asarray(T, dtype=float)
    cp = p.a0 + p.a1 * T + p.a2 * T**2
    kap = p.b0 + p.b1 * T + p.b2 * T**2
    return cp, kap


# The sampled density range (midpoint 612) sits far below the bulk value
# the thermal model uses, so the sampled rho acts as a relative-density
# factor anchored to 4300 kg/m^3 at the midpoint.  This is the single place
# the convention lives.
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
    """Cell-averaged depth factor per cell row (index 0 = bottom).

    Integrates the cubic antiderivative of the depth profile over each
    cell's depth span so total deposited power is grid-independent.
    """

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
    return (
        field[i0, j0] * (1 - wx) * (1 - wz)
        + field[i0 + 1, j0] * wx * (1 - wz)
        + field[i0, j0 + 1] * (1 - wx) * wz
        + field[i0 + 1, j0 + 1] * wx * wz
    )


def _validate_inputs(d: DesignPoint, z: RandomInputs):
    if not (np.isfinite(d.v) and d.v > 0):
        raise ValueError("scanning speed must be positive")
    if not (np.isfinite(d.P) and d.P >= 0):
        raise ValueError("beam power must be non-negative")
    for name in ("T0", "Y", "E", "rho"):
        val = getattr(z, name)
        if not np.isfinite(val) or val <= 0:
            raise ValueError(f"random input {name} must be positive and finite")


def _solve_field(d: DesignPoint, z: RandomInputs, p: ModelParams,
                 grid: SimGridConfig):
    """Run the explicit solver; returns internals for simulate and tests.

    Returns (times, probe_temps, peak_sim, final_sim, x_centers, z_centers).
    """
    _validate_inputs(d, z)
    nx, nz = grid.cells_x, grid.cells_z
    dx, dz = p.l / nx, p.h / nz
    xc = (np.arange(nx) + 0.5) * dx
    zc = (np.arange(nz) + 0.5) * dz
    x_edges = np.arange(nx + 1) * dx

    rho = bulk_density(z.rho)
    t_scan = p.l / d.v
    times = snapshot_times(d.v, p.l)

    # temperature range a run may visit: the floor starts from the coldest
    # legitimate state (preheat may sit below chamber), the ceiling is far
    # above liquidus; the probe must stay inside it
    clamp_lo = min(z.T0, p.Tc) - 50.0
    clamp_hi = 3.0 * p.Tliq
    # stability bound from worst-case properties over that range
    cp_min, _ = _quad_extrema(p.a0, p.a1, p.a2, clamp_lo, clamp_hi)
    _, kap_max = _quad_extrema(p.b0, p.b1, p.b2, clamp_lo, clamp_hi)
    kap_max *= 1e-3  # W/(mm K)
    if cp_min <= 0 or kap_max <= 0:
        raise ValueError("material properties non-positive over the run range")
    dt_stable = grid.cfl_factor * rho * cp_min * min(dx, dz) ** 2 / (4.0 * kap_max)
    n_steps = max(1, int(np.ceil(t_scan / dt_stable)))
    dt = t_scan / n_steps

    T = np.full((nx, nz), float(z.T0))
    peak = T.copy()
    amp = 2.0 * p.A * d.P / (np.pi * p.r**2 * p.z0)
    gz = _depth_deposit(nz, dz, p.h, p.z0)  # per cell row, index 0 = bottom
    tc_k4 = (p.Tc + KELVIN_OFFSET) ** 4
    rad_coeff = STEFAN_BOLTZMANN_MM * p.eps_s

    # the probe at the center of the top surface keeps one cell and one
    # set of bilinear weights for the whole run
    cell = _bilinear_cell(T.shape, xc[0], dx, zc[0], dz, p.l / 2.0, p.h)
    trace = np.empty(n_steps + 1)  # probe temperature at each step's end
    trace[0] = _bilinear(T, *cell)

    for step in range(1, n_steps + 1):
        t_old = (step - 1) * dt
        cp, kap = material_props(T, p)
        kap = kap * 1e-3
        # conduction: arithmetic-mean face conductivities, insulated walls
        rate = np.zeros_like(T)
        fx = 0.5 * (kap[1:, :] + kap[:-1, :]) * (T[1:, :] - T[:-1, :]) / dx
        rate[:-1, :] += fx / dx
        rate[1:, :] -= fx / dx
        fz = 0.5 * (kap[:, 1:] + kap[:, :-1]) * (T[:, 1:] - T[:, :-1]) / dz
        rate[:, :-1] += fz / dz
        rate[:, 1:] -= fz / dz
        # beam deposition, cell-averaged in both directions
        if d.P > 0:
            gx = _gauss_deposit(x_edges, d.v * t_old, p.r, dx)
            rate += amp * np.outer(gx, gz)
        # top-surface radiation out of the top cell row
        t_k = T[:, -1] + KELVIN_OFFSET
        rate[:, -1] -= rad_coeff * (t_k**4 - tc_k4) / dz
        T = T + dt * rate / (rho * cp)
        np.maximum(peak, T, out=peak)

        probe = trace[step] = _bilinear(T, *cell)
        if not clamp_lo <= probe <= clamp_hi:  # also catches nan
            raise SimulationError(
                f"probe temperature {probe:.1f} degC outside "
                f"[{clamp_lo:.1f}, {clamp_hi:.1f}] at step {step}", step,
            )

    if not np.isfinite(T).all():
        raise SimulationError(
            f"field became non-finite by step {n_steps}", n_steps
        )
    # snapshots: linear interpolation of the trace between step ends; the
    # last instant may exceed n_steps * dt by rounding, where interp clamps
    temps = np.interp(times, np.arange(n_steps + 1) * dt, trace)
    return times, temps, peak, T, xc, zc


def simulate(d: DesignPoint, z: RandomInputs, p: ModelParams | None = None,
             grid: SimGridConfig | None = None) -> TemperatureSnapshot:
    """Run one scan and return the probe history plus the peak field.

    The probe sits at the center of the top surface (x = l/2, z = h).  The
    peak field is the running per-cell maximum resampled to the 32x14
    stress grid by clamped bilinear interpolation, so it inherits the
    initial-condition floor T0.
    """
    p = ModelParams() if p is None else p
    grid = SimGridConfig() if grid is None else grid
    times, temps, peak, _, xc, zc = _solve_field(d, z, p, grid)
    nsx, nsz = STRESS_GRID_SHAPE
    sx = np.linspace(0.0, p.l, nsx)
    sz = np.linspace(0.0, p.h, nsz)
    xq, zq = np.meshgrid(sx, sz, indexing="ij")
    dx, dz = p.l / grid.cells_x, p.h / grid.cells_z
    cell = _bilinear_cell(peak.shape, xc[0], dx, zc[0], dz, xq, zq)
    peak_field = _bilinear(peak, *cell)
    return TemperatureSnapshot(
        times=times, temps=temps, t_scan=p.l / d.v, peak_field=peak_field
    )
