"""Reduced 2D transient heat conduction with a moving Gaussian beam.

Solves rho*Cp(T) dT/dt = div(kappa(T) grad T) + Q_beam on the x-z midplane
rectangle [0,l] x [0,h] (mm), explicit forward Euler on a uniform
cell-centered grid.  Side and bottom boundaries are insulated; the top
surface radiates per Stefan-Boltzmann (computed in Kelvin).  The beam is a
volumetric Gaussian moving along the top surface at scanning speed v with
a cubic depth profile vanishing at penetration depth z0.

Runs step in blocks of up to BLOCK_RUNS, each field one flat array in
z-major (run, z, x) order, so a cell row is one unit-stride loop, and faces
across a wall or a run boundary carry zero flux.  Each run keeps its
density, time step, step count, clamp range and beam, and steps to its own
end.  Every element gets a single-run step's arithmetic in its order, so no
result depends on the block.  The step is the grid's cfl_factor share of the
largest one that keeps the explicit scheme's maximum principle
(_stable_step): rho*min Cp(T) / ((kappa(T) + kappa_max)*(1/dx^2 + 1/dz^2))
up to its plan's top, 1.5 Tliq, above every run in the design box.
A run fails if its probe leaves [min(T0, Tc) - 50, 3 Tliq] by its last step
or, at its end, its field is not finite or its peak is over the top; it is
solved again with the 3 Tliq plan, under which a failure is final.  A run
whose 3 Tliq plan would take over MAX_STEPS steps is rejected before any step.

The probe (top-surface center) lies between four cells.  After each step they
are blended as _bilinear blends, into the float64 probe trace, and checked
against the band; a run stops at its first step out of the band.  The trace is
interpolated linearly between step ends to the 31 snapshot instants.

The step itself is C (_step.c), one call per block, which steps each run from
its first step to its last in turn.  A run's step takes its beam's cell
averages along x, exact erf integrals over one row of cell edges with libm's
erf, then flat passes over bands of the run's rows, 16 rows on the default
grid: kappa by Horner, the x faces with those across a row end set to zero,
the z faces with a zero row below and above, and the update, with the rate,
the deposit on the rows the beam reaches, the top row's radiation, rho*Cp/dt
by Horner in its run's three coefficients, T in place and the peak; and last
the probe.  Each cell takes the float operations of a numpy step in their order
(tests/oracles.py keeps that step, with math.erf, which is libm's), so its
results are those bits on any machine whose libm has that erf: it is built
without -march and without fused multiply-adds (_CFLAGS), and radiation's
T_K^4 is (T_K^2)^2, plain IEEE arithmetic where numpy's float32 ** 4 follows
its SIMD dispatch.  GCC 11 or later with glibc on x86-64 builds three clones
of the step into the one library, for AVX-512 (x86-64-v4), AVX2 (x86-64-v3)
and the portable default, and the loader picks one for the CPU when the
library is opened; any other platform builds the portable step alone
(_step.c's CLONES).  The clones give the same bits: each float operation
rounds the same at any vector width, none is reassociated or fused, and each
clone calls libm's scalar erf.  The first simulation in a process builds
the library with the system C compiler (_CC, "cc", which must be on PATH;
without one it raises OSError before any step), linked to libm (_LIBS),
unless a build of the same source, compiler version and flags is in
$XDG_CACHE_HOME/pbfopt or ~/.cache/pbfopt, and loads it with ctypes.  ctypes
releases the GIL for each call, so blocks on a thread pool step in parallel.

The fields, the block's temperature and peak and one run's kappa and faces, are
FIELD_DTYPE, float32, which halves the bytes that a step moves; the C step
takes float32 fields alone, and ctypes refuses an array of another dtype or
layout.  The beam deposit is computed in float64, per cell as it is added, and
cast there; no deposit is stored.  The per-run scalars, the beam positions and
erf, the probe trace and the resampling stay float64, so every result is
float64.  Against float64 fields, over the 50 validation draws at the baseline
optimum, the probe moves by at most 1.8e-3 degC and the peak field by 3.8e-3
degC, three orders under the step's own 4.8 degC time error there.

Units: mm, s, W, degC internally.  Conductivity is supplied in W/(m*K)
and converted by 1e-3; density in kg/m^3 converted by 1e-9.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import MISSING, dataclass, fields
from functools import cache, partial
from pathlib import Path

import numpy as np

__all__ = [
    "DesignPoint", "RandomInputs", "ModelParams", "SimGridConfig",
    "TemperatureSnapshot", "SimulationError",
    "DESIGN_BOUNDS", "RANDOM_INPUT_BOUNDS", "STRESS_GRID_SHAPE",
    "snapshot_times", "bulk_density", "simulate", "simulate_batch",
]

# decision-variable box and the uniform ranges of the random inputs
DESIGN_BOUNDS = {"v": (100.0, 1000.0), "P": (20.0, 200.0)}
RANDOM_INPUT_BOUNDS = {"T0": (585.0, 715.0), "Y": (742.5, 907.5),
                       "E": (100.0, 120.0), "rho": (550.8, 673.2)}

# stress field resolution: 32 points along the length, 14 along the height
STRESS_GRID_SHAPE = (32, 14)

STEFAN_BOLTZMANN_MM = 5.67e-14  # W / (mm^2 K^4)
KELVIN_OFFSET = 273.15
BLOCK_RUNS = 16  # runs stepped in one block, one call of the C step
FIELD_DTYPE = np.float32  # the fields' dtype, the C step's float; see the module docstring
# the C compiler that builds _step.c on first use, and its flags: no fused
# multiply-adds, which would change the step's bits, and no -march, which would
# tie the build to one machine (_step.c's clones cover AVX2 and AVX-512)
_CC = "cc"
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
_LIBS = ("-lm",)  # the libraries it links, after the source: erf is libm's
TOP_CEILING = 3.0  # x Tliq: the probe band's top and the last plan's top
# the most steps a run may be planned: 27x the 39,009 of the design box's slowest
# run at its TOP_CEILING plan on a 4x finer grid than the default; a 16-run
# block's float64 probe trace at the limit takes 128 MiB
MAX_STEPS = 2**20
_UNIT = (1.0, 0.0, 0.0)  # the quadratic 1, denominator of a plain quadratic

class SimulationError(RuntimeError):
    """Raised when a run becomes numerically invalid; carries step and run index."""

    def __init__(self, message: str, step: int, run: int = 0):
        super().__init__(message)
        self.step, self.run = step, run


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


def _is_number(x) -> bool:  # numpy's too; np.bool_ is neither of its kinds
    return isinstance(x, (int, float, np.integer, np.floating)) and type(x) is not bool


def _canonical(key: str, value, default):
    """value checked against the type of its field's default, in canonical
    JSON form.

    int fields take integers, numpy's too, and store an int (a bool is not
    one, nor numpy's), float fields take any number, numpy's too, and store
    a float, bool fields take only booleans, str fields take strings and
    pair fields take two numbers, stored as a tuple of floats.  So equal
    configurations have one canonical form and share a hash.
    """
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        kind = "an integer"
        value = int(value) if ok else value
    elif isinstance(default, float):
        ok, kind = _is_number(value), "a number"
        value = float(value) if ok else value
    elif isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    else:  # a (lo, hi) pair
        ok = (
            isinstance(value, (list, tuple, np.ndarray))
            and len(value) == 2
            and all(map(_is_number, value))
        )
        kind = "two numbers"
        value = tuple(float(x) for x in value) if ok else value
    if not ok:
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")
    return value


def _canonicalize(obj, prefix: str) -> None:
    """Store the _canonical value of each field of config section obj that has
    a plain default, checked under its JSON key prefix + name, before any range
    check; a field whose default factory is a class must hold an instance."""
    for f in fields(obj):
        key, value = prefix + f.name, getattr(obj, f.name)
        if f.default is not MISSING:
            object.__setattr__(obj, f.name, _canonical(key, value, f.default))
        elif isinstance(f.default_factory, type) and not isinstance(value, f.default_factory):
            raise ValueError(f"config key {key!r} must be an instance of "
                             f"{f.default_factory.__name__}, got {value!r}")


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
        _canonicalize(self, "model.")
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"model parameter {f.name} must be finite")
        if self.r <= 0:
            raise ValueError("beam radius must be positive")
        if not 0 < self.z0 <= self.h:
            raise ValueError("penetration depth must lie in (0, h]")
        if not 0 < self.A <= 1:
            raise ValueError("absorptivity must lie in (0, 1]")
        if not 0 <= self.eps_s <= 1:
            raise ValueError("surface emissivity must lie in [0, 1]")
        if self.Tliq <= self.Tc:
            raise ValueError("liquidus temperature must lie above chamber temperature")
        if min(self.l, self.h) <= 0:
            raise ValueError("part dimensions must be positive")
        for coeffs in ((self.a0, self.a1, self.a2), (self.b0, self.b1, self.b2)):
            if _ratio_extrema(coeffs, _UNIT, self.Tc, 1.1 * self.Tliq)[0] <= 0:
                raise ValueError("heat capacity and conductivity must stay positive "
                                 "between chamber and 1.1x liquidus temperature")


@dataclass(frozen=True)
class SimGridConfig:
    """Uniform-grid resolution and the explicit time step's share of the
    largest step at which no cell puts a negative weight on its own
    temperature (1.0 is that bound itself; see _stable_step)."""

    cells_x: int = 64
    cells_z: int = 26
    cfl_factor: float = 0.8

    def __post_init__(self):
        _canonicalize(self, "grid.")
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


# The sampled density range (midpoint 612) sits far below the bulk value the
# thermal model uses, so the sampled rho acts as a relative-density factor
# anchored to 4300 kg/m^3 at the midpoint; this is the one place it lives.
def bulk_density(rho_sample: float) -> float:
    """Map a sampled density factor to bulk density in kg/mm^3."""
    return rho_sample * (4300.0 / 612.0) * 1e-9


def _ratio_extrema(num, den, lo: float, hi: float):
    """(min, max) over [lo, hi] of num(T) / den(T), quadratics c0 + c1 T + c2 T^2."""
    (a0, a1, a2), (b0, b1, b2) = num, den
    # stationary where c2 T^2 + c1 T + c0 vanishes (the T^3 terms cancel); by
    # hand, as np.roots's LAPACK call adds about 0.7 MB to peak memory
    c2, c1, c0 = a2 * b1 - a1 * b2, 2.0 * (a2 * b0 - a0 * b2), a1 * b0 - a0 * b1
    disc = c1 * c1 - 4.0 * c2 * c0
    if c2 != 0.0:
        roots = [(-c1 + s * disc**0.5) / (2.0 * c2) for s in (-1.0, 1.0)] if disc >= 0 else []
    else:
        roots = [-c0 / c1] if c1 != 0.0 else []
    # as Python floats: a numpy array of candidates made _plan 3x as slow
    vals = [(a0 + a1 * t + a2 * t * t) / (b0 + b1 * t + b2 * t * t)
            for t in (lo, hi, *(r for r in roots if lo < r < hi))]
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


def _stable_step(rho: float, lo: float, hi: float, p: ModelParams,
                 grid: SimGridConfig) -> float:
    """cfl_factor of the largest step at which every cell at lo to hi keeps a
    non-negative weight on itself: rho min cp(T) / ((kappa(T) + kappa_max)
    (1/dx^2 + 1/dz^2)), kappa_max the band's; 4 faces of mean conductivity."""
    _, kap_max = _ratio_extrema((p.b0, p.b1, p.b2), _UNIT, lo, hi)
    ratio_min, _ = _ratio_extrema((p.a0, p.a1, p.a2), (p.b0 + kap_max, p.b1, p.b2), lo, hi)
    dx, dz = p.l / grid.cells_x, p.h / grid.cells_z
    return grid.cfl_factor * rho * ratio_min / (1e-3 * (1.0 / dx**2 + 1.0 / dz**2))


def _plan(d: DesignPoint, z: RandomInputs, p: ModelParams, grid: SimGridConfig,
          ceiling: float = 1.5):
    """Check one run's inputs; its (rho, dt, n_steps, clamp_lo, top): dt is stable up to
    top = ceiling * Tliq (ceiling at most TOP_CEILING), which the peak must not pass."""
    if not (np.isfinite(d.v) and d.v > 0):
        raise ValueError("scanning speed must be positive")
    if not (np.isfinite(d.P) and d.P >= 0):
        raise ValueError("beam power must be non-negative")
    for name in ("T0", "Y", "E", "rho"):
        val = getattr(z, name)
        if not np.isfinite(val) or val <= 0:
            raise ValueError(f"random input {name} must be positive and finite")
    rho = bulk_density(z.rho)
    # the probe band, from the coldest legitimate state (preheat may sit below
    # chamber) to TOP_CEILING Tliq, where the properties must stay positive
    clamp_lo = min(z.T0, p.Tc) - 50.0
    for coeffs in ((p.a0, p.a1, p.a2), (p.b0, p.b1, p.b2)):
        if _ratio_extrema(coeffs, _UNIT, clamp_lo, TOP_CEILING * p.Tliq)[0] <= 0:
            raise ValueError("material properties non-positive over the run range")
    # dt keeps the explicit step's maximum principle for every cell and neighbour
    # up to top: forward Euler gives cell i the self-weight 1 - dt sum_j c_ij /
    # (rho cp_i), and with c_ij = (kappa_i + kappa_j) / (2 h^2) the sum is at most
    # (kappa_i + kappa_max)(1/dx^2 + 1/dz^2).  Radiation does not tighten it: for
    # the nominal model, 4 eps sigma T^3 / dz on the top row, linearised at top, is
    # about 3e-4 of that conduction sum at 1.5 Tliq (9e-4 at 3 Tliq), and the
    # beam term does not depend on T
    # the TOP_CEILING plan's step is the smallest, so a run under the limit there
    # stays under it when _solve_field plans it again with that top
    most = p.l / d.v / _stable_step(rho, clamp_lo, TOP_CEILING * p.Tliq, p, grid)
    if not most <= MAX_STEPS:  # inf once l / v overflows
        raise ValueError(f"scanning speed {d.v!r} mm/s is too small: the scan "
                         f"takes {most:.3g} steps, over MAX_STEPS = {MAX_STEPS}")
    top = ceiling * p.Tliq
    n_steps = max(1, int(np.ceil(p.l / d.v / _stable_step(rho, clamp_lo, top, p, grid))))
    return rho, p.l / d.v / n_steps, n_steps, clamp_lo, top


def _cache_dir() -> Path:
    """Where compiled steps are kept: $XDG_CACHE_HOME/pbfopt, else ~/.cache/pbfopt."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "pbfopt"


def _build(source: Path, cache: Path) -> Path:
    """The shared library of the C source, compiled by _CC with _CFLAGS and linked
    with _LIBS into the cache directory cache unless a build of the same source,
    compiler version and flags is there: compiled to a temporary file there,
    then moved in place."""
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which(_CC)
    if cc is None:
        raise OSError(f"the thermal step is C compiled on first use: no C compiler "
                      f"{_CC!r} on PATH")
    version = subprocess.run([cc, "--version"], capture_output=True, text=True,
                             check=True).stdout
    key = hashlib.sha256(b"\0".join([source.read_bytes(), version.encode(),
                                      " ".join(_CFLAGS + _LIBS).encode()])).hexdigest()
    lib = cache / f"{source.stem}-{key[:16]}.so"
    if not lib.exists():
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            done = subprocess.run([cc, *_CFLAGS, "-o", tmp, str(source), *_LIBS],
                                  capture_output=True, text=True)
            if done.returncode:
                raise OSError(f"{_CC} {' '.join(_CFLAGS)} failed on {source}:\n"
                              f"{done.stderr}")
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


@cache
def _step_kernel():
    """The compiled step, pbfopt_step_block of _step.c, built and loaded once per
    process; every array argument is checked for its dtype and C order."""
    import ctypes

    def array(dtype):
        return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
    lib = ctypes.CDLL(str(_build(Path(__file__).with_name("_step.c"), _cache_dir())))
    fn = lib.pbfopt_step_block
    fn.argtypes = ([ctypes.c_int64] * 4 + [array(np.int64)] + [array(FIELD_DTYPE)] * 4
                   + [array(np.float64)] * 4 + [array(np.int64)] + [array(np.float64)] * 2
                   + [array(np.int64)] + [ctypes.c_float] * 7 + [ctypes.c_double] * 5)
    fn.restype = ctypes.c_int64
    return fn


def _solve_field(runs, p: ModelParams, grid: SimGridConfig):
    """The block job of simulate_batch: _step_block, then again with the TOP_CEILING
    plan for the runs that failed under a lower top; per run a snapshot or error."""
    out = _step_block(runs, p, grid)
    redo = [k for k, r in enumerate(out) if isinstance(r, SimulationError)
            and runs[k][2][4] < TOP_CEILING * p.Tliq]
    again = [(*runs[k][:2], _plan(*runs[k][:2], p, grid, TOP_CEILING)) for k in redo]
    for k, r in zip(redo, _step_block(again, p, grid) if redo else ()):
        out[k] = r
    return out


def _step_block(runs, p: ModelParams, grid: SimGridConfig):
    """The block kernel: runs (design, random inputs, _plan) to snapshots or errors."""
    nx, nz = grid.cells_x, grid.cells_z
    dx, dz = p.l / nx, p.h / nz
    rho, dt, n_steps, lo, top, v, power, t0 = np.array(  # each row C-contiguous
        [(*plan, d.v, d.P, z.T0) for d, z, plan in runs], float).T.copy()
    n_steps = n_steps.astype(np.int64)
    amp = 2.0 * p.A * power / (np.pi * p.r**2 * p.z0)
    cells = nx * nz  # one run's (z, x) field after another, x fastest
    # the step's constants folded in: rho cp(T) / dt = A0 + T (A1 + T A2) per run,
    # and kappa' = kappa(T) 1e-3 0.5 / dx^2 = B0 + T (B1 + T B2), both by Horner
    heat = np.array([a * rho / dt for a in (p.a0, p.a1, p.a2)], FIELD_DTYPE)
    cond = tuple(b * 1e-3 * 0.5 / dx**2 for b in (p.b0, p.b1, p.b2))
    T = np.repeat(t0.astype(FIELD_DTYPE), cells)
    peak = T.copy()
    scratch = np.empty(3 * cells + nx + 1, FIELD_DTYPE)  # one run's kappa and faces
    gx = np.empty(nx + 1)  # the C step's beam row, float64
    T3, peak3 = T.reshape(-1, nz, nx), peak.reshape(-1, nz, nx)  # views
    gz = _depth_deposit(nz, dz, p.h, p.z0)  # per cell row, index 0 = bottom
    j0 = int(np.flatnonzero(gz)[0])  # the beam reaches rows j0 to the top
    gz_amp = gz[j0:] * amp[:, None]  # (runs, rows), float64
    tc_k4, rad = (p.Tc + KELVIN_OFFSET) ** 4, STEFAN_BOLTZMANN_MM * p.eps_s / dz
    # the probe keeps one cell and one set of bilinear weights throughout; a step
    # blends only the cell's four corners (x, z offsets 00, 01, 10, 11) of each run
    i, j, wx, wz = _bilinear_cell((nx, nz), dx / 2, dx, dz / 2, dz, p.l / 2.0, p.h)
    corners = (j + np.array([0, 1, 0, 1])) * nx + i + np.array([0, 0, 1, 1])
    hi = TOP_CEILING * p.Tliq
    trace = np.empty((n_steps.max() + 1, len(runs)))  # each run's probe at its steps' ends
    trace[0] = _bilinear(T3.T, i, j, wx, wz)
    fail = np.zeros(len(runs), np.int64)  # each run's first step out of the band, or 0
    _step_kernel()(nx, nz, j0, len(runs), n_steps, T, peak, scratch, heat, v, dt, gz_amp,
                   gx, corners, lo, trace, fail, *cond, dx**2 / dz**2, KELVIN_OFFSET, tc_k4,
                   rad, dx, p.r, wx, wz, hi)
    # the peak field resampled to the 32x14 stress grid by clamped bilinear
    # interpolation, so it inherits the initial-condition floor T0
    xq, zq = np.meshgrid(np.linspace(0.0, p.l, STRESS_GRID_SHAPE[0]),
                         np.linspace(0.0, p.h, STRESS_GRID_SHAPE[1]), indexing="ij")
    stress_cell = _bilinear_cell((nx, nz), dx / 2, dx, dz / 2, dz, xq, zq)
    out = []
    for s in range(len(runs)):
        step, end = int(fail[s]), int(n_steps[s])
        if step:
            out.append(SimulationError(f"probe temperature {trace[step, s]:.1f} degC "
                                       f"outside [{lo[s]:.1f}, {hi:.1f}] at step {step}", step))
        elif not np.isfinite(T3[s]).all():
            out.append(SimulationError(f"field became non-finite by step {end}", end))
        elif not (hottest := peak3[s].max()) <= top[s]:
            out.append(SimulationError(f"peak field {hottest:.1f} degC over the plan's "
                                       f"top {top[s]:.1f} degC by step {end}", end))
        else:  # the trace interpolated between step ends; interp clamps an overshoot
            times = snapshot_times(v[s], p.l)
            temps = np.interp(times, np.arange(end + 1) * dt[s], trace[: end + 1, s])
            out.append(TemperatureSnapshot(times, temps, _bilinear(peak3[s].T, *stress_cell)))
    return out


def simulate_batch(designs, inputs, p: ModelParams | None = None,
                   grid: SimGridConfig | None = None,
                   workers: int = 1) -> list[TemperatureSnapshot]:
    """One scan per (design, random inputs) pair, snapshots in that order.

    Every run is checked and planned before any steps.  Sorted by step count,
    most first, the runs go in as many blocks as BLOCK_RUNS-run ones would
    take, of sizes that differ by at most one, and every block goes to
    _solve_field; with workers > 1 over a pool of that many threads, which
    starts the costliest blocks first and changes no result.
    The lowest-indexed failed run raises its SimulationError with .run set."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    p = ModelParams() if p is None else p
    grid = SimGridConfig() if grid is None else grid
    runs = [(d, z, _plan(d, z, p, grid)) for d, z in zip(designs, inputs, strict=True)]
    _step_kernel()  # built once, before any pool thread, and no compiler raises here
    order = sorted(range(len(runs)), key=lambda k: -runs[k][2][2])
    count = -(-len(order) // BLOCK_RUNS)
    blocks = [order[len(order) * i // count : len(order) * (i + 1) // count]
              for i in range(count)]
    solve = partial(_solve_field, p=p, grid=grid)
    jobs = [[runs[k] for k in block] for block in blocks]
    if workers == 1:  # in the calling thread
        solved = map(solve, jobs)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            solved = list(pool.map(solve, jobs))
    snaps = [None] * len(runs)
    for block, results in zip(blocks, solved):
        for k, r in zip(block, results):
            snaps[k] = r
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
