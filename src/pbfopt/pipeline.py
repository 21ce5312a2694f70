"""End-to-end orchestration: sampling, training, optimization, validation.

The chain is simulate -> train -> optimize -> validate, with every stage
persisting its artifacts under one output directory:

    doe.csv          M x 6 raw training inputs
    T.csv            M x 31 probe temperature histories
    S.csv            M x 448 serialized residual-stress fields
    err_curves.json  truncation-error curves and the selected feature counts
    bundle.json      the trained surrogate bundle
    optimize.json    per-start solver results, the best design and the
                     digest of the bundle they were solved on
    optimize_history.csv   start index + per-evaluation history rows
    validation.json  simulator-vs-surrogate superquantile comparison

CSV artifacts are headerless, row-major, full double precision.  All
stages are deterministic under the configured seeds, so reruns reproduce
every artifact byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .optimize import (
    OptimizeConfig,
    OptimizationResult,
    _frozen_row_max,
    _reported_row,
    _start_point,
    draw_material_samples,
    solve,
    stress_max_samples,
)
from .reduction import (
    check_bounds,
    decompose,
    discover,
    error_curve,
    estimate_gradients,
    normalize_inputs,
    select_feature_count,
)
from .risk import buffered_superquantile
from .stress import field_to_row, residual_stress
from .surrogate import (
    FeatureSurrogate,
    OutputModel,
    SurrogateBundle,
    bundle_to_dict,
    fit_best_degree,
)
from .thermal import (
    DESIGN_BOUNDS,
    RANDOM_INPUT_BOUNDS,
    DesignPoint,
    ModelParams,
    RandomInputs,
    SimGridConfig,
    SimulationError,
    _canonical,
    _canonicalize,
    simulate,  # not called here, but perfbench/tracing.py wraps it by this name
    simulate_batch,
)

__all__ = [
    "INPUT_NAMES",
    "DEFAULT_STARTS",
    "PipelineConfig",
    "ValidationReport",
    "config_to_dict",
    "config_from_dict",
    "config_hash",
    "bundle_digest",
    "load_config",
    "write_artifact",
    "default_input_bounds",
    "generate_doe",
    "run_simulations",
    "train_from_matrices",
    "run_training",
    "run_optimization",
    "simulate_stress_maxima",
    "validate",
]

INPUT_NAMES = ("v", "P", "T0", "Y", "E", "rho")

# the four initial designs exercised by the optimization stage
DEFAULT_STARTS = ((500.0, 160.0), (400.0, 100.0), (400.0, 125.0), (600.0, 100.0))

_SCHEMA_VERSION = 1
_MAXIMIN_RESTARTS = 50


def default_input_bounds() -> np.ndarray:
    rows = [DESIGN_BOUNDS["v"], DESIGN_BOUNDS["P"]]
    rows += [RANDOM_INPUT_BOUNDS[k] for k in INPUT_NAMES[2:]]
    return np.array(rows, dtype=float)


@dataclass(frozen=True)
class PipelineConfig:
    """Full study configuration; the defaults reproduce the nominal setup.

    c_r scales the elastic stress estimate for the training and
    validation simulations.
    """

    M: int = 120
    n_val: int = 50
    input_bounds: np.ndarray = field(default_factory=default_input_bounds)
    model: ModelParams = field(default_factory=ModelParams)
    grid: SimGridConfig = field(default_factory=SimGridConfig)
    optimize: OptimizeConfig = field(default_factory=OptimizeConfig)
    err_threshold: float = 0.05
    min_gain: float = 0.02
    k_max: int = 10
    c_r: float = 0.5
    seed_doe: int = 1
    seed_mc: int = 2
    seed_validation: int = 3
    out_dir: str = "out"
    workers: int = 1
    synthetic: bool = False

    def __post_init__(self):
        _canonicalize(self, "")  # each nested section canonicalized its own
        object.__setattr__(self, "input_bounds", check_bounds(self.input_bounds))
        if self.input_bounds.shape != (len(INPUT_NAMES), 2):
            raise ValueError(f"input_bounds must be {(len(INPUT_NAMES), 2)}")
        if self.M < 43:
            raise ValueError(
                "M must be at least 43: the symmetric DOE mirrors its points "
                "in pairs, which share the 22 even terms of the quadratic "
                "gradient fit, so fewer than 22 distinct pairs (the centre "
                "point counts as one) leave that fit rank-deficient"
            )
        if self.n_val < 10:
            raise ValueError("n_val must be at least 10")
        if not 0.0 < self.err_threshold < 1.0:
            raise ValueError("err_threshold must lie in (0, 1)")
        if not 0.0 < self.min_gain < 1.0:
            raise ValueError("min_gain must lie in (0, 1)")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if not 0.0 < self.c_r <= 1.0:
            raise ValueError("c_r must lie in (0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for name in ("seed_doe", "seed_mc", "seed_validation"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.optimize.scan_length != self.model.l:
            raise ValueError(
                f"optimize.scan_length ({self.optimize.scan_length}) must equal "
                f"model.l ({self.model.l}), the track length the simulations scan"
            )


@dataclass(frozen=True)
class ValidationReport:
    """Simulator-vs-surrogate comparison of the buffered superquantile."""

    q_sim: float
    q_surr: float
    rel_diff: float  # (q_sim - q_surr) / q_sim, sign preserved


# ---------------------------------------------------------------------------
# configuration serialization


# dataclass-valued fields, one JSON section each
_NESTED = {"model": ModelParams, "grid": SimGridConfig, "optimize": OptimizeConfig}
# JSON sections that regroup flat PipelineConfig fields: section -> {key: field}
_GROUPS = {
    "reduction": {
        "err_threshold": "err_threshold",
        "min_gain": "min_gain",
        "k_max": "k_max",
    },
    "stress": {"c_r": "c_r"},
    "seeds": {"doe": "seed_doe", "mc": "seed_mc", "validation": "seed_validation"},
}


def _fields_to_dict(obj) -> dict:
    """JSON values of a config dataclass's fields that have a plain default,
    canonical since its __post_init__ (_canonicalize), a pair as a list;
    dataclass-valued fields use a default factory instead."""
    doc = {f.name: getattr(obj, f.name) for f in fields(obj) if f.default is not MISSING}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}


def config_to_dict(cfg: PipelineConfig) -> dict:
    doc = _fields_to_dict(cfg)
    for section, keys in _GROUPS.items():
        doc[section] = {key: doc.pop(name) for key, name in keys.items()}
    for section in _NESTED:
        doc[section] = _fields_to_dict(getattr(cfg, section))
    doc["bounds"] = dict(zip(INPUT_NAMES, cfg.input_bounds.tolist()))
    doc["schema_version"] = _SCHEMA_VERSION
    return doc


def _merge(given, base: dict, where: str, prefix: str = "") -> dict:
    """base with the document given laid over it, recursively, each given
    leaf checked by _canonical; unknown keys raise a ValueError."""
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(given) - set(base)
    if unknown:
        raise ValueError(f"unknown {where} key(s): {sorted(unknown)}")
    out = dict(base)
    for k, v in given.items():
        if isinstance(base[k], dict):
            out[k] = _merge(v, base[k], k, f"{k}.")
        else:
            out[k] = _canonical(prefix + k, v, base[k])
    return out


def config_from_dict(d: dict) -> PipelineConfig:
    """Build a configuration from a (possibly partial) plain dictionary.

    Absent keys keep their defaults, so an empty document reproduces the
    nominal published setup.  Every given value must have its field's
    type (see _canonical); anything else raises a ValueError naming the
    key.
    """
    doc = _merge(d, config_to_dict(PipelineConfig()), "config")
    if doc.pop("schema_version") != _SCHEMA_VERSION:
        raise ValueError("unsupported config schema version")
    for section, keys in _GROUPS.items():
        group = doc.pop(section)
        doc.update({name: group[key] for key, name in keys.items()})
    for section, cls in _NESTED.items():
        doc[section] = cls(**doc[section])
    bounds = doc.pop("bounds")
    return PipelineConfig(
        input_bounds=np.array([bounds[name] for name in INPUT_NAMES]), **doc
    )


def _sha256(doc: dict) -> str:
    """sha256 of doc's canonical JSON form; keys sorted, no whitespace."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def config_hash(cfg: PipelineConfig) -> str:
    """sha256 of the config's canonical JSON form (_sha256).

    The output directory and worker count are excluded: neither changes
    any computed value, so runs differing only in where or how parallel
    they execute share a hash.
    """
    doc = config_to_dict(cfg)
    return _sha256({k: v for k, v in doc.items() if k not in ("out_dir", "workers")})


def bundle_digest(b: SurrogateBundle) -> str:
    """sha256 of the bundle's canonical JSON form (_sha256)."""
    return _sha256(bundle_to_dict(b))


def load_config(path) -> PipelineConfig:
    with open(path, encoding="utf-8") as f:
        return config_from_dict(json.load(f))


def write_artifact(out_dir, name: str, data) -> Path:
    """Write one artifact into out_dir, made if absent, and return its path:
    a dict as JSON (indent 2, sorted keys, trailing newline), anything else
    as a headerless comma-separated matrix at full double precision."""
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, dict):
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    else:
        np.savetxt(path, data, fmt="%.17g", delimiter=",")
    return path


def _report_header(cfg: PipelineConfig) -> dict:
    """The fields that optimize.json and validation.json share."""
    return {
        "schema_version": _SCHEMA_VERSION,
        "config_hash": config_hash(cfg),
        "tau": cfg.optimize.tau,
        "alpha_t": cfg.optimize.alpha_t,
        "n_mc": cfg.optimize.n_mc,
    }


# ---------------------------------------------------------------------------
# design of experiments


def _symmetric_permutation(m: int, rng) -> np.ndarray:
    """Random stratum permutation with pi(m-1-i) = m-1-pi(i)."""
    half = m // 2
    pair = rng.permutation(half)
    flip = rng.random(half) < 0.5
    low = np.where(flip, m - 1 - pair, pair)
    perm = np.empty(m, dtype=np.intp)
    perm[:half] = low
    perm[m - 1 - np.arange(half)] = m - 1 - low
    if m % 2:
        perm[half] = half  # middle row takes the middle stratum
    return perm


def generate_doe(M: int, bounds, seed: int) -> np.ndarray:
    """Symmetric Latin hypercube over the box, maximin over restarts.

    Each coordinate's M values sit at distinct stratum midpoints and
    points i and M-1-i are reflections through the box midpoint.  Out of
    a fixed number of random designs the one maximizing the minimum
    pairwise distance (in unit-box coordinates) is kept.
    """
    b = check_bounds(bounds)
    if M < 1:
        raise ValueError("M must be at least 1")
    rng = np.random.default_rng(seed)
    n = b.shape[0]
    upper = np.triu_indices(M, k=1)  # each pair of distinct points once
    best, best_score = None, -np.inf
    for _ in range(_MAXIMIN_RESTARTS):
        perms = np.column_stack([_symmetric_permutation(M, rng) for _ in range(n)])
        unit = (perms + 0.5) / M
        diff = unit[:, None] - unit[None]
        score = np.sqrt((diff * diff).sum(-1)[upper].min()) if M > 1 else np.inf
        if score > best_score:
            best, best_score = unit, score
    return b[:, 0] + best * (b[:, 1] - b[:, 0])


# ---------------------------------------------------------------------------
# simulation stage

# fixed ridge directions and profiles for the synthetic training mode: a
# known rank-2 response built from two linear ridges along orthogonal
# input directions (any feature mixture of linear ridges stays linear,
# so the downstream fits recover it exactly)
_SYN_DIR_1 = np.full(6, 1.0 / np.sqrt(6.0))
_SYN_DIR_2 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]) / np.sqrt(6.0)


def _orthonormal_pair(first: np.ndarray, second: np.ndarray):
    p1 = first / np.linalg.norm(first)
    p2 = second - (second @ p1) * p1
    return p1, p2 / np.linalg.norm(p2)


_SYN_T_PROFILES = _orthonormal_pair(
    np.linspace(1.0, 2.0, 31), np.cos(np.linspace(0.0, np.pi, 31))
)
_SYN_S_PROFILES = _orthonormal_pair(
    np.linspace(2.0, 1.0, 448), np.sin(np.linspace(0.0, 3.0 * np.pi, 448))
)


def _synthetic_rows(cfg: PipelineConfig, xi: np.ndarray):
    u = normalize_inputs(xi, cfg.input_bounds)
    t1 = float(u @ _SYN_DIR_1)
    t2 = float(u @ _SYN_DIR_2)
    p1, p2 = _SYN_T_PROFILES
    q1, q2 = _SYN_S_PROFILES
    t_row = (10.0 + 8.0 * t1) * p1 + (1.0 + 6.0 * t2) * p2
    s_row = (20.0 + 10.0 * t1) * q1 + (2.0 - 7.0 * t2) * q2
    return t_row, s_row


def _run_batch(cfg: PipelineConfig, rows: np.ndarray, what: str):
    """The batch as two float64 matrices (T, S), one row per run in run-index
    order: probe histories and serialized stress rows.  The runs step in blocks
    (thermal.simulate_batch), over a thread pool if workers > 1."""
    if cfg.synthetic:
        T, S = zip(*(_synthetic_rows(cfg, xi) for xi in rows))
        return np.array(T), np.array(S)
    designs = [DesignPoint(v=float(xi[0]), P=float(xi[1])) for xi in rows]
    inputs = [RandomInputs(*map(float, xi[2:])) for xi in rows]
    try:
        snaps = simulate_batch(designs, inputs, cfg.model, cfg.grid, cfg.workers)
    except SimulationError as e:
        raise SimulationError(
            f"{what} run {e.run} failed for inputs {rows[e.run].tolist()}: {e}",
            e.step, e.run,
        ) from e
    S = [field_to_row(residual_stress(s, z, cfg.c_r)) for s, z in zip(snaps, inputs)]
    return np.array([s.temps for s in snaps]), np.array(S)


def run_simulations(cfg: PipelineConfig):
    """DOE + all training simulations; persists doe.csv, T.csv, S.csv."""
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)  # fail before simulating
    doe = generate_doe(cfg.M, cfg.input_bounds, cfg.seed_doe)
    T, S = _run_batch(cfg, doe, "training")
    for name, data in (("doe.csv", doe), ("T.csv", T), ("S.csv", S)):
        write_artifact(cfg.out_dir, name, data)
    return doe, T, S


# ---------------------------------------------------------------------------
# training stage


def _fit_output(cfg: PipelineConfig, u: np.ndarray, data: np.ndarray):
    """The error curve and the fitted output model of one data matrix, from one SVD."""
    full = decompose(data)
    errs = error_curve(full, min(cfg.k_max, min(data.shape)))
    k = select_feature_count(errs, cfg.err_threshold, cfg.min_gain)
    features = []
    for f in full.features[:, :k].T:
        sub = discover(estimate_gradients(u, f))
        poly = fit_best_degree(u @ sub.w1, f)
        features.append(FeatureSurrogate(subspace=sub, poly=poly))
    return errs, OutputModel(full.right_vectors[:, :k], tuple(features))


def train_from_matrices(
    cfg: PipelineConfig, doe: np.ndarray, T: np.ndarray, S: np.ndarray
) -> SurrogateBundle:
    """Reduce both data matrices and fit per-feature surrogates.

    Persists bundle.json and err_curves.json under the output directory.
    """
    for name, data, width in (("doe", doe, 6), ("T", T, 31), ("S", S, 448)):
        if data.shape != (cfg.M, width):
            raise ValueError(
                f"{name} has {data.shape[0]} rows and {data.shape[1]} columns, not M = "
                f"{cfg.M} and {width}; rerun `pbfopt simulate` with this config"
            )
    u = normalize_inputs(doe, cfg.input_bounds)
    provenance = {"config_hash": config_hash(cfg), "M": cfg.M}
    curves = {"schema_version": _SCHEMA_VERSION}
    outputs = {}
    for name, k_key, data in (("temperature", "K_T", T), ("stress", "K_S", S)):
        errs, output = _fit_output(cfg, u, data)
        k = len(output.features)
        provenance[k_key] = k
        provenance[f"{name}_r2"] = [m.poly.r2 for m in output.features]
        curves[name] = {"errors": errs.tolist(), "selected": k}
        outputs[name] = output
    bundle = SurrogateBundle(cfg.input_bounds, provenance=provenance, **outputs)
    write_artifact(cfg.out_dir, "bundle.json", bundle_to_dict(bundle))
    write_artifact(cfg.out_dir, "err_curves.json", curves)
    return bundle


def run_training(cfg: PipelineConfig) -> SurrogateBundle:
    """The full training phase: simulate everything, then fit the bundle."""
    doe, T, S = run_simulations(cfg)
    return train_from_matrices(cfg, doe, T, S)


# ---------------------------------------------------------------------------
# optimization stage


def _result_record(d0, res: OptimizationResult) -> dict:
    return {
        "d0": [float(d0[0]), float(d0[1])],
        "d_star": [res.d_star.v, res.d_star.P],
        "zeta_star": res.zeta_star,
        "energy": res.energy,
        "bpof_lhs": res.bpof_lhs,
        "t_max_hat": res.t_max_hat,
        "iterations": res.iterations,
        "feasible": res.feasible,
    }


def _check_bundle_bounds(b: SurrogateBundle, cfg: PipelineConfig) -> None:
    """A bundle trained on another input box cannot serve this configuration."""
    if not np.array_equal(b.input_bounds, cfg.input_bounds):
        raise ValueError("bundle bounds do not match the configuration")


def run_optimization(
    cfg: PipelineConfig, bundle: SurrogateBundle, starts=DEFAULT_STARTS
):
    """Solve from every start; persists optimize.json + the history CSV.

    Every start is checked before any work, and all of them solve on one
    frozen sample set, built once.  The best record is the start whose point
    _reported_row picks by the rule that picks each start's: the lowest-energy
    feasible one or, if no start is feasible, the least infeasible.
    """
    if len(starts) < 1:
        raise ValueError("need at least one initial design")
    _check_bundle_bounds(bundle, cfg)
    designs = []
    for s in starts:
        if np.shape(s) != (2,):
            raise ValueError(f"initial design {s!r} is not a pair (v, P)")
        designs.append(DesignPoint(v=s[0], P=s[1]))
        _start_point(bundle, designs[-1])
    row_max = _frozen_row_max(bundle, cfg.optimize)
    results = [solve(bundle, cfg.optimize, d0, row_max) for d0 in designs]
    reported = [(r.d_star.v, r.d_star.P, r.zeta_star, r.energy, r.bpof_lhs,
                 r.t_max_hat) for r in results]
    best_i = _reported_row(cfg.optimize, reported)
    doc = {
        **_report_header(cfg),
        "bundle_digest": bundle_digest(bundle),
        "constraint_kind": cfg.optimize.constraint_kind,
        "seed": cfg.optimize.seed,
        "starts": [_result_record(d0, r) for d0, r in zip(starts, results)],
        "best": _result_record(starts[best_i], results[best_i]),
    }
    write_artifact(cfg.out_dir, "optimize.json", doc)
    history = np.vstack(
        [
            np.column_stack([np.full(r.history.shape[0], i), r.history])
            for i, r in enumerate(results)
        ]
    )
    write_artifact(cfg.out_dir, "optimize_history.csv", history)
    return results


# ---------------------------------------------------------------------------
# validation stage


def simulate_stress_maxima(cfg: PipelineConfig, d: DesignPoint, samples) -> np.ndarray:
    """Each run's maximum residual stress (S's row maxima), one run per material
    sample of a (k, 4) array of (T0, Y, E, rho) rows, k >= 1 (one row may be 1-D)."""
    z = np.atleast_2d(np.asarray(samples, dtype=float))
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] != 4:
        raise ValueError("validation samples must be a (k, 4) array of (T0, Y, E, rho) "
                         f"rows with k >= 1, got shape {np.shape(samples)}")
    rows = np.column_stack(
        [np.full(z.shape[0], d.v), np.full(z.shape[0], d.P), z]
    )
    return _run_batch(cfg, rows, "validation")[1].max(axis=1)


def validate(
    d_star: DesignPoint,
    zeta_star: float,
    b: SurrogateBundle,
    cfg: PipelineConfig,
    self_check: bool = False,
) -> ValidationReport:
    """Compare simulator-based and surrogate-based superquantiles at d_star.

    Fresh material draws feed n_val simulations on one side and n_mc
    surrogate evaluations on the other; both superquantiles anchor at
    zeta_star.  With self_check the surrogate side is replaced by a
    second independent batch of simulations, so the two estimates must
    agree up to Monte Carlo error.
    """
    _check_bundle_bounds(b, cfg)
    # the surrogate side rejects a design outside the training box, and a
    # non-finite zeta gives no superquantile; say so before the simulations run
    normalize_inputs(np.array([d_star.v, d_star.P]), cfg.input_bounds[:2])
    if not np.isfinite(zeta_star):
        raise ValueError(f"zeta must be finite, got {zeta_star}")
    alpha = cfg.optimize.alpha_t
    z_val = draw_material_samples(
        cfg.input_bounds[2:], cfg.n_val, np.random.default_rng(cfg.seed_validation)
    )
    sim_sigma = simulate_stress_maxima(cfg, d_star, z_val)
    rng_mc = np.random.default_rng(cfg.seed_mc)
    if self_check:
        z_surr = draw_material_samples(cfg.input_bounds[2:], cfg.n_val, rng_mc)
        surr_sigma = simulate_stress_maxima(cfg, d_star, z_surr)
    else:
        z_surr = draw_material_samples(
            cfg.input_bounds[2:], cfg.optimize.n_mc, rng_mc
        )
        surr_sigma = stress_max_samples(b, d_star, z_surr)
    q_sim = buffered_superquantile(sim_sigma, zeta_star, alpha)
    q_surr = buffered_superquantile(surr_sigma, zeta_star, alpha)
    rel_diff = (q_sim - q_surr) / q_sim
    report = ValidationReport(q_sim=q_sim, q_surr=q_surr, rel_diff=rel_diff)
    doc = {
        **_report_header(cfg),
        "d_star": [d_star.v, d_star.P],
        "zeta_star": float(zeta_star),
        "q_sim": q_sim,
        "q_surr": q_surr,
        "rel_diff": rel_diff,
        "n_val": cfg.n_val,
        "self_check": self_check,
    }
    write_artifact(cfg.out_dir, "validation.json", doc)
    return report
