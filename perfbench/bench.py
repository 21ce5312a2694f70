"""Workloads, fixtures and output checks of the pbfopt benchmark.

Each workload repeats one seeded operation ("pass") through the public
pipeline API:

- ``train``: ``run_simulations`` plus ``train_from_matrices`` on a
  symmetric DOE of ``TRAIN_M`` runs drawn from the workload seed.
- ``design``: ``run_optimization`` from the four default starts at the
  nominal ``n_mc``, with the Monte Carlo seed taken from the workload seed.
- ``validate``: ``validate`` at the nominal optimum with the validation
  draws taken from the workload seed.

``design`` and ``validate`` need the nominal surrogate bundle, and
``validate`` also the nominal optimum.  Training takes about 40 s and the
nominal solve as long again, so both are built once per source version,
by whichever workload runs first, and kept under ``.bench_build`` in the
checkout (see ``fixture_dir``).  The program is deterministic, so a kept
fixture equals a fresh one.

Importing this module imports pbfopt; the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from pbfopt import pipeline, thermal
from pbfopt.optimize import OptimizeConfig
from pbfopt.surrogate import load_bundle

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
BASELINE = ROOT / "tests" / "data" / "regression_baseline.json"

WORKLOADS = ("train", "design", "validate")

# the smallest symmetric DOE the gradient fit accepts; its speeds sit at
# the same stratum midpoints for every seed, so the work per pass barely
# depends on the seed
TRAIN_M = 44
ENERGY_TOL = 0.10
REL_DIFF_TOL = 0.05
MIN_FEASIBLE_STARTS = 3
FIXTURE_WORKERS = 2

# kernel probe designs (v mm/s, P W) at the nominal material point
PROBE_DESIGNS = {
    "v100_p200": (100.0, 200.0),
    "v232_p200": (232.5, 200.0),
    "v550_p110": (550.0, 110.0),
    "v1000_p20": (1000.0, 20.0),
}


def nominal_config() -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig()


def smoke_config() -> pipeline.PipelineConfig:
    """Cheap stand-in for tests: synthetic responses and a small n_mc.

    The synthetic probe temperatures never reach the melt window, so the
    window is opened up to keep every start feasible.
    """
    return pipeline.PipelineConfig(
        n_val=10,
        synthetic=True,
        optimize=OptimizeConfig(n_mc=500, temp_window=(-1e6, 1e6)),
    )


# ---------------------------------------------------------------------------
# fixture: the trained bundle and the nominal optimum


def source_digest() -> str:
    """sha256 over the package sources and the numeric library versions."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pbfopt").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    h.update(f"{sys.version}|{np.__version__}|{scipy.__version__}".encode())
    return h.hexdigest()


def fixture_dir() -> Path:
    return BUILD / f"fixture-{source_digest()[:16]}"


def build_fixture(cfg: pipeline.PipelineConfig, out: Path) -> None:
    """Train the bundle and solve the nominal problem into ``out``.

    Writes bundle.json and optimize.json; the best record of the latter
    holds d* and zeta*.  Work happens in a scratch directory and each
    file is moved into place whole, so an interrupted build leaves no
    partial fixture behind.
    """
    out.mkdir(parents=True, exist_ok=True)
    tmp = out.parent / f"{out.name}.tmp-{os.getpid()}"
    try:
        work = dataclasses.replace(cfg, out_dir=str(tmp), workers=FIXTURE_WORKERS)
        if not (out / "bundle.json").is_file():
            pipeline.run_training(work)
            os.replace(tmp / "bundle.json", out / "bundle.json")
        if not (out / "optimize.json").is_file():
            pipeline.run_optimization(work, load_bundle(out / "bundle.json"))
            os.replace(tmp / "optimize.json", out / "optimize.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def fixture_ready(out: Path) -> bool:
    return (out / "bundle.json").is_file() and (out / "optimize.json").is_file()


def reference_energy(cfg: pipeline.PipelineConfig, fixture: Path) -> float:
    """E_ref for the design check.

    The nominal configuration reads the recorded regression baseline; any
    other configuration (the smoke one) compares against its own fixture
    optimum.
    """
    if pipeline.config_hash(cfg) == pipeline.config_hash(nominal_config()):
        with open(BASELINE, encoding="utf-8") as f:
            return float(json.load(f)["optimal_energy"])
    with open(fixture / "optimize.json", encoding="utf-8") as f:
        return float(json.load(f)["best"]["energy"])


# ---------------------------------------------------------------------------
# workload inputs and passes


@dataclasses.dataclass
class Inputs:
    """Everything a workload's passes need; building it is the set-up."""

    workload: str
    cfg: pipeline.PipelineConfig
    bundle: object = None
    d_star: thermal.DesignPoint | None = None
    zeta_star: float | None = None
    e_ref: float | None = None


@dataclasses.dataclass
class Outcome:
    """One pass: operations attempted and failed, plus check findings."""

    ops: int
    failed: int
    sims: int
    problems: list
    energy_rel_dev: float | None = None


def load_inputs(
    workload: str,
    base: pipeline.PipelineConfig,
    fixture: Path,
    seed: int,
    out_dir: Path,
) -> Inputs:
    """Seeded configuration plus the fixture pieces the workload uses."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "train":
        cfg = dataclasses.replace(
            base, M=TRAIN_M, seed_doe=seed, out_dir=str(out_dir)
        )
        return Inputs(workload, cfg)
    bundle = load_bundle(fixture / "bundle.json")
    if workload == "design":
        cfg = dataclasses.replace(
            base,
            optimize=dataclasses.replace(base.optimize, seed=seed),
            out_dir=str(out_dir),
        )
        return Inputs(
            workload, cfg, bundle=bundle, e_ref=reference_energy(base, fixture)
        )
    with open(fixture / "optimize.json", encoding="utf-8") as f:
        best = json.load(f)["best"]
    d_star = thermal.DesignPoint(v=best["d_star"][0], P=best["d_star"][1])
    cfg = dataclasses.replace(base, seed_validation=seed, out_dir=str(out_dir))
    return Inputs(
        workload,
        cfg,
        bundle=bundle,
        d_star=d_star,
        zeta_star=float(best["zeta_star"]),
    )


def check_train(M: int, T, S, bundle) -> list:
    problems = []
    for name, mat, width in (("T", T, 31), ("S", S, 448)):
        if mat.shape != (M, width):
            problems.append(f"{name} has shape {mat.shape}, expected {(M, width)}")
        elif not np.isfinite(mat).all():
            problems.append(f"{name} has non-finite entries")
    for key in ("K_T", "K_S"):
        if not bundle.provenance.get(key, 0) >= 1:
            problems.append(f"{key} = {bundle.provenance.get(key)} < 1")
    return problems


def check_design(results, e_ref: float):
    """Problems found and |E_best / E_ref - 1| (None without a feasible start)."""
    feasible = [r for r in results if r.feasible]
    problems = []
    if len(feasible) < MIN_FEASIBLE_STARTS:
        problems.append(
            f"{len(feasible)} of {len(results)} starts feasible, "
            f"need {MIN_FEASIBLE_STARTS}"
        )
    if not feasible:
        return problems, None
    dev = abs(min(r.energy for r in feasible) / e_ref - 1.0)
    if not dev <= ENERGY_TOL:
        problems.append(f"best energy off the baseline by {dev:.3%}")
    return problems, dev


def check_validate(report) -> list:
    problems = []
    if not np.isfinite(report.q_sim):
        problems.append(f"q_sim = {report.q_sim} is not finite")
    if not abs(report.rel_diff) <= REL_DIFF_TOL:
        problems.append(f"|rel_diff| = {abs(report.rel_diff):.4f} > {REL_DIFF_TOL}")
    return problems


def run_pass(inp: Inputs) -> Outcome:
    """One pass of the workload, checked.  Exceptions propagate."""
    cfg = inp.cfg
    if inp.workload == "train":
        doe, T, S = pipeline.run_simulations(cfg)
        bundle = pipeline.train_from_matrices(cfg, doe, T, S)
        problems = check_train(cfg.M, T, S, bundle)
        failed = cfg.M if problems else 0
        return Outcome(cfg.M, failed, cfg.M - failed, problems)
    if inp.workload == "design":
        results = tuple(pipeline.run_optimization(cfg, inp.bundle))
        problems, dev = check_design(results, inp.e_ref)
        failed = len(results) if problems else sum(not r.feasible for r in results)
        return Outcome(len(results), failed, 0, problems, dev)
    report = pipeline.validate(inp.d_star, inp.zeta_star, inp.bundle, cfg)
    problems = check_validate(report)
    failed = cfg.n_val if problems else 0
    return Outcome(cfg.n_val, failed, cfg.n_val - failed, problems)


def pass_size(inp: Inputs) -> int:
    """Operations a pass attempts: simulations, or solves on design."""
    if inp.workload == "train":
        return inp.cfg.M
    if inp.workload == "design":
        return len(pipeline.DEFAULT_STARTS)
    return inp.cfg.n_val


# ---------------------------------------------------------------------------
# kernel probe and machine facts


def kernel_probe(repeats: int, sampler) -> dict:
    """Median reference ms of one ``thermal.simulate`` call per probe design."""
    b = thermal.RANDOM_INPUT_BOUNDS
    z = thermal.RandomInputs(**{k: 0.5 * (lo + hi) for k, (lo, hi) in b.items()})
    out = {}
    for key, (v, p) in PROBE_DESIGNS.items():
        d = thermal.DesignPoint(v=v, P=p)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            with sampler:
                thermal.simulate(d, z)
            times.append(sampler.cost(time.perf_counter() - t0)[1])
        out[key] = 1e3 * float(np.median(times))
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def machine_facts(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }
