"""End-to-end acceptance checks, one test per numbered criterion.

Each test finishes by printing a single ``criterion N PASS`` line (visible
with ``pytest -s``); the pytest verdict for the test is the pass/fail
record.  Criteria 8 and 9 share one module-scoped run of the nominal
pipeline so the expensive training stage happens only once; criterion 10
runs a reduced-size chain twice to compare artifact bytes.

The first nominal run records the converged energy in
``tests/data/regression_baseline.json``; later runs must stay within 10%
of that value.
"""

import json
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (
    buffered_superquantile_se,
    estimate_bpof_tail,
    evaluate_constraints,
    fit_quadratic,
    quadratic_values,
    reconstruct,
    slsqp_solve,
)

from pbfopt import optimize, pipeline, reduction, risk, thermal
from pbfopt.optimize import OptimizeConfig
from pbfopt.thermal import DesignPoint, RandomInputs, SimGridConfig

BASELINE_PATH = Path(__file__).parent / "data" / "regression_baseline.json"

NOMINAL_Z = RandomInputs(T0=650.0, Y=825.0, E=110.0, rho=612.0)

ARTIFACTS = {
    "doe.csv",
    "T.csv",
    "S.csv",
    "err_curves.json",
    "bundle.json",
    "optimize.json",
    "optimize_history.csv",
    "validation.json",
}

# Reference truncation-error curves with pinned selection outcomes: the
# first drops through the 5% threshold at k = 2, the second never reaches
# 5% and its marginal gains fade below 2% only after k = 5.
CURVE_TEMPERATURE = np.array(
    [
        0.10325313944291051,
        0.04530458923079103,
        0.008644761206775068,
        0.0032871406645308397,
        0.001943224380352817,
        0.0015067953784717004,
        0.0012720758890423156,
        0.0010631241969934668,
        0.0008968229291920379,
        0.0007490274357354919,
    ]
)
CURVE_STRESS = np.array(
    [
        0.39987282961628545,
        0.26315456388152675,
        0.15059725663747497,
        0.13418503344473287,
        0.10370120666329985,
        0.09284355897732577,
        0.08453758821970234,
        0.07918093976700538,
        0.07501744014285021,
        0.07074871407171848,
    ]
)


# ---------------------------------------------------------------- helpers


def brute_force_bpof(values, tau, n_grid=1000):
    """Exhaustive scan of mean((g - zeta)^+) / (tau - zeta) over zeta < tau.

    A uniform grid from the sample minimum up to tau (extended one span
    below the minimum) plus the distinct sample values themselves; the
    ratio is piecewise monotone with breakpoints at the samples, so
    including them makes the scan exact.
    """
    g = np.asarray(values, dtype=float)
    gmin, gmax = g.min(), g.max()
    span = max(gmax - gmin, 1.0)
    grid = np.linspace(gmin, tau, n_grid, endpoint=False)
    zetas = np.unique(np.concatenate([[gmin - span], grid, g[g < tau]]))
    best = np.inf
    for z in zetas:
        ratio = np.mean(np.maximum(g - z, 0.0)) / (tau - z)
        best = min(best, ratio)
    return float(min(max(best, 0.0), 1.0))


def lhs_sample(rng, m, n=6):
    """Stratified uniform sample on [-1, 1]^n, one point per stratum."""
    strata = rng.permuted(np.tile(np.arange(m), (n, 1)), axis=1).T
    return 2.0 * (strata + rng.uniform(size=(m, n))) / m - 1.0


def fd_gradient(fun, x, h=1e-6):
    """Central finite differences of a scalar function at x."""
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (fun(x + step)[0] - fun(x - step)[0]) / (2.0 * h)
    return g


def angle_deg(a, b):
    c = abs(float(np.dot(a, b))) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.degrees(np.arccos(min(c, 1.0))))


def best_result(results):
    return min(results, key=lambda r: (not r.feasible, r.energy))


def start_is_feasible(bundle, d0, ocfg):
    """Judge an initial design on the same frozen sample set the solver uses."""
    z = optimize.draw_material_samples(
        bundle.input_bounds[2:], ocfg.n_mc, np.random.default_rng(ocfg.seed)
    )
    sigma = optimize.stress_max_samples(bundle, d0, z)
    _, zeta0 = risk.estimate_bpof_minform(sigma, ocfg.tau)
    lhs, t_hat = evaluate_constraints(d0, zeta0, bundle, z, ocfg)
    return bool(optimize.is_feasible(ocfg, lhs, t_hat))


@pytest.fixture(scope="module")
def nominal_chain(tmp_path_factory):
    """Train and optimize the nominal configuration once (criteria 8-9)."""
    out = tmp_path_factory.mktemp("nominal")
    cfg = pipeline.PipelineConfig(out_dir=str(out))
    t0 = time.perf_counter()
    bundle = pipeline.run_training(cfg)
    results = pipeline.run_optimization(cfg, bundle)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(cfg=cfg, bundle=bundle, results=results, elapsed=elapsed)


# ---------------------------------------------------------------- criteria


def test_criterion_01_risk_oracles_on_known_distributions():
    rng = np.random.default_rng(101)
    uniform = rng.uniform(size=100_000)
    exponential = rng.exponential(size=100_000)
    t0 = time.perf_counter()
    q_uni = risk.estimate_quantile(uniform, 0.95)
    sq_uni = risk.estimate_superquantile(uniform, 0.95)
    sq_exp = risk.estimate_superquantile(exponential, 0.95)
    elapsed = time.perf_counter() - t0
    assert q_uni == pytest.approx(0.95, abs=0.01)
    assert sq_uni == pytest.approx(0.975, abs=0.01)
    assert sq_exp == pytest.approx(-np.log(0.05) + 1.0, abs=0.05)
    assert elapsed < 1.0
    print(
        f"criterion 1 PASS: quantile {q_uni:.4f}, tail means {sq_uni:.4f} / "
        f"{sq_exp:.4f} in {elapsed * 1e3:.0f} ms"
    )


def test_criterion_02_bpof_estimators_agree():
    rng = np.random.default_rng(102)
    worst_grid = 0.0
    worst_tail = 0.0
    for trial in range(200):
        m = int(rng.integers(2, 51))
        kind = trial % 4
        if kind == 0:
            vals = rng.normal(scale=rng.uniform(0.5, 3.0), size=m)
        elif kind == 1:
            vals = rng.exponential(scale=rng.uniform(0.5, 2.0), size=m)
        elif kind == 2:
            vals = rng.uniform(-5.0, 5.0, size=m)
        else:
            vals = rng.lognormal(sigma=0.8, size=m)
        span = max(vals.max() - vals.min(), 1.0)
        tau = float(rng.uniform(vals.min() + 1e-6 * span, vals.max() + 0.5 * span))
        got, _ = risk.estimate_bpof_minform(vals, tau)
        worst_grid = max(worst_grid, abs(got - brute_force_bpof(vals, tau)))
        alpha = float(rng.uniform(0.05, 0.95))
        tail, tau_tail = estimate_bpof_tail(vals, alpha)
        ref, _ = risk.estimate_bpof_minform(vals, tau_tail)
        worst_tail = max(worst_tail, abs(tail - ref) - 1.0 / m)
        assert abs(got - brute_force_bpof(vals, tau)) <= 1e-6
        assert abs(tail - ref) <= 1.0 / m + 1e-12
    print(
        f"criterion 2 PASS: 200 sample sets, worst grid gap {worst_grid:.2e}, "
        f"worst tail slack {worst_tail:.2e}"
    )


def test_criterion_03_conservative_orderings():
    rng = np.random.default_rng(103)
    for _ in range(10_000):
        m = int(rng.integers(1, 41))
        vals = rng.normal(scale=rng.uniform(0.5, 3.0), size=m) + rng.uniform(-2, 2)
        span = max(vals.max() - vals.min(), 1.0)
        tau = float(rng.uniform(vals.min() + 1e-9 * span, vals.max() + 0.5 * span))
        alpha = float(rng.uniform(0.01, 0.99))
        bpof, _ = risk.estimate_bpof_minform(vals, tau)
        assert bpof >= risk.estimate_pof(vals, tau) - 1e-12
        q = risk.estimate_quantile(vals, alpha)
        assert risk.estimate_superquantile(vals, alpha) >= q - 1e-12
    print("criterion 3 PASS: 10000 trials, BPOF >= POF and tail mean >= quantile")


def test_criterion_04_svd_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    data = rng.normal(size=(30, 12)) + 2.0
    full = reduction.decompose(data)
    rel = np.linalg.norm(data - reconstruct(full)) / np.linalg.norm(data)
    errs = reduction.error_curve(full, 10)
    k_t = reduction.select_feature_count(CURVE_TEMPERATURE, 0.05, 0.02)
    k_s = reduction.select_feature_count(CURVE_STRESS, 0.05, 0.02)
    elapsed = time.perf_counter() - t0
    assert rel < 1e-10
    assert np.all(np.diff(errs) <= 1e-12)
    assert k_t == 2
    assert k_s == 5
    assert elapsed < 1.0
    print(
        f"criterion 4 PASS: reconstruction {rel:.1e}, curve non-increasing, "
        f"selected 2 and 5 features in {elapsed * 1e3:.0f} ms"
    )


def test_criterion_05_planted_ridge_recovery():
    hits = 0
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        w = rng.normal(size=6)
        w /= np.linalg.norm(w)
        x = lhs_sample(rng, 150)
        t = x @ w
        s = reduction.discover(reduction.estimate_gradients(x, t**2 + np.sin(t)))
        ang = angle_deg(s.w1[:, 0], w)
        worst = max(worst, ang)
        if s.r == 1 and ang < 5.0:
            hits += 1
    assert hits >= 95
    print(f"criterion 5 PASS: {hits}/100 ridge directions within 5 degrees "
          f"(worst {worst:.2f})")


def test_criterion_06_gradient_fit_accuracy():
    rng = np.random.default_rng(106)
    x = lhs_sample(rng, 120)
    w = rng.normal(size=6)
    vals = np.tanh(x @ w)
    coeffs = fit_quadratic(x, vals)
    for row, g in zip(x[:25], reduction.estimate_gradients(x, vals)):
        assert g == pytest.approx(
            fd_gradient(lambda y: quadratic_values(coeffs, y), row), abs=1e-8
        )
    g_sin = reduction.estimate_gradients(x, np.sin(x[:, 0]))
    expected = np.zeros_like(x)
    expected[:, 0] = np.cos(x[:, 0])
    rms_sin = float(np.sqrt(np.mean((g_sin - expected) ** 2)))
    g_exp = reduction.estimate_gradients(x, np.exp(x[:, 1] / 2.0))
    expected = np.zeros_like(x)
    expected[:, 1] = 0.5 * np.exp(x[:, 1] / 2.0)
    rms_exp = float(np.sqrt(np.mean((g_exp - expected) ** 2)))
    assert rms_sin < 0.08
    assert rms_exp < 0.08
    print(
        f"criterion 6 PASS: fit gradients match FD to 1e-8; analytic RMS "
        f"{rms_sin:.3f} / {rms_exp:.3f}"
    )


def test_criterion_07_thermal_solver_properties():
    snap = thermal.simulate(DesignPoint(500.0, 0.0), NOMINAL_Z)
    drift = max(
        float(np.max(np.abs(snap.temps - 650.0))),
        float(np.max(np.abs(snap.peak_field - 650.0))),
    )
    assert drift < 1e-6

    power_peaks = [
        thermal.simulate(DesignPoint(550.0, P), NOMINAL_Z).temps.max()
        for P in (20.0, 110.0, 200.0)
    ]
    assert all(b >= a for a, b in zip(power_peaks, power_peaks[1:]))
    speed_peaks = [
        thermal.simulate(DesignPoint(v, 110.0), NOMINAL_Z).temps.max()
        for v in (100.0, 550.0, 1000.0)
    ]
    assert all(b <= a for a, b in zip(speed_peaks, speed_peaks[1:]))

    # halving both cell spacings doubles the counts of the default 64x26 grid
    d = DesignPoint(550.0, 110.0)
    full = thermal.simulate(d, NOMINAL_Z)
    fine = thermal.simulate(d, NOMINAL_Z, grid=SimGridConfig(128, 52))
    rel = abs(fine.temps.max() - full.temps.max()) / full.temps.max()
    assert rel < 0.02

    # slowest scan = most steps; best of two runs damps scheduler noise
    slow = min(
        _timed_simulation(DesignPoint(100.0, 200.0)) for _ in range(2)
    )
    mid = _timed_simulation(DesignPoint(550.0, 110.0))
    assert slow < 2.0
    assert mid < 2.0
    print(
        f"criterion 7 PASS: equilibrium drift {drift:.1e}, monotone sweeps, "
        f"spacing-halving shift {rel * 100:.2f}%, slowest run {slow:.2f} s"
    )


def _timed_simulation(d):
    t0 = time.perf_counter()
    thermal.simulate(d, NOMINAL_Z)
    return time.perf_counter() - t0


def test_criterion_08_nominal_pipeline_optimization(nominal_chain):
    cfg, results = nominal_chain.cfg, nominal_chain.results
    assert nominal_chain.elapsed < 600.0
    assert len(results) == len(pipeline.DEFAULT_STARTS) == 4

    feasible = [r for r in results if r.feasible]
    assert len(feasible) >= 3
    best = best_result(results)
    assert best.feasible

    for d0, r in zip(pipeline.DEFAULT_STARTS, results):
        start = DesignPoint(*d0)
        if start_is_feasible(nominal_chain.bundle, start, cfg.optimize):
            start_energy = optimize.energy(start, cfg.optimize.scan_length)
            assert best.energy <= start_energy + 1e-9

    energies = [r.energy for r in results]
    assert max(energies) / min(energies) - 1.0 <= 0.10

    if BASELINE_PATH.exists():
        base = json.loads(BASELINE_PATH.read_text())["optimal_energy"]
        assert abs(best.energy / base - 1.0) <= 0.10
        note = f"within 10% of recorded baseline {base:.4f} J"
    else:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps({"optimal_energy": best.energy}, indent=2) + "\n"
        )
        note = "baseline recorded"
    print(
        f"criterion 8 PASS: {len(feasible)}/4 feasible, optimum "
        f"{best.energy:.4f} J at ({best.d_star.v:.1f}, {best.d_star.P:.1f}) "
        f"in {nominal_chain.elapsed:.0f} s; {note}"
    )


def test_criterion_09_validation_protocol(nominal_chain):
    cfg, bundle = nominal_chain.cfg, nominal_chain.bundle
    best = best_result(nominal_chain.results)
    alpha = cfg.optimize.alpha_t

    report = pipeline.validate(best.d_star, best.zeta_star, bundle, cfg)
    assert cfg.n_val == 50
    assert abs(report.rel_diff) <= 0.05

    check = pipeline.validate(best.d_star, best.zeta_star, bundle, cfg,
                              self_check=True)
    bounds = cfg.input_bounds[2:]
    sig_a = pipeline.simulate_stress_maxima(
        cfg, best.d_star,
        optimize.draw_material_samples(
            bounds, cfg.n_val, np.random.default_rng(cfg.seed_validation)
        ),
    )
    sig_b = pipeline.simulate_stress_maxima(
        cfg, best.d_star,
        optimize.draw_material_samples(
            bounds, cfg.n_val, np.random.default_rng(cfg.seed_mc)
        ),
    )
    assert check.q_sim == pytest.approx(
        risk.buffered_superquantile(sig_a, best.zeta_star, alpha), rel=1e-12
    )
    assert check.q_surr == pytest.approx(
        risk.buffered_superquantile(sig_b, best.zeta_star, alpha), rel=1e-12
    )
    se = float(
        np.hypot(
            buffered_superquantile_se(sig_a, best.zeta_star, alpha),
            buffered_superquantile_se(sig_b, best.zeta_star, alpha),
        )
    )
    assert abs(check.q_sim - check.q_surr) <= 2.0 * se + 1e-9
    print(
        f"criterion 9 PASS: rel_diff {report.rel_diff * 100:.2f}%; self-check "
        f"gap {abs(check.q_sim - check.q_surr):.3g} vs 2*SE {2 * se:.3g}"
    )


def test_nominal_starts_take_few_evaluations(nominal_chain):
    """With exact gradients on the frozen draws, each default start of the
    nominal solve is feasible within 10 surrogate evaluations."""
    results = nominal_chain.results
    assert len(results) == len(pipeline.DEFAULT_STARTS)
    assert all(r.feasible for r in results)
    assert max(r.iterations for r in results) <= 10, [r.iterations for r in results]


def test_nominal_solver_scenarios(nominal_chain):
    """The SQP on the nominal bundle at tau = 607 MPa, just above the stress
    superquantile q* at d* (about 604.8), and at tau = q* - 0.5 MPa, just
    below it.  d* is the least-risk point of the melt edge, so no design in
    the box meets the lower tau."""
    bundle, base = nominal_chain.bundle, nominal_chain.cfg.optimize
    for kind in ("bpof", "pof"):
        cfg = replace(base, tau=607.0, constraint_kind=kind)
        solved = []
        for d0 in [DesignPoint(*s) for s in pipeline.DEFAULT_STARTS]:
            res = optimize.solve(bundle, cfg, d0)
            assert res.feasible
            assert res.iterations <= 40
            assert res.energy == pytest.approx(slsqp_solve(bundle, cfg, d0), rel=1e-4)
            solved.append(res)
        if kind == "bpof":  # q* on the solver's own frozen draws
            best = min(solved, key=lambda r: r.energy)
            draws = optimize.draw_material_samples(
                bundle.input_bounds[2:], cfg.n_mc, np.random.default_rng(cfg.seed))
            q_star = risk.estimate_superquantile(
                optimize.stress_max_samples(bundle, best.d_star, draws), cfg.alpha_t)
    assert q_star < 607.0
    cfg = replace(base, tau=q_star - 0.5)
    for d0 in [DesignPoint(*s) for s in pipeline.DEFAULT_STARTS]:
        res = optimize.solve(bundle, cfg, d0)
        margins = optimize._margins(cfg, res.bpof_lhs, res.t_max_hat)
        assert not res.feasible
        assert np.maximum(-margins, 0.0).sum() <= 0.02


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfg = pipeline.PipelineConfig(
        M=46,
        n_val=10,
        out_dir=str(out),
        optimize=OptimizeConfig(n_mc=2000),
    )

    def chain():
        bundle = pipeline.run_training(cfg)
        results = pipeline.run_optimization(
            cfg, bundle, starts=((500.0, 160.0), (400.0, 125.0))
        )
        best = best_result(results)
        pipeline.validate(best.d_star, best.zeta_star, bundle, cfg)

    chain()
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(first) == ARTIFACTS
    chain()
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(second) == ARTIFACTS
    for name in sorted(ARTIFACTS):
        assert second[name] == first[name], f"{name} changed between reruns"
    print(f"criterion 10 PASS: {len(ARTIFACTS)} artifacts byte-identical on rerun")
