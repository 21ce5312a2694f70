"""Tests for the risk-constrained energy minimizer.

The fixture bundle is synthetic: one linear ridge feature per output with
known coefficients, so the constrained optima have closed forms.  In
normalized inputs u in [-1, 1]:

    mean max temperature  t(u) = 1690 - 42 u_v + 72 u_P + 30 u_T0
    max residual stress   s(u) =  700 - 30 u_v + 20 u_P - 45 u_Y

With the melt window (1650, 1815) the ceiling never binds (max t = 1834
only without the floor; on the box the max is 1804) and the floor gives
u_P >= (42 u_v - 40) / 72.  Scan energy 2 P / v then has its minimum at
u_P = -1, u_v = -32/42: v* = 207.143, P* = 20, E* = 0.1931.

Stress is uniform over u_Y, so with threshold tau the buffered exceedance
ratio at its best zeta is (b - tau)/45 for upper endpoint b = base + 45,
twice the plain exceedance frequency (b - tau)/90.  tau = 735 makes the
risk constraint cut off the window-only optimum and moves it to the
intersection with the window floor: u_v = -0.18334, v* = 467.5,
P* = 50.38, E* = 0.21551.
"""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from math import comb, isqrt
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    evaluate_constraints,
    hull_row_max,
    qp_per_system,
    row_max_samples,
    slsqp_solve,
    temperature_max_samples,
)
from scipy.spatial import ConvexHull

import pbfopt
from pbfopt import optimize, pipeline, risk, surrogate
from pbfopt.optimize import (
    HISTORY_COLUMNS,
    OptimizeConfig,
    draw_material_samples,
    energy,
    solve,
    stress_max_samples,
)
from pbfopt.reduction import ActiveSubspace, normalize_inputs
from pbfopt.surrogate import (
    FeatureSurrogate,
    OutputModel,
    PolySurrogate,
    SurrogateBundle,
)
from pbfopt.thermal import DESIGN_BOUNDS, RANDOM_INPUT_BOUNDS, DesignPoint

WINDOW_ENERGY = 40.0 / (550.0 - 450.0 * 32.0 / 42.0)  # 0.193103...
RISK_ENERGY = 2.0 * 50.375 / 467.5  # 0.215508...

TEMP_COEFFS = np.array([-42.0, 72.0, 30.0, 0.0, 0.0, 0.0])
STRESS_COEFFS = np.array([-30.0, 20.0, 0.0, -45.0, 0.0, 0.0])


def physical_bounds() -> np.ndarray:
    rows = [DESIGN_BOUNDS["v"], DESIGN_BOUNDS["P"]]
    rows += [RANDOM_INPUT_BOUNDS[k] for k in ("T0", "Y", "E", "rho")]
    return np.array(rows, dtype=float)


def normalize_rows(xi: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    mid = 0.5 * (bounds[:, 0] + bounds[:, 1])
    half = 0.5 * (bounds[:, 1] - bounds[:, 0])
    return (np.atleast_2d(xi) - mid) / half


def ridge_model(raw_direction: np.ndarray, intercept: float) -> FeatureSurrogate:
    scale = float(np.linalg.norm(raw_direction))
    w1 = (raw_direction / scale).reshape(-1, 1)
    eigenvalues = np.zeros(raw_direction.size)
    eigenvalues[0] = scale**2
    sub = ActiveSubspace(w1=w1, eigenvalues=eigenvalues, r=1)
    poly = PolySurrogate(
        n_vars=1, degree=1, coefficients=np.array([intercept, scale]), r2=1.0
    )
    return FeatureSurrogate(subspace=sub, poly=poly)


@pytest.fixture(scope="module")
def toy_bundle() -> SurrogateBundle:
    # spatial profiles peak at exactly 1 so the rowwise max equals the
    # (always-positive) feature value itself
    return SurrogateBundle(
        input_bounds=physical_bounds(),
        temperature=OutputModel(
            np.linspace(0.4, 1.0, 31)[:, None], (ridge_model(TEMP_COEFFS, 1690.0),)
        ),
        stress=OutputModel(
            np.linspace(0.2, 1.0, 448)[:, None], (ridge_model(STRESS_COEFFS, 700.0),)
        ),
        provenance={"kind": "synthetic linear ridges"},
    )


def random_feature(rng, r: int, degree: int) -> FeatureSurrogate:
    w1, _ = np.linalg.qr(rng.normal(size=(6, r)))
    sub = ActiveSubspace(w1=w1, eigenvalues=np.sort(rng.uniform(size=6))[::-1], r=r)
    poly = PolySurrogate(
        n_vars=r,
        degree=degree,
        coefficients=rng.normal(size=comb(r + degree, degree)),
        r2=0.9,
    )
    return FeatureSurrogate(subspace=sub, poly=poly)


@pytest.fixture(scope="module")
def k2_bundle() -> SurrogateBundle:
    """Two features per side, (r, degree) = (2, 3) and (1, 4), with
    random subspaces, coefficients and right vectors."""
    rng = np.random.default_rng(2024)
    return SurrogateBundle(
        input_bounds=physical_bounds(),
        temperature=OutputModel(
            rng.normal(size=(448, 2)),
            (random_feature(rng, 2, 3), random_feature(rng, 1, 4)),
        ),
        stress=OutputModel(
            rng.normal(size=(448, 2)),
            (random_feature(rng, 2, 3), random_feature(rng, 1, 4)),
        ),
        provenance={"kind": "synthetic random K = 2"},
    )


@pytest.fixture(scope="module")
def k3_bundle() -> SurrogateBundle:
    """Three features per side, (r, degree) = (2, 3), (1, 4) and (1, 2),
    with random subspaces, coefficients and right vectors."""
    rng = np.random.default_rng(2025)
    specs = ((2, 3), (1, 4), (1, 2))
    return SurrogateBundle(
        input_bounds=physical_bounds(),
        temperature=OutputModel(
            rng.normal(size=(31, 3)), tuple(random_feature(rng, *s) for s in specs)
        ),
        stress=OutputModel(
            rng.normal(size=(448, 3)), tuple(random_feature(rng, *s) for s in specs)
        ),
        provenance={"kind": "synthetic random K = 3"},
    )


def solver_row_max(bundle, side, d, samples) -> np.ndarray:
    """The solver's per-sample maximum of one output's row at design d."""
    u_z = normalize_inputs(samples, bundle.input_bounds[2:])
    u_d = normalize_inputs(np.array([d.v, d.P]), bundle.input_bounds[:2])
    return optimize._RowMax(getattr(bundle, side), u_z).evaluate(u_d)[0]


def smooth_right_vectors(rng, n_cols: int) -> np.ndarray:
    """Leading two right vectors of a snapshot matrix of smooth random
    bumps, shaped like a trained bundle's (n_cols x 2) vectors."""
    x = np.linspace(0.0, 1.0, n_cols)
    centres = rng.uniform(0.2, 0.8, size=(60, 1))
    widths = rng.uniform(0.05, 0.3, size=(60, 1))
    snapshots = rng.uniform(0.5, 2.0, size=(60, 1)) * np.exp(
        -(((x - centres) / widths) ** 2)
    )
    return np.linalg.svd(snapshots, full_matrices=False)[2][:2].T


@pytest.fixture(scope="module")
def window_result(toy_bundle):
    cfg = OptimizeConfig(n_mc=4000, seed=11)
    return cfg, solve(toy_bundle, cfg, DesignPoint(v=500.0, P=160.0))


@pytest.fixture(scope="module")
def risk_result(toy_bundle):
    cfg = OptimizeConfig(tau=735.0, n_mc=4000, seed=7)
    return cfg, solve(toy_bundle, cfg, DesignPoint(v=500.0, P=160.0))


@pytest.fixture(scope="module")
def unattainable_result(toy_bundle):
    # no design reaches this melt window: every start ends infeasible
    cfg = OptimizeConfig(n_mc=1000, seed=4, temp_window=(2200.0, 2300.0))
    return cfg, solve(toy_bundle, cfg, DesignPoint(v=500.0, P=160.0))


class TestEnergy:
    def test_hand_values(self):
        assert energy(DesignPoint(v=500.0, P=160.0)) == pytest.approx(0.64)
        assert energy(DesignPoint(v=1000.0, P=20.0)) == pytest.approx(0.04)
        assert energy(DesignPoint(v=600.0, P=100.0)) == pytest.approx(1.0 / 3.0)

    def test_scan_length_scales_linearly(self):
        d = DesignPoint(v=400.0, P=100.0)
        assert energy(d, l=4.0) == pytest.approx(2.0 * energy(d))

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError, match="speed"):
            energy(DesignPoint(v=0.0, P=100.0))


class TestSampleDraws:
    def test_within_bounds_and_deterministic(self):
        bounds = physical_bounds()[2:]
        a = draw_material_samples(bounds, 500, np.random.default_rng(3))
        b = draw_material_samples(bounds, 500, np.random.default_rng(3))
        assert a.shape == (500, 4)
        assert np.array_equal(a, b)
        assert np.all(a >= bounds[:, 0]) and np.all(a <= bounds[:, 1])

    def test_seeds_differ(self):
        bounds = physical_bounds()[2:]
        a = draw_material_samples(bounds, 64, np.random.default_rng(0))
        b = draw_material_samples(bounds, 64, np.random.default_rng(1))
        assert not np.array_equal(a, b)

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            draw_material_samples(physical_bounds()[2:], 0, np.random.default_rng(0))


class TestSurrogateMaxima:
    """The synthetic ridges make both per-sample maxima exactly linear."""

    def test_stress_matches_linear_form(self, toy_bundle):
        rng = np.random.default_rng(42)
        z = draw_material_samples(physical_bounds()[2:], 300, rng)
        d = DesignPoint(v=430.0, P=85.0)
        got = stress_max_samples(toy_bundle, d, z)
        xi = np.column_stack([np.full(300, d.v), np.full(300, d.P), z])
        u = normalize_rows(xi, physical_bounds())
        assert got == pytest.approx(700.0 + u @ STRESS_COEFFS, abs=1e-9)

    @pytest.mark.parametrize("width", [3, 5])
    def test_samples_not_four_wide_rejected(self, toy_bundle, width):
        d = DesignPoint(v=430.0, P=85.0)
        with pytest.raises(ValueError, match=r"material samples must be \(n, 4\) rows"):
            stress_max_samples(toy_bundle, d, np.ones((3, width)))

    def test_temperature_matches_linear_form(self, toy_bundle):
        rng = np.random.default_rng(43)
        z = draw_material_samples(physical_bounds()[2:], 300, rng)
        d = DesignPoint(v=950.0, P=25.0)
        got = solver_row_max(toy_bundle, "temperature", d, z)
        xi = np.column_stack([np.full(300, d.v), np.full(300, d.P), z])
        u = normalize_rows(xi, physical_bounds())
        assert got == pytest.approx(1690.0 + u @ TEMP_COEFFS, abs=1e-9)


class TestEvaluateConstraints:
    def test_matches_direct_ratio(self, toy_bundle):
        cfg = OptimizeConfig(n_mc=500)
        z = draw_material_samples(
            physical_bounds()[2:], 500, np.random.default_rng(5)
        )
        d = DesignPoint(v=300.0, P=150.0)
        zeta = 700.0
        lhs, t_hat = evaluate_constraints(d, zeta, toy_bundle, z, cfg)
        sigma = stress_max_samples(toy_bundle, d, z)
        want = np.maximum(sigma - zeta, 0.0).mean() / (cfg.tau - zeta)
        assert lhs == pytest.approx(want, rel=1e-12)
        temps = temperature_max_samples(toy_bundle, d, z)
        assert t_hat == pytest.approx(temps.mean(), rel=1e-12)
        solver_temps = solver_row_max(toy_bundle, "temperature", d, z)
        assert t_hat == pytest.approx(solver_temps.mean(), rel=1e-12)

    def test_pof_mode_counts_exceedances(self, toy_bundle):
        cfg = OptimizeConfig(tau=705.0, constraint_kind="pof")
        z = draw_material_samples(
            physical_bounds()[2:], 400, np.random.default_rng(6)
        )
        d = DesignPoint(v=300.0, P=150.0)
        lhs, _ = evaluate_constraints(d, 0.0, toy_bundle, z, cfg)
        sigma = stress_max_samples(toy_bundle, d, z)
        assert lhs == pytest.approx(np.mean(sigma > 705.0))
        assert optimize._risk(sigma, cfg)[0] == lhs

    def test_zeta_at_or_above_tau_rejected(self, toy_bundle):
        cfg = OptimizeConfig()
        z = draw_material_samples(
            physical_bounds()[2:], 100, np.random.default_rng(7)
        )
        with pytest.raises(ValueError, match="zeta"):
            evaluate_constraints(
                DesignPoint(v=300.0, P=100.0), cfg.tau, toy_bundle, z, cfg
            )
        # the solver clamps its zeta below tau when tau is the sample maximum
        d = DesignPoint(v=300.0, P=100.0)
        sigma = stress_max_samples(toy_bundle, d, z)
        cfg = OptimizeConfig(tau=float(sigma.max()))
        _, zeta, _, _ = optimize._risk(sigma, cfg)
        assert zeta < cfg.tau
        evaluate_constraints(d, zeta, toy_bundle, z, cfg)

    def test_risk_gives_the_row_one_minus_rho_over_tau(self):
        sigma = np.random.default_rng(8).normal(600.0, 10.0, 2000)
        cfg = OptimizeConfig(tau=610.0)
        row = optimize._risk(sigma, cfg)[2]
        assert row == 1.0 - risk.estimate_superquantile(sigma, 0.95) / 610.0
        # pof mode: k = floor(0.05 * 2000) = 100, so the 101st largest sample
        row = optimize._risk(sigma, replace(cfg, constraint_kind="pof"))[2]
        assert row == 1.0 - np.sort(sigma)[-101] / 610.0
        for kind in ("bpof", "pof"):
            cfg = OptimizeConfig(tau=np.inf, constraint_kind=kind)
            assert optimize._risk(sigma, cfg)[:3] == (0.0, sigma.max(), 1.0)

    def test_empty_samples_rejected(self, toy_bundle):
        with pytest.raises(ValueError, match="empty"):
            evaluate_constraints(
                DesignPoint(v=300.0, P=100.0),
                0.0,
                toy_bundle,
                np.empty((0, 4)),
                OptimizeConfig(),
            )


class TestHullColumns:
    def test_single_feature_keeps_extremes(self):
        v = np.array([[0.3], [0.9], [-0.2], [0.5]])
        assert np.array_equal(optimize._hull_columns(v), [1, 2])

    def test_interior_rows_never_change_the_max(self):
        # with three columns no hull is sought: every row is kept
        rng = np.random.default_rng(12)
        vectors = rng.normal(size=(120, 3))
        keep = optimize._hull_columns(vectors)
        assert np.array_equal(keep, np.arange(120))
        g = rng.normal(size=(200, 3))
        full = (g @ vectors.T).max(axis=1)
        reduced = (g @ vectors[keep].T).max(axis=1)
        assert np.array_equal(reduced, full)

    @pytest.mark.parametrize("n_cols", [31, 448])
    def test_planar_hull_matches_qhull_on_smooth_vectors(self, n_cols):
        rng = np.random.default_rng(n_cols)
        for _ in range(5):
            vectors = smooth_right_vectors(rng, n_cols)
            want = np.sort(ConvexHull(vectors).vertices)
            assert np.array_equal(optimize._hull_columns(vectors), want)

    def test_planar_hull_matches_qhull_on_random_sets(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(3, 400))
            vectors = rng.normal(size=(n, 2)) * rng.uniform(0.01, 100.0, size=2)
            want = np.sort(ConvexHull(vectors).vertices)
            assert np.array_equal(optimize._hull_columns(vectors), want)

    def test_planar_hull_skips_repeated_and_collinear_points(self):
        # a square with its edge midpoints, centre and a repeated corner
        square = np.array(
            [[0, 0], [2, 0], [2, 2], [0, 2], [1, 0], [2, 1], [1, 2], [0, 1],
             [1, 1], [2, 2]],
            dtype=float,
        )
        kept = square[optimize._hull_columns(square)]
        assert sorted(map(tuple, kept)) == [(0, 0), (0, 2), (2, 0), (2, 2)]

    def test_reduced_max_with_repeats_and_collinear_points(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            # integer grid points: many exactly collinear triples and repeats
            pts = rng.integers(-4, 5, size=(int(rng.integers(3, 60)), 2))
            vectors = np.vstack([pts, pts[: len(pts) // 3]]).astype(float)
            keep = optimize._hull_columns(vectors)
            g = rng.normal(size=(100, 2))
            full = (g @ vectors.T).max(axis=1)
            reduced = (g @ vectors[keep].T).max(axis=1)
            assert reduced == pytest.approx(full, rel=1e-12, abs=1e-300)

    def test_degenerate_set_falls_back_to_all_rows(self):
        vectors = np.ones((8, 2))
        assert np.array_equal(optimize._hull_columns(vectors), np.arange(8))


class TestEvaluatorAgainstFullRows:
    """The shifted-coefficient features and the hull-row max reproduce
    the maximum over every predicted row."""

    @pytest.mark.parametrize(
        "v, p", [(100.0, 200.0), (232.5, 200.0), (550.0, 110.0), (1000.0, 20.0)]
    )
    def test_matches_full_row_max(self, k2_bundle, v, p):
        z = draw_material_samples(
            physical_bounds()[2:], 2000, np.random.default_rng(15)
        )
        d = DesignPoint(v=v, P=p)
        for side in ("stress", "temperature"):
            got = solver_row_max(k2_bundle, side, d, z)
            want = row_max_samples(k2_bundle, side, d, z)
            assert np.abs(got - want).max() <= 1e-9

    def test_stress_max_samples_builds_stress_bases_only(
        self, k2_bundle, monkeypatch
    ):
        calls = []
        basis = surrogate.basis

        def counting(s, eta):
            calls.append(s)
            return basis(s, eta)

        monkeypatch.setattr(surrogate, "basis", counting)
        z = draw_material_samples(
            physical_bounds()[2:], 200, np.random.default_rng(16)
        )
        stress_max_samples(k2_bundle, DesignPoint(v=500.0, P=160.0), z)
        features = k2_bundle.stress.features
        assert len(calls) == len(features)
        assert all(s is m.poly for s, m in zip(calls, features))


def exact_feature(direction, coefficients) -> FeatureSurrogate:
    """A one-variable polynomial feature along a direction of halves: on
    inputs in eighths its values, shifted or not, round nowhere."""
    sub = ActiveSubspace(
        w1=np.asarray(direction, dtype=float).reshape(-1, 1),
        eigenvalues=np.zeros(6),
        r=1,
    )
    c = np.asarray(coefficients, dtype=float)
    return FeatureSurrogate(sub, PolySurrogate(n_vars=1, degree=c.size - 1,
                                               coefficients=c, r2=1.0))


# the leading feature (eta/2 + 1)^2 + 7 > 0 for |eta| <= 2, and one whose
# sign changes; with integer right vectors every row value is exact
POSITIVE = exact_feature([0.5, 0.5, 0.5, 0.5, 0, 0], [8.0, 1.0, 0.25])
SIGNED = exact_feature([0.5, 0.5, 0.5, 0.5, 0, 0], [0.0, 1.0])
OTHERS = (
    exact_feature([0.5, 0, 0, 0.5, 0.5, 0.5], [0.5, 1.0, -0.25]),
    exact_feature([0, 0.5, 0.5, 0, 0.5, 0], [-1.0, 0.5]),
)


def exact_bundle(lead, k: int) -> SurrogateBundle:
    """k features per side, lead first, on the box [0, 2]^6 (so that u =
    x - 1), with integer right vectors that repeat rows and line them up."""
    rng = np.random.default_rng(k)
    vectors = rng.integers(-3, 4, size=(40, k)).astype(float)
    vectors = np.vstack([vectors, vectors[:10], 2.0 * vectors[:5]])
    output = OutputModel(vectors, (lead, *OTHERS[: k - 1]))
    return SurrogateBundle(np.tile([0.0, 2.0], (6, 1)), output, output)


def eighths(rng, n: int) -> np.ndarray:
    """n material samples on the grid of eighths in [0, 2]^4."""
    return rng.integers(0, 17, size=(n, 4)) / 8.0


def lifted(output: OutputModel, intercept: float) -> OutputModel:
    """output with its leading feature's constant term set to intercept."""
    m = output.features[0]
    c = m.poly.coefficients.copy()
    c[0] = intercept
    first = replace(m, poly=replace(m.poly, coefficients=c))
    return replace(output, features=(first, *output.features[1:]))


@pytest.mark.parametrize("name", ["toy_bundle", "k2_bundle", "k3_bundle"])
def test_row_max_bases_are_column_major(name, request):
    # a row-major basis makes each feature's product n_mc short dot products
    bundle = request.getfixturevalue(name)
    u_z = np.random.default_rng(8).uniform(-1.0, 1.0, size=(500, 4))
    for side in ("temperature", "stress"):
        row_max = optimize._RowMax(getattr(bundle, side), u_z)
        assert len(row_max._bases) == len(getattr(bundle, side).features)
        for _, a in row_max._bases:
            assert a.shape[0] == 500 and a.flags.f_contiguous


class TestReachableRows:
    """The row max over the rows the draws can reach is the max over every
    row, bit for bit."""

    DESIGNS = [(0.25, 1.75), (1.0, 1.0), (1.875, 0.125), (0.0, 2.0)]

    def row_maxima(self, bundle, side, d, z):
        """The solver's row max, the max over every hull row, the rows
        kept, the hull rows and the feature values."""
        u_z = normalize_inputs(z, bundle.input_bounds[2:])
        u_d = normalize_inputs(np.array([d.v, d.P]), bundle.input_bounds[:2])
        row_max = optimize._RowMax(getattr(bundle, side), u_z)
        every, g = hull_row_max(row_max, u_d)
        kept = optimize._reachable_rows(row_max._vectors, g)
        return row_max.evaluate(u_d)[0], every, kept, row_max._vectors, g

    @pytest.mark.parametrize("k", [2, 3])
    def test_positive_lead_prunes_and_keeps_the_max(self, k):
        bundle = exact_bundle(POSITIVE, k)
        z = eighths(np.random.default_rng(30 + k), 3000)
        for v, p in self.DESIGNS:
            d = DesignPoint(v=v, P=p)
            got, every, kept, hull, g = self.row_maxima(bundle, "stress", d, z)
            assert (g[0] > 0.0).all()
            assert len(kept) < len(hull)
            assert np.array_equal(got, every)
            assert np.array_equal(got, row_max_samples(bundle, "stress", d, z))

    @pytest.mark.parametrize("k", [2, 3])
    def test_non_positive_lead_keeps_every_row(self, k):
        bundle = exact_bundle(SIGNED, k)
        z = eighths(np.random.default_rng(40 + k), 3000)
        for v, p in self.DESIGNS:
            d = DesignPoint(v=v, P=p)
            got, every, kept, hull, g = self.row_maxima(bundle, "stress", d, z)
            assert (g[0] <= 0.0).any()
            assert np.array_equal(kept, hull)
            assert np.array_equal(got, every)
            assert np.array_equal(got, row_max_samples(bundle, "stress", d, z))

    def test_a_negative_lead_keeps_the_row_it_makes_win(self):
        # r = g[1] / g[0] spans [-0.1, 0], where (1, 0) beats (0, 1) at both
        # ends; yet in the second column g[0] < 0 and (0, 1) wins
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        g = np.array([[1.0, -1.0], [0.0, 0.1]])
        assert np.array_equal(optimize._reachable_rows(vectors, g), vectors)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and 0 * inf
    def test_overflowing_ratio_keeps_every_row(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        g = np.array([[1e-310, 1.0], [1e10, 1.0]])
        assert np.array_equal(optimize._reachable_rows(vectors, g), vectors)

    def test_repeated_and_collinear_rows_tie(self):
        # every row on the line x + y = 2 is worth 2 at r = 1, inside the box
        # [0.5, 1.5] of g[1] / g[0]; (0, 0) is beaten at both corners
        line = np.array([[2, 0], [2, 0], [0, 2], [1, 1], [1, 1], [-1, 3], [3, -1],
                         [1.5, 0.5]])
        vectors = np.vstack([line, [[0.0, 0.0]]])
        g = np.array([[1.0, 2.0, 4.0, 0.5], [0.5, 2.0, 6.0, 0.25]])
        kept = optimize._reachable_rows(vectors, g)
        assert np.array_equal(kept, line)
        assert np.array_equal(np.max(kept @ g, axis=0), np.max(vectors @ g, axis=0))
        # on [1.9, 2.1] the repeated row (-1, 3) beats every other at both corners
        g = np.array([[1.0, 10.0, 10.0], [2.0, 19.0, 21.0]])
        vectors = np.vstack([line, [[-1.0, 3.0]]])
        assert np.array_equal(optimize._reachable_rows(vectors, g), [[-1, 3]] * 2)

    @pytest.mark.parametrize("side", ["stress", "temperature"])
    @pytest.mark.parametrize("bundle", ["k2_bundle", "k3_bundle"])
    def test_random_bundles_match_every_row_bit_for_bit(self, request, bundle, side):
        b = request.getfixturevalue(bundle)
        b = replace(b, **{side: lifted(getattr(b, side), 40.0)})
        z = draw_material_samples(
            physical_bounds()[2:], 4000, np.random.default_rng(17)
        )
        for v, p in [(100.0, 200.0), (232.5, 200.0), (550.0, 110.0), (1000.0, 20.0)]:
            d = DesignPoint(v=v, P=p)
            got, every, kept, hull, g = self.row_maxima(b, side, d, z)
            assert (g[0] > 0.0).all()
            assert len(kept) < len(hull)
            assert np.array_equal(got, every)
            want = row_max_samples(b, side, d, z)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


class TestNumpyOnlyRuntime:
    """The package runs on numpy alone; scipy is a test dependency."""

    def test_cli_simulation_and_k3_solve_load_no_scipy(self, k3_bundle, tmp_path):
        doc = surrogate.bundle_to_dict(k3_bundle)
        path = pipeline.write_artifact(tmp_path, "bundle.json", doc)
        code = (
            "import json, sys\n"
            "import pbfopt.cli\n"
            "from pbfopt import optimize, pipeline, thermal\n"
            "from pbfopt.surrogate import load_bundle\n"
            "thermal.simulate(thermal.DesignPoint(232.5, 200.0),\n"
            "                 thermal.RandomInputs(650.0, 825.0, 110.0, 612.0))\n"
            "pipeline.generate_doe(44, pipeline.default_input_bounds(), 1)\n"
            f"b = load_bundle({str(path)!r})\n"
            "assert b.stress.right_vectors.shape[1] == 3\n"
            "optimize.solve(b, optimize.OptimizeConfig(n_mc=500),\n"
            "               thermal.DesignPoint(500.0, 160.0))\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'scipy')))\n"
        )
        src = str(Path(pbfopt.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert json.loads(out.stdout) == []


class TestWindowConstrainedSolve:
    """tau = 825 keeps the risk constraint slack; the melt-window floor
    and the power lower bound pin the optimum."""

    def test_finds_window_optimum(self, window_result):
        cfg, res = window_result
        assert res.feasible
        assert res.energy == pytest.approx(WINDOW_ENERGY, rel=0.04)
        assert res.d_star.v == pytest.approx(550.0 - 450.0 * 32.0 / 42.0, abs=15.0)
        assert res.d_star.P <= 22.0

    def test_constraints_hold_at_reported_point(self, window_result):
        cfg, res = window_result
        assert res.bpof_lhs <= (1.0 - cfg.alpha_t) + optimize.CONSTRAINT_TOL
        scale = cfg.temp_window[1] - cfg.temp_window[0]
        assert res.t_max_hat >= cfg.temp_window[0] - optimize.CONSTRAINT_TOL * scale
        assert res.t_max_hat <= cfg.temp_window[1] + optimize.CONSTRAINT_TOL * scale

    def test_energy_consistent_with_design(self, window_result):
        cfg, res = window_result
        assert res.energy == pytest.approx(energy(res.d_star, cfg.scan_length))

    def test_history_schema(self, window_result):
        _, res = window_result
        assert res.history.ndim == 2
        assert res.history.shape[1] == len(HISTORY_COLUMNS)
        assert np.isfinite(res.history).all()
        assert res.iterations > 0

    @pytest.mark.parametrize("result", ["window_result", "unattainable_result"])
    def test_reported_energy_is_best_feasible_history_row(self, request, result):
        cfg, res = request.getfixturevalue(result)
        v, p, zeta, e, lhs, t_hat = res.history.T
        budget = (1.0 - cfg.alpha_t) + optimize.CONSTRAINT_TOL
        lo, hi = cfg.temp_window
        scale = hi - lo
        ok = (
            (lhs <= budget)
            & (t_hat >= lo - optimize.CONSTRAINT_TOL * scale)
            & (t_hat <= hi + optimize.CONSTRAINT_TOL * scale)
        )
        assert ok.any() == res.feasible
        if ok.any():
            assert res.energy == pytest.approx(e[ok].min(), rel=1e-9)
            return
        # none feasible: the first row of least total violation, then of least
        # energy, which here is not the least-energy row
        share = 1.0 - cfg.alpha_t
        violation = (
            np.maximum(lhs - share, 0.0) / share
            + np.maximum(lo - t_hat, 0.0) / scale
            + np.maximum(t_hat - hi, 0.0) / scale
        )
        i = min(range(len(e)), key=lambda k: (violation[k], e[k]))
        assert e[i] > e.min()
        reported = (res.d_star.v, res.d_star.P, res.zeta_star, res.energy,
                    res.bpof_lhs, res.t_max_hat)
        assert np.array_equal(reported, res.history[i])


class TestRiskConstrainedSolve:
    """tau = 735 makes the buffered constraint bind and shifts the
    optimum along the melt-window floor to higher power."""

    def test_finds_risk_window_intersection(self, risk_result):
        cfg, res = risk_result
        assert res.feasible
        assert res.energy == pytest.approx(RISK_ENERGY, rel=0.03)
        assert res.energy > WINDOW_ENERGY * 1.05

    def test_risk_constraint_is_active(self, risk_result):
        cfg, res = risk_result
        assert 0.02 <= res.bpof_lhs <= (1.0 - cfg.alpha_t) + optimize.CONSTRAINT_TOL

    def test_zeta_is_the_exact_ratio_minimizer(self, risk_result, toy_bundle):
        cfg, res = risk_result
        rng = np.random.default_rng(cfg.seed)
        z = draw_material_samples(toy_bundle.input_bounds[2:], cfg.n_mc, rng)
        sigma = stress_max_samples(toy_bundle, res.d_star, z)
        bpof, zeta = risk.estimate_bpof_minform(sigma, cfg.tau)
        assert res.zeta_star == pytest.approx(zeta)
        assert res.bpof_lhs == pytest.approx(bpof, rel=1e-9)
        # exhaustive scan of candidate thresholds cannot beat it
        grid = np.linspace(sigma.min(), cfg.tau - 1e-9 * cfg.tau, 400)
        ratios = [
            np.maximum(sigma - g, 0.0).mean() / (cfg.tau - g) for g in grid
        ]
        assert res.bpof_lhs <= min(ratios) + 1e-12

    def test_buffered_ratio_is_unimodal_in_zeta(self, risk_result, toy_bundle):
        cfg, res = risk_result
        rng = np.random.default_rng(cfg.seed)
        z = draw_material_samples(toy_bundle.input_bounds[2:], cfg.n_mc, rng)
        sigma = stress_max_samples(toy_bundle, res.d_star, z)
        grid = np.linspace(sigma.min(), cfg.tau - 0.5, 200)
        vals = np.array(
            [np.maximum(sigma - g, 0.0).mean() / (cfg.tau - g) for g in grid]
        )
        signs = np.sign(np.diff(vals))
        signs = signs[signs != 0.0]
        assert np.count_nonzero(np.diff(signs) != 0.0) <= 1

    def test_fresh_sample_certificate(self, risk_result, toy_bundle):
        cfg, res = risk_result
        fresh = draw_material_samples(
            toy_bundle.input_bounds[2:], 4 * cfg.n_mc, np.random.default_rng(999)
        )
        lhs, t_hat = evaluate_constraints(
            res.d_star, res.zeta_star, toy_bundle, fresh, cfg
        )
        assert lhs <= (1.0 - cfg.alpha_t) + 0.01
        assert cfg.temp_window[0] - 2.0 <= t_hat <= cfg.temp_window[1] + 2.0

    def test_history_zeta_is_the_exact_minimizer_at_each_row(
        self, risk_result, toy_bundle
    ):
        cfg, res = risk_result
        rng = np.random.default_rng(cfg.seed)
        z = draw_material_samples(toy_bundle.input_bounds[2:], cfg.n_mc, rng)
        rows = np.random.default_rng(3).choice(res.history.shape[0], 12)
        for v, p, zeta, _, lhs, _ in res.history[rows]:
            sigma = stress_max_samples(toy_bundle, DesignPoint(v=v, P=p), z)
            assert (lhs, zeta) == risk.estimate_bpof_minform(sigma, cfg.tau)


class TestPofVersusBpof:
    def test_buffered_constraint_is_conservative(self, risk_result, toy_bundle):
        cfg_b, res_b = risk_result
        cfg_p = OptimizeConfig(
            tau=735.0,
            n_mc=4000,
            seed=7,
            constraint_kind="pof",
        )
        res_p = solve(toy_bundle, cfg_p, DesignPoint(v=500.0, P=160.0))
        assert res_p.feasible
        # same budget on a smaller quantity admits cheaper designs
        assert res_p.energy <= res_b.energy + 1e-3
        # and at the buffered optimum the plain frequency sits below
        rng = np.random.default_rng(cfg_b.seed)
        z = draw_material_samples(toy_bundle.input_bounds[2:], cfg_b.n_mc, rng)
        sigma = stress_max_samples(toy_bundle, res_b.d_star, z)
        assert np.mean(sigma > cfg_b.tau) <= res_b.bpof_lhs + 1e-12


class TestDeterminismAndRestarts:
    def test_same_seed_reproduces_everything(self, toy_bundle):
        cfg = OptimizeConfig(n_mc=2000, seed=21)
        a = solve(toy_bundle, cfg, DesignPoint(v=500.0, P=160.0))
        b = solve(toy_bundle, cfg, DesignPoint(v=500.0, P=160.0))
        assert a.d_star == b.d_star
        assert a.energy == b.energy
        assert np.array_equal(a.history, b.history)

    def test_seeds_agree_on_the_optimum_value(self, toy_bundle):
        energies = []
        for seed in (1, 2):
            cfg = OptimizeConfig(n_mc=2000, seed=seed)
            energies.append(
                solve(toy_bundle, cfg, DesignPoint(v=500.0, P=160.0)).energy
            )
        assert energies[0] == pytest.approx(energies[1], rel=0.05)

    def test_infeasible_start_recovers(self, toy_bundle):
        cfg = OptimizeConfig(n_mc=2000, seed=31)
        res = solve(toy_bundle, cfg, DesignPoint(v=1000.0, P=20.0))
        assert res.feasible
        assert res.energy == pytest.approx(WINDOW_ENERGY, rel=0.05)


class TestUnattainableWindow:
    def test_returns_least_infeasible_point(self, toy_bundle):
        cfg = OptimizeConfig(
            n_mc=1000,
            seed=4,
            temp_window=(2200.0, 2300.0),
        )
        res = solve(toy_bundle, cfg, DesignPoint(v=500.0, P=160.0))
        assert not res.feasible
        # best it can do is push toward the hottest corner (about 1804)
        assert res.t_max_hat > 1770.0
        (v_lo, v_hi), (p_lo, p_hi) = toy_bundle.input_bounds[:2]
        assert v_lo <= res.d_star.v <= v_hi
        assert p_lo <= res.d_star.P <= p_hi


def test_best_start_is_least_infeasible_when_none_is_feasible(k2_bundle, tmp_path):
    """With no feasible start, run_optimization's best record is the start of
    least total violation, by the rule that picks each start's own point;
    here the lowest-energy start, d0 = (600, 100), violates the most."""
    ocfg = OptimizeConfig(
        tau=6.0, temp_window=(40.0, 50.0), n_mc=2000, seed=7, constraint_kind="pof"
    )
    cfg = pipeline.PipelineConfig(optimize=ocfg, out_dir=str(tmp_path))
    results = pipeline.run_optimization(cfg, k2_bundle)
    assert not any(r.feasible for r in results)
    margins = [optimize._margins(ocfg, r.bpof_lhs, r.t_max_hat) for r in results]
    violation = [np.maximum(-m, 0.0).sum() for m in margins]
    doc = json.loads((tmp_path / "optimize.json").read_text(encoding="utf-8"))
    assert doc["best"] == doc["starts"][int(np.argmin(violation))]
    assert doc["best"]["d0"] == [500.0, 160.0]
    assert doc["best"]["energy"] > min(r.energy for r in results)


def test_infeasible_starts_stop_without_crawling(k2_bundle):
    """No design meets this melt window and risk budget: each start's line
    searches then stop after their halving budget instead of accepting tiny
    decreases deep down it, and the least total scaled violation among the
    four default starts is still reached."""
    cfg = OptimizeConfig(tau=9.0, temp_window=(6.0, 9.0), n_mc=2000, seed=7)
    row_max = optimize._frozen_row_max(k2_bundle, cfg)
    results = [
        solve(k2_bundle, cfg, DesignPoint(*d0), row_max)
        for d0 in pipeline.DEFAULT_STARTS
    ]
    assert not any(r.feasible for r in results)
    assert max(r.iterations for r in results) <= 500
    margins = [optimize._margins(cfg, r.bpof_lhs, r.t_max_hat) for r in results]
    violation = min(np.maximum(-m, 0.0).sum() for m in margins)
    assert violation == pytest.approx(0.2676968, rel=1e-6)


class TestUnconstrainedCorner:
    def test_box_corner_when_constraints_disabled(self, toy_bundle):
        cfg = OptimizeConfig(
            tau=np.inf,
            temp_window=(-np.inf, np.inf),
            n_mc=1000,
            seed=13,
        )
        res = solve(toy_bundle, cfg, DesignPoint(v=500.0, P=160.0))
        assert res.feasible
        assert res.energy == pytest.approx(0.04, rel=1e-3)
        assert res.d_star.v >= 995.0
        assert res.d_star.P <= 20.5
        assert res.bpof_lhs == 0.0


class TestSolverOptimumAndEvaluationCount:
    def test_reaches_the_same_optimum(self, toy_bundle, risk_result):
        cfg = OptimizeConfig(
            tau=735.0,
            n_mc=4000,
            seed=7,
        )
        res = solve(toy_bundle, cfg, DesignPoint(v=500.0, P=160.0))
        assert res.feasible
        assert res.energy == pytest.approx(RISK_ENERGY, rel=0.03)

    def test_one_surrogate_evaluation_per_point(self, toy_bundle, monkeypatch):
        # each feature of each side folds the design into its coefficients
        # once per evaluation
        calls = []
        shift = surrogate.shift_coefficients

        def counting(s, offset):
            calls.append(s)
            return shift(s, offset)

        monkeypatch.setattr(surrogate, "shift_coefficients", counting)
        cfg = OptimizeConfig(
            tau=735.0, n_mc=2000, seed=7
        )
        res = solve(toy_bundle, cfg, DesignPoint(v=500.0, P=160.0))
        k = len(toy_bundle.stress.features) + len(toy_bundle.temperature.features)
        assert len(calls) == k * res.history.shape[0]


class TestAgainstSlsqp:
    """The SQP reaches scipy's SLSQP energy on the same sample-average
    problem, with the melt floor, the risk row or both binding."""

    @pytest.mark.parametrize("kind", ["bpof", "pof"])
    @pytest.mark.parametrize(
        "bundle, tau, window",
        [
            ("toy_bundle", 825.0, (1650.0, 1815.0)),
            ("toy_bundle", 735.0, (1650.0, 1815.0)),
            ("k2_bundle", 12.0, (6.0, 9.0)),
        ],
    )
    @pytest.mark.parametrize("start", [(500.0, 160.0), (1000.0, 20.0)])
    def test_energy_matches_reference(self, request, bundle, tau, window, kind, start):
        b = request.getfixturevalue(bundle)
        cfg = OptimizeConfig(
            tau=tau, temp_window=window, n_mc=2000, seed=7, constraint_kind=kind
        )
        res = solve(b, cfg, DesignPoint(*start))
        assert res.feasible
        assert res.energy == pytest.approx(
            slsqp_solve(b, cfg, DesignPoint(*start)), rel=1e-3
        )
        assert res.iterations <= 40


def central_differences(fun, x, h=1e-6):
    """Central-difference Jacobian of fun at x, one column per coordinate."""
    return np.column_stack(
        [(fun(x + h * e) - fun(x - h * e)) / (2.0 * h) for e in np.eye(2)]
    )


# (bundle, tau, melt window): at most of JACOBIAN_POINTS bPOF lies strictly
# between 0 and 1, so the elastic risk row is live, and at some the melt
# window's lower edge is violated
JACOBIAN_CASES = [
    ("toy_bundle", 740.0, (1650.0, 1815.0)),
    ("k2_bundle", 12.0, (6.0, 9.0)),
    ("k3_bundle", 15.0, (6.0, 9.0)),
]
JACOBIAN_POINTS = ([0.1, 0.2], [-0.3, 0.5], [0.6, -0.4])  # normalized designs


def jacobian_state(b, tau, window, kind):
    cfg = OptimizeConfig(
        tau=tau, temp_window=window, n_mc=2000, seed=7, constraint_kind=kind
    )
    return cfg, optimize._SolveState(b, cfg, optimize._frozen_row_max(b, cfg))


class TestExactJacobian:
    """_SolveState.assess's Jacobian on the frozen draws, at interior
    designs away from kinks: the row max switching rows, or the order of
    the draws changing, within the difference step."""

    @pytest.mark.parametrize("kind", ["bpof", "pof"])
    @pytest.mark.parametrize("bundle, tau, window", JACOBIAN_CASES)
    def test_matches_central_differences(self, request, bundle, tau, window, kind):
        cfg, state = jacobian_state(request.getfixturevalue(bundle), tau, window, kind)

        def main(x):  # the energy and the solver's rows
            e, rows, _ = state.assess(x)
            return np.append(e, rows)

        def elastic(x):  # the energy and _margins itself, risk row bPOF's or POF's
            state.assess(x)
            _, _, _, e, lhs, t_hat = state.history[-1]
            return np.append(e, optimize._margins(cfg, lhs, t_hat))

        # pof's risk row takes its neighbours' gradients too (see below); on
        # the toy bundle every draw's stress has the same gradient
        rows = [0, 2, 3] if kind == "pof" and bundle != "toy_bundle" else [0, 1, 2, 3]
        for x in map(np.array, JACOBIAN_POINTS):
            for fun, phase in ((main, False), (elastic, True)):
                want = central_differences(fun, x)[rows]
                got = state.assess(x, elastic=phase)[2][rows]
                np.testing.assert_allclose(
                    got, want, rtol=1e-6, atol=1e-9 * np.abs(want).max()
                )

    @pytest.mark.parametrize("kind", ["bpof", "pof"])
    @pytest.mark.parametrize("bundle, tau, window", JACOBIAN_CASES)
    def test_risk_row_is_the_tail_mean(self, request, bundle, tau, window, kind):
        """-tau times the risk row's gradient: in bpof mode the mean of the
        top k = n (1 - alpha) draws' gradients, the superquantile's (Hong &
        Liu 2009); in pof mode the mean over the draws within isqrt(k) ranks
        of the (k + 1)-th largest.  Each draw's gradient is a central
        difference of the full-row oracle."""
        b = request.getfixturevalue(bundle)
        cfg, state = jacobian_state(b, tau, window, kind)
        z = draw_material_samples(
            b.input_bounds[2:], cfg.n_mc, np.random.default_rng(cfg.seed)
        )
        (v_lo, v_hi), (p_lo, p_hi) = b.input_bounds[:2]

        def sigma(x):
            v = 0.5 * (v_lo + v_hi) + 0.5 * (v_hi - v_lo) * x[0]
            p = 0.5 * (p_lo + p_hi) + 0.5 * (p_hi - p_lo) * x[1]
            return row_max_samples(b, "stress", DesignPoint(v, p), z)

        k = round(cfg.n_mc * (1.0 - cfg.alpha_t))
        for x in map(np.array, JACOBIAN_POINTS):
            descending = np.argsort(sigma(x))[::-1]
            if kind == "bpof":
                picked = descending[:k]
            else:
                picked = descending[k - isqrt(k) : k + isqrt(k) + 1]
            want = central_differences(sigma, x)[picked].mean(axis=0)
            got = -cfg.tau * state.assess(x)[2][1]
            np.testing.assert_allclose(got, want, rtol=1e-6)


def test_iterations_count_every_evaluation(toy_bundle):
    cfg = OptimizeConfig(tau=735.0, n_mc=500, seed=7)
    res = solve(toy_bundle, cfg, DesignPoint(v=500.0, P=160.0))
    assert res.iterations == res.history.shape[0]


class TestFeasibilityRule:
    def test_arrays_match_scalars(self):
        cfg = OptimizeConfig()
        lo, hi = cfg.temp_window
        tol = optimize.CONSTRAINT_TOL * (hi - lo)
        lhs = np.array([0.0, 0.05, 0.05009, 0.06, 0.01, 0.01, 0.01])
        t_hat = np.array(
            [1700.0, lo - 0.9 * tol, lo, lo, lo - 1.1 * tol, hi + tol, hi + 2 * tol]
        )
        want = [True, True, True, False, False, True, False]
        assert optimize.is_feasible(cfg, lhs, t_hat).tolist() == want
        for a, t, w in zip(lhs, t_hat, want):
            assert bool(optimize.is_feasible(cfg, a, t)) is w


def sqp_rows(c, a, x):
    """The rows _sqp hands _qp: constraint rows c with Jacobian a, then the
    box rows 1 - x and 1 + x."""
    c, a = np.asarray(c, dtype=float), np.asarray(a, dtype=float).reshape(-1, 2)
    rows = np.concatenate([c, 1.0 - x, 1.0 + x])
    return rows, np.vstack([a, -np.eye(2), np.eye(2)])


def random_hessian(rng) -> np.ndarray:
    m = rng.normal(size=(2, 2))
    return m @ m.T + 0.1 * np.eye(2)


class TestQpAgainstPerSystem:
    """_qp's stacked KKT solves return exactly what one np.linalg.solve per
    active set returns (oracles.qp_per_system), None included."""

    def assert_same(self, hess, g, rows, jac):
        got, want = optimize._qp(hess, g, rows, jac), qp_per_system(hess, g, rows, jac)
        if want is None:
            assert got is None
            return None
        assert got is not None
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        return got

    def count_solves(self, monkeypatch):
        calls = []
        linalg_solve = np.linalg.solve

        def counting(a, b):
            calls.append(np.shape(a))
            return linalg_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        return calls

    def test_random_main_phase_cases(self):
        rng = np.random.default_rng(41)
        active = set()
        for _ in range(300):
            x = rng.uniform(-1.0, 1.0, size=2)
            c = rng.normal(scale=0.5, size=3)
            rows, jac = sqp_rows(c, rng.normal(size=(3, 2)), x)
            step = self.assert_same(random_hessian(rng), rng.normal(size=2), rows, jac)
            if step is not None:
                active.add(int(np.count_nonzero(step[1])))
        assert active == {0, 1, 2}  # each active set size wins somewhere

    def test_zero_rows(self):
        # a margin row clipped at 1 on both sides of its difference step
        # has a zero Jacobian row; so does one that is violated everywhere
        rng = np.random.default_rng(42)
        for c0 in (1.0, 0.0, -0.5):
            for _ in range(20):
                x = rng.uniform(-1.0, 1.0, size=2)
                a = rng.normal(size=(3, 2))
                a[1] = 0.0
                c = np.array([rng.normal(scale=0.5), c0, rng.normal(scale=0.5)])
                rows, jac = sqp_rows(c, a, x)
                self.assert_same(random_hessian(rng), rng.normal(size=2), rows, jac)

    @pytest.mark.parametrize(
        "g, a, d_want, lam_want",
        [
            # the one-row candidates of rows 0 and 1 tie
            ([1.0, 0.0], [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]], [-0.5, 0.0], [0.5, 0.0, 0.0]),
            # the two-row candidates of rows (0, 2) and (1, 2) tie
            ([1.0, 1.0], [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [-0.5, -0.5], [0.5, 0.0, 0.5]),
        ],
    )
    def test_equal_rows_tie_to_the_first(self, g, a, d_want, lam_want):
        # rows 0 and 1 are the same row, so the candidates that differ only
        # in which of them is active have the same d and value; the first
        # in candidate order wins and carries the multiplier
        rows, jac = sqp_rows([0.5, 0.5, 0.5], a, np.zeros(2))
        d, lam = self.assert_same(np.eye(2), np.array(g), rows, jac)
        assert np.array_equal(d, d_want)
        assert np.array_equal(lam, lam_want + [0.0] * 4)

    def test_equal_and_opposite_rows(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, size=2)
            a = rng.normal(size=(3, 2))
            c = rng.normal(scale=0.5, size=3)
            a[1] = a[0] if rng.uniform() < 0.5 else -a[0]
            a[2] = rng.choice([-1.0, 1.0]) * np.eye(2)[rng.integers(2)]  # a box row
            rows, jac = sqp_rows(c, a, x)
            self.assert_same(random_hessian(rng), rng.normal(size=2), rows, jac)

    def test_elastic_phase_box_rows_only(self):
        rng = np.random.default_rng(44)
        for x in [rng.uniform(-1.0, 1.0, size=2) for _ in range(50)] + [
            np.array([1.0, -1.0]),
            np.array([-1.0, 0.25]),
        ]:
            rows, jac = sqp_rows([], [], x)
            assert rows.size == 4
            self.assert_same(random_hessian(rng), rng.normal(scale=3.0, size=2), rows, jac)

    @pytest.mark.parametrize(
        "c, a",
        [
            ([-0.5], [[0.0, 0.0]]),  # a violated row no step can change
            ([-1.0, -1.0], [[1.0, 0.0], [-1.0, 0.0]]),  # d_v >= 1 and d_v <= -1
            ([-3.0], [[1.0, 0.0]]),  # only past the box edge
        ],
    )
    def test_infeasible_linearization(self, c, a):
        rows, jac = sqp_rows(c, a, np.zeros(2))
        assert self.assert_same(np.eye(2), np.ones(2), rows, jac) is None

    def test_one_stacked_solve_per_active_set_size(self, monkeypatch):
        # the box rows come in opposite pairs, so the two-row stack holds
        # exactly singular sets unless they are left out
        rng = np.random.default_rng(45)
        rows, jac = sqp_rows(rng.normal(size=3), rng.normal(size=(3, 2)), np.zeros(2))
        calls = self.count_solves(monkeypatch)
        optimize._qp(random_hessian(rng), rng.normal(size=2), rows, jac)
        assert calls == [(1, 2, 2), (7, 3, 3), (21 - 2, 4, 4)]

    def test_other_exact_singularity_solves_one_at_a_time(self, monkeypatch):
        # (1, 2) and (2, 4) are neither equal nor opposite, but LAPACK's
        # elimination of one by the other leaves an exact zero pivot
        rows, jac = sqp_rows([0.25, 0.5, 1.0], [[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]], np.zeros(2))
        calls = self.count_solves(monkeypatch)
        step = self.assert_same(np.eye(2), np.array([1.0, 1.0]), rows, jac)
        ours = calls[: len(calls) - (1 + 7 + comb(7, 2))]  # the oracle's come last
        # row 2 is zero and the box rows pair off, leaving 21 - 6 - 2 pairs
        stacked = [(1, 2, 2), (6, 3, 3), (13, 4, 4)]
        assert ours == stacked + [(4, 4)] * stacked[2][0]
        assert step is not None


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha_t": 0.0},
            {"alpha_t": 1.0},
            {"tau": 0.0},
            {"tau": -5.0},
            {"n_mc": 99},
            {"temp_window": (1800.0, 1700.0)},
            {"constraint_kind": "cvar"},
            {"scan_length": 0.0},
            {"seed": -1},
        ],
    )
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OptimizeConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, shown",
        [({"n_mc": 2e4}, "'optimize.n_mc' must be an integer, got 20000.0"),
         ({"seed": 1.5}, "'optimize.seed' must be an integer, got 1.5"),
         ({"seed": True}, "'optimize.seed' must be an integer, got True"),
         ({"n_mc": np.bool_(True)}, "'optimize.n_mc' must be an integer")],
        ids=["n_mc float", "seed float", "seed bool", "n_mc numpy bool"],
    )
    def test_counts_must_be_integers(self, kwargs, shown):
        # rejected on construction, not later inside numpy's sampling
        with pytest.raises(ValueError, match=re.escape(shown)):
            OptimizeConfig(**kwargs)

    def test_numpy_integers_stored_as_python_ints(self):
        cfg = OptimizeConfig(n_mc=np.int32(2000), seed=np.int64(3))
        assert (cfg.n_mc, cfg.seed) == (2000, 3)
        assert type(cfg.n_mc) is int and type(cfg.seed) is int

    def test_defaults_are_valid(self):
        cfg = OptimizeConfig()
        assert cfg.alpha_t == 0.95
        assert cfg.tau == 825.0
        assert cfg.temp_window == (1650.0, pytest.approx(1815.0))

    def test_start_point_outside_bounds_rejected(self, toy_bundle):
        with pytest.raises(ValueError, match="initial"):
            solve(toy_bundle, OptimizeConfig(), DesignPoint(v=50.0, P=100.0))

    def test_non_finite_start_rejected(self, toy_bundle):
        with pytest.raises(ValueError, match="initial"):
            solve(toy_bundle, OptimizeConfig(), DesignPoint(v=np.nan, P=100.0))


class TestDesignBox:
    """The solver searches the bundle's own design box."""

    @pytest.fixture(scope="class")
    def narrow_bundle(self, toy_bundle):
        bounds = toy_bundle.input_bounds.copy()
        bounds[0] = (200.0, 900.0)
        return replace(toy_bundle, input_bounds=bounds)

    def test_history_stays_inside_the_bundle_box(self, narrow_bundle):
        cfg = OptimizeConfig(
            tau=np.inf,
            temp_window=(-np.inf, np.inf),
            n_mc=500,
            seed=13,
        )
        res = solve(narrow_bundle, cfg, DesignPoint(v=500.0, P=160.0))
        (v_lo, v_hi), (p_lo, p_hi) = narrow_bundle.input_bounds[:2]
        v, p = res.history[:, 0], res.history[:, 1]
        assert np.all((v_lo <= v) & (v <= v_hi))
        assert np.all((p_lo <= p) & (p <= p_hi))
        # the lowest energy sits at the fast, low-power corner of this box
        assert res.d_star.v == pytest.approx(900.0, rel=1e-3)

    def test_start_outside_the_bundle_box_rejected(self, narrow_bundle):
        with pytest.raises(ValueError, match="initial"):
            solve(narrow_bundle, OptimizeConfig(), DesignPoint(v=150.0, P=100.0))
