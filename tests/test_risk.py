"""Risk estimator tests against brute-force and analytic oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    estimate_bpof_minform_scan,
    estimate_bpof_tail,
    estimate_quantile_sort,
)

from pbfopt import risk

# ---------------------------------------------------------------- oracles


def brute_force_bpof(values, tau, n_grid=1000):
    """Exhaustive scan of mean((g - zeta)^+) / (tau - zeta) over zeta < tau.

    Uses a uniform grid from the sample minimum up to tau, extended one
    span below the minimum, plus the distinct sample values themselves:
    the ratio is piecewise monotone with breakpoints at the samples, so
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


def uniform_quantile(alpha):
    return alpha


def uniform_cvar(alpha):
    return (1.0 + alpha) / 2.0


def exponential_quantile(alpha):
    return -np.log1p(-alpha)


def exponential_cvar(alpha):
    return exponential_quantile(alpha) + 1.0


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
sample_lists = st.lists(finite_floats, min_size=1, max_size=60)


# ---------------------------------------------------------------- quantile


class TestQuantile:
    def test_fifth_largest_of_ten(self):
        assert risk.estimate_quantile(range(1, 11), 0.5) == 6.0

    def test_high_level_returns_max(self):
        assert risk.estimate_quantile(range(1, 11), 0.9) == 10.0

    def test_uniform_analytic(self):
        rng = np.random.default_rng(42)
        draws = rng.uniform(size=100_000)
        est = risk.estimate_quantile(draws, 0.95)
        assert est == pytest.approx(uniform_quantile(0.95), abs=0.01)

    def test_exponential_analytic(self):
        rng = np.random.default_rng(7)
        draws = rng.exponential(size=100_000)
        est = risk.estimate_quantile(draws, 0.9)
        assert est == pytest.approx(exponential_quantile(0.9), abs=0.02)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            risk.estimate_quantile([1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="alpha"):
            risk.estimate_quantile([1.0, 2.0], 1.0)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="at least one"):
            risk.estimate_quantile([], 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            risk.estimate_quantile([1.0, np.nan], 0.5)

    def test_tied_samples_match_the_sort(self):
        # few distinct values, so the k-th largest sits inside a run of ties
        rng = np.random.default_rng(17)
        for m in (1, 2, 7, 100, 20_000):
            vals = rng.integers(0, 4, size=m).astype(float) * 0.5
            for alpha in (0.01, 0.5, 0.9, 0.95, 0.99):
                want = estimate_quantile_sort(vals, alpha)
                assert risk.estimate_quantile(vals, alpha) == want
        assert risk.estimate_quantile([3.0] * 9, 0.95) == 3.0

    @given(sample_lists, st.floats(min_value=0.01, max_value=0.99))
    def test_ordering_independent_and_bounded(self, vals, alpha):
        q = risk.estimate_quantile(vals, alpha)
        assert min(vals) <= q <= max(vals)
        assert risk.estimate_quantile(vals[::-1], alpha) == q

    @given(
        sample_lists,
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.125, max_value=8.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_affine_equivariance(self, vals, alpha, a, b):
        lhs = risk.estimate_quantile([a * v + b for v in vals], alpha)
        rhs = a * risk.estimate_quantile(vals, alpha) + b
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


# ----------------------------------------------------------- superquantile


class TestSuperquantile:
    def test_hand_evaluated_tail_mean(self):
        # Q = 6, excess mean = (1+2+3+4)/10, level 0.5 doubles it
        assert risk.estimate_superquantile(range(1, 11), 0.5) == pytest.approx(8.0)

    def test_level_zero_is_mean(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=57)
        assert risk.estimate_superquantile(vals, 0.0) == pytest.approx(
            float(np.mean(vals)), abs=1e-14
        )

    def test_uniform_analytic(self):
        rng = np.random.default_rng(11)
        draws = rng.uniform(size=100_000)
        est = risk.estimate_superquantile(draws, 0.95)
        assert est == pytest.approx(uniform_cvar(0.95), abs=0.01)

    def test_exponential_analytic(self):
        rng = np.random.default_rng(13)
        draws = rng.exponential(size=100_000)
        est = risk.estimate_superquantile(draws, 0.95)
        assert est == pytest.approx(exponential_cvar(0.95), abs=0.05)

    def test_rejects_level_one(self):
        with pytest.raises(ValueError, match="alpha"):
            risk.estimate_superquantile([1.0, 2.0], 1.0)

    @given(sample_lists, st.floats(min_value=0.01, max_value=0.99))
    def test_dominates_quantile(self, vals, alpha):
        sq = risk.estimate_superquantile(vals, alpha)
        assert sq >= risk.estimate_quantile(vals, alpha) - 1e-9
        assert sq <= max(vals) + 1e-9

    @given(sample_lists)
    def test_nondecreasing_in_alpha(self, vals):
        levels = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
        ests = [risk.estimate_superquantile(vals, a) for a in levels]
        for lo, hi in zip(ests, ests[1:]):
            assert hi >= lo - 1e-9 * max(1.0, abs(lo))


class TestBufferedSuperquantile:
    @pytest.mark.parametrize("alpha, expected", [(0.0, 2.0 + 1.0 / 3.0),
                                                 (0.5, 2.0 + 2.0 / 3.0)])
    def test_hand_evaluated_bound(self, alpha, expected):
        # the excess over zeta = 2 is (0, 0, 1), mean 1/3, over 1 - alpha
        assert risk.buffered_superquantile([1.0, 2.0, 3.0], 2.0, alpha) == pytest.approx(
            expected, rel=1e-15)

    @pytest.mark.parametrize("zeta, alpha, match", [
        (2.0, 1.5, "alpha"),  # would return 1.333, under zeta
        (2.0, 1.0, "alpha"),  # would divide by zero
        (2.0, -0.1, "alpha"),
        (2.0, math.nan, "alpha"),
        (math.nan, 0.5, "zeta"),
        (math.inf, 0.5, "zeta"),
        (-math.inf, 0.5, "zeta"),
    ])
    def test_rejects_bad_level_and_anchor(self, zeta, alpha, match):
        with pytest.raises(ValueError, match=match):
            risk.buffered_superquantile([1.0, 2.0, 3.0], zeta, alpha)


# --------------------------------------------------------------------- pof


class TestPof:
    def test_none_exceed_max(self):
        assert risk.estimate_pof(range(1, 11), 10.0) == 0.0

    def test_all_exceed_zero(self):
        assert risk.estimate_pof(range(1, 11), 0.0) == 1.0

    def test_half_exceed(self):
        assert risk.estimate_pof([0.0, 10.0], 6.0) == 0.5

    def test_ties_do_not_count(self):
        # strict exceedance: samples equal to tau are not failures
        assert risk.estimate_pof([5.0, 5.0, 7.0], 5.0) == pytest.approx(1 / 3)

    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError, match="tau must be finite"):
            risk.estimate_pof([1.0, 2.0, 3.0], np.nan)


# ------------------------------------------------------------------- bpof


class TestBpofMinform:
    def test_two_point_set(self):
        bpof, zeta = risk.estimate_bpof_minform([0.0, 10.0], 6.0)
        assert bpof == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert zeta == pytest.approx(0.0, abs=1e-12)

    def test_tau_at_max_is_zero(self):
        bpof, zeta = risk.estimate_bpof_minform([0.0, 10.0], 10.0)
        assert bpof == 0.0
        assert zeta <= 10.0

    def test_tau_at_mean_is_one(self):
        bpof, zeta = risk.estimate_bpof_minform([0.0, 10.0], 5.0)
        assert bpof == 1.0
        assert zeta < 5.0

    def test_tie_takes_smallest_zeta(self):
        # ratio is 0.6 on the whole plateau zeta in [4, 5]
        bpof, zeta = risk.estimate_bpof_minform(range(1, 11), 7.5)
        assert bpof == pytest.approx(0.6, abs=1e-12)
        assert zeta == pytest.approx(4.0, abs=1e-12)

    def test_all_equal_conventions(self):
        assert risk.estimate_bpof_minform([5.0, 5.0], 5.0)[0] == 1.0
        assert risk.estimate_bpof_minform([5.0, 5.0], 4.0)[0] == 1.0
        assert risk.estimate_bpof_minform([5.0, 5.0], 6.0)[0] == 0.0

    def test_tau_at_or_above_max_returns_before_sorting(self, monkeypatch):
        vals = np.random.default_rng(8).normal(size=500)
        gmax = float(vals.max())

        def no_sort(*args, **kwargs):
            raise AssertionError("the early exit should not sort")

        monkeypatch.setattr(risk.np, "sort", no_sort)
        assert risk.estimate_bpof_minform(vals, gmax + 1.0) == (0.0, gmax)
        assert risk.estimate_bpof_minform(vals, gmax) == (0.0, gmax)

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            m = int(rng.integers(2, 51))
            vals = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.1, 4), size=m)
            lo, hi = float(np.mean(vals)), float(np.max(vals))
            if hi <= lo:
                continue
            tau = float(rng.uniform(lo, hi))
            bpof, zeta = risk.estimate_bpof_minform(vals, tau)
            assert bpof == pytest.approx(brute_force_bpof(vals, tau), abs=1e-6)
            assert zeta < tau

    def test_equals_the_search_scan_exactly(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            # few distinct values, so most sets carry ties
            m = int(rng.integers(2, 80))
            vals = rng.integers(-6, 7, size=m) * rng.uniform(0.1, 3.0)
            tau = float(rng.uniform(vals.min() - 1.0, vals.max() + 1.0))
            got = risk.estimate_bpof_minform(vals, tau)
            assert got == estimate_bpof_minform_scan(vals, tau)
        vals = np.random.default_rng(16).normal(600.0, 10.0, size=20000)
        for tau in (610.0, 625.0, 825.0):
            got = risk.estimate_bpof_minform(vals, tau)
            assert got == estimate_bpof_minform_scan(vals, tau)

    @given(sample_lists, finite_floats)
    @example([22.0, -23.0, -3.9997639996858037e-308], 0.0)
    def test_bounds_and_pof_dominance(self, vals, tau):
        bpof, zeta = risk.estimate_bpof_minform(vals, tau)
        assert 0.0 <= bpof <= 1.0
        assert zeta <= tau
        assert bpof >= risk.estimate_pof(vals, tau) - 1e-12

    def test_candidate_just_below_tau_does_not_warn(self):
        # its ratio overflows to inf, which never wins the minimum
        vals, tau = [22.0, -23.0, -3.9997639996858037e-308], 0.0
        with np.errstate(over="ignore"):  # the oracle's ratio overflows too
            want = estimate_bpof_minform_scan(vals, tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = risk.estimate_bpof_minform(vals, tau)
        assert got == want
        assert got == (pytest.approx(68.0 / 69.0), -23.0)

    def test_scale_equivariance_exact_for_binary_scales(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=37)
        tau = float(np.mean(vals) + 0.7 * (np.max(vals) - np.mean(vals)))
        base_bpof, _ = risk.estimate_bpof_minform(vals, tau)
        base_pof = risk.estimate_pof(vals, tau)
        for c in (2.0, 0.5, 4.0):
            bpof, _ = risk.estimate_bpof_minform(c * vals, c * tau)
            assert bpof == base_bpof
            assert risk.estimate_pof(c * vals, c * tau) == base_pof

    def test_purity(self):
        vals = np.array([3.0, 1.0, 2.0])
        copy = vals.copy()
        risk.estimate_bpof_minform(vals, 2.5)
        risk.estimate_quantile(vals, 0.5)
        assert np.array_equal(vals, copy)

    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError, match="tau must be finite"):
            risk.estimate_bpof_minform([1.0, 2.0, 3.0], np.nan)


class TestBpofTail:
    def test_hand_traced_loop(self):
        # running top-k means 10, 9.5, 9, 8.5, 8, 7.5 against threshold 8
        bpof, tau = estimate_bpof_tail(range(1, 11), 0.5)
        assert bpof == pytest.approx(0.5)
        assert tau == pytest.approx(8.0)

    def test_single_sample_saturates(self):
        bpof, tau = estimate_bpof_tail([5.0], 0.01)
        assert bpof == 1.0
        assert tau == 5.0

    def test_cross_check_with_minform_exponential(self):
        rng = np.random.default_rng(17)
        draws = rng.exponential(size=100_000)
        bpof, tau = estimate_bpof_tail(draws, 0.95)
        ref, _ = risk.estimate_bpof_minform(draws, tau)
        assert bpof == pytest.approx(ref, abs=0.01)

    def test_cross_check_exact_on_small_sets(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            m = int(rng.integers(3, 60))
            vals = rng.normal(size=m)
            alpha = float(rng.uniform(0.05, 0.95))
            bpof, tau = estimate_bpof_tail(vals, alpha)
            ref, _ = risk.estimate_bpof_minform(vals, tau)
            assert abs(bpof - ref) <= 1.0 / m + 1e-12

    @given(sample_lists, st.floats(min_value=0.01, max_value=0.99))
    def test_output_ranges(self, vals, alpha):
        bpof, tau = estimate_bpof_tail(vals, alpha)
        assert 0.0 <= bpof <= 1.0
        assert min(vals) - 1e-9 <= tau <= max(vals) + 1e-9


# ------------------------------------------------------------ convergence


class TestMonteCarloConvergence:
    def test_quantile_error_decays_like_root_m(self):
        # RMSE over 100 seeds at m vs 4m should shrink by about 2x
        m = 500
        alpha = 0.9
        errs_small, errs_large = [], []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            small = rng.uniform(size=m)
            large = rng.uniform(size=4 * m)
            errs_small.append(risk.estimate_quantile(small, alpha) - alpha)
            errs_large.append(risk.estimate_quantile(large, alpha) - alpha)
        rmse_small = float(np.sqrt(np.mean(np.square(errs_small))))
        rmse_large = float(np.sqrt(np.mean(np.square(errs_large))))
        assert 1.4 <= rmse_small / rmse_large <= 2.9


# ----------------------------------------------------- joint invariants


class TestEstimatorInvariants:
    @settings(max_examples=50)
    @given(sample_lists, st.floats(min_value=0.01, max_value=0.99), finite_floats)
    def test_estimators_agree_on_one_sample_set(self, vals, alpha, tau):
        bpof, zeta = risk.estimate_bpof_minform(vals, tau)
        pof = risk.estimate_pof(vals, tau)
        quantile = risk.estimate_quantile(vals, alpha)
        assert risk.estimate_superquantile(vals, alpha) >= quantile - 1e-9
        assert bpof >= pof - 1e-12
        assert 0.0 <= pof <= 1.0
        assert 0.0 <= bpof <= 1.0
        assert zeta <= tau
