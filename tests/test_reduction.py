"""Tests for truncated-SVD feature extraction and active subspaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    design_matrix_row_major,
    fit_quadratic,
    quadratic_values,
    reconstruct,
    two_svd_reduction,
)

from pbfopt import reduction, thermal

# Reference error curves with known selection outcomes.  The first drops
# through a 5% threshold at k = 2; the second never reaches 5% and its
# marginal gains fade below 2% only after k = 5.
CURVE_STEEP = np.array(
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
CURVE_SHALLOW = np.array(
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


def lhs_sample(rng, m, n=6):
    """Stratified uniform sample on [-1, 1]^n, one point per stratum."""
    strata = rng.permuted(np.tile(np.arange(m), (n, 1)), axis=1).T
    return 2.0 * (strata + rng.uniform(size=(m, n))) / m - 1.0


def direct_error_curve(m, k_max):
    """Oracle: mean relative row error via explicit rank-k reconstruction."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    norms = np.linalg.norm(m, axis=1)
    out = []
    for k in range(1, k_max + 1):
        rec = (u[:, :k] * s[:k]) @ vt[:k]
        out.append(float(np.mean(np.linalg.norm(m - rec, axis=1) / norms)))
    return np.array(out)


def fd_gradient(fun, x, h=1e-6):
    """Oracle: central finite differences of a scalar function at x."""
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (fun(x + step)[0] - fun(x - step)[0]) / (2.0 * h)
    return g


def angle_deg(a, b):
    c = abs(float(np.dot(a, b))) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.degrees(np.arccos(min(c, 1.0))))


def physical_bounds():
    pairs = [thermal.DESIGN_BOUNDS["v"], thermal.DESIGN_BOUNDS["P"]]
    pairs += [thermal.RANDOM_INPUT_BOUNDS[k] for k in ("T0", "Y", "E", "rho")]
    return np.array(pairs, dtype=float)


class TestDecompose:
    def test_rank_one_matrix(self):
        rng = np.random.default_rng(3)
        w, p = rng.normal(size=8), rng.normal(size=5)
        a = np.outer(w, p)
        d = reduction.decompose(a, 1)
        assert d.singular_values[0] == pytest.approx(
            np.linalg.norm(w) * np.linalg.norm(p)
        )
        assert reconstruct(d) == pytest.approx(a, abs=1e-12)

    def test_full_rank_roundtrip(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(10, 6))
        rec = reconstruct(reduction.decompose(a, 6))
        rel = np.linalg.norm(a - rec) / np.linalg.norm(a)
        assert rel < 1e-10

    def test_feature_columns_uncorrelated(self):
        rng = np.random.default_rng(5)
        d = reduction.decompose(rng.normal(size=(20, 7)), 5)
        gram = d.features.T @ d.features
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-8 * np.diag(gram).max()

    def test_singular_values_sorted_positive(self):
        rng = np.random.default_rng(6)
        d = reduction.decompose(rng.normal(size=(12, 6)), 6)
        assert np.all(np.diff(d.singular_values) <= 0)
        assert np.all(d.singular_values > 0)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(7)
        d = reduction.decompose(rng.normal(size=(15, 9)), 6)
        for col in d.right_vectors.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_negating_data_keeps_right_vectors(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(9, 5))
        d_pos = reduction.decompose(a, 4)
        d_neg = reduction.decompose(-a, 4)
        assert d_neg.right_vectors == pytest.approx(d_pos.right_vectors, abs=1e-12)
        assert d_neg.features == pytest.approx(-d_pos.features, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(11, 8))
        d1 = reduction.decompose(a, 5)
        d2 = reduction.decompose(a, 5)
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.right_vectors, d2.right_vectors)

    def test_rejects_bad_arguments(self):
        a = np.eye(4)
        with pytest.raises(ValueError, match="k must"):
            reduction.decompose(a, 0)
        with pytest.raises(ValueError, match="k must"):
            reduction.decompose(a, 5)
        with pytest.raises(ValueError, match="2 rows"):
            reduction.decompose(np.ones((1, 4)), 1)
        with pytest.raises(ValueError, match="finite"):
            reduction.decompose(a * np.nan, 1)


class TestReconstructionError:
    def test_curve_matches_direct_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(12, 8))
        full = reduction.decompose(a, 8)
        assert reduction.error_curve(a, full, 8) == pytest.approx(
            direct_error_curve(a, 8), abs=1e-12
        )

    def test_curve_non_increasing(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = rng.normal(size=(15, 9))
            errs = reduction.error_curve(a, reduction.decompose(a, 9), 9)
            assert np.all(np.diff(errs) <= 1e-14)

    def test_rank_two_matrix_vanishes_at_two(self):
        rng = np.random.default_rng(13)
        u1, u2 = np.linalg.qr(rng.normal(size=(20, 2)))[0].T
        v1, v2 = np.linalg.qr(rng.normal(size=(6, 2)))[0].T
        a = 3.0 * np.outer(u1, v1) + np.outer(u2, v2)
        errs = reduction.error_curve(a, reduction.decompose(a, 6), 4)
        assert errs[0] > 1e-3
        assert errs[1] < 1e-12
        assert errs[3] < 1e-12

    def test_frobenius_residual_is_singular_value_tail(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(10, 7))
        s = np.linalg.svd(a, compute_uv=False)
        for k in (1, 3, 5):
            resid = a - reconstruct(reduction.decompose(a, k))
            assert np.linalg.norm(resid) == pytest.approx(
                np.sqrt(np.sum(s[k:] ** 2)), rel=1e-10
            )

    def test_zero_row_rejected(self):
        a = np.vstack([np.zeros(4), np.ones(4), np.arange(4.0)])
        with pytest.raises(ValueError, match="zero-norm"):
            reduction.error_curve(a, reduction.decompose(a, 3), 2)


def rank_three(rng):
    return rng.normal(size=(16, 3)) @ rng.normal(size=(3, 9))


def column_signs_flipped(rng):
    a = rng.normal(size=(14, 8)) + 1.0
    return a * np.where(rng.uniform(size=8) < 0.5, -1.0, 1.0)


class TestOneSvd:
    """The error curve and the kept features of a matrix come from its one
    full-rank decompose, bit for bit as two separate SVDs gave them."""

    @pytest.mark.parametrize(
        "make",
        [lambda rng: rng.normal(size=(12, 7)), rank_three, column_signs_flipped],
        ids=["full_rank", "rank_deficient", "sign_flipped"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_curve_and_kept_features_match_two_svds(self, make, seed):
        a = make(np.random.default_rng(seed))
        rank = min(a.shape)
        full = reduction.decompose(a, rank)
        for k in range(1, rank + 1):
            want_errs, want = two_svd_reduction(a, rank, k)
            assert np.array_equal(reduction.error_curve(a, full, rank), want_errs)
            assert np.array_equal(full.features[:, :k], want.features)
            assert np.array_equal(full.right_vectors[:, :k], want.right_vectors)
            assert np.array_equal(full.singular_values[:k], want.singular_values)

    def test_curve_rejects_a_truncated_decomposition(self):
        a = np.random.default_rng(3).normal(size=(10, 6))
        with pytest.raises(ValueError, match="full-rank"):
            reduction.error_curve(a, reduction.decompose(a, 5), 4)


class TestSelectFeatureCount:
    def test_threshold_rule_picks_two(self):
        assert reduction.select_feature_count(CURVE_STEEP, 0.05, 0.02) == 2

    def test_diminishing_returns_picks_five(self):
        assert reduction.select_feature_count(CURVE_SHALLOW, 0.05, 0.02) == 5

    def test_short_curve(self):
        assert reduction.select_feature_count([0.10, 0.045, 0.009], 0.05, 0.02) == 2

    def test_already_converged_curve(self):
        assert reduction.select_feature_count([0.0, 0.0, 0.0], 0.05, 0.02) == 1

    def test_threshold_equality_counts(self):
        assert reduction.select_feature_count([0.5, 0.05], 0.05, 0.02) == 2

    def test_flat_tail_without_threshold(self):
        assert reduction.select_feature_count([0.5, 0.499, 0.498], 0.01, 0.02) == 1

    def test_gains_persist_to_curve_end(self):
        assert reduction.select_feature_count([0.9, 0.5, 0.1], 0.01, 0.02) == 3

    def test_rejects_empty_and_increasing(self):
        with pytest.raises(ValueError, match="empty"):
            reduction.select_feature_count([], 0.05, 0.02)
        with pytest.raises(ValueError, match="non-increasing"):
            reduction.select_feature_count([0.1, 0.2], 0.05, 0.02)

    @given(
        raw=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=12
        ),
        threshold=st.floats(0.001, 0.999),
        min_gain=st.floats(0.001, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_selection_in_range_and_minimal(self, raw, threshold, min_gain):
        errs = np.sort(np.asarray(raw))[::-1]
        k = reduction.select_feature_count(errs, threshold, min_gain)
        assert 1 <= k <= errs.size
        # everything before a threshold-rule pick must sit above the threshold
        if errs[k - 1] <= threshold:
            assert np.all(errs[: k - 1] > threshold)


class TestNormalizeInputs:
    def test_midpoints_map_to_zero(self):
        b = physical_bounds()
        mid = b.mean(axis=1)
        assert mid[:2] == pytest.approx([550.0, 110.0])
        assert reduction.normalize_inputs(mid, b) == pytest.approx(
            np.zeros(6), abs=1e-12
        )

    def test_bound_edges(self):
        b = physical_bounds()
        assert reduction.normalize_inputs(b[:, 0], b) == pytest.approx(-np.ones(6))
        assert reduction.normalize_inputs(b[:, 1], b) == pytest.approx(np.ones(6))

    def test_batch_roundtrip(self):
        rng = np.random.default_rng(21)
        b = physical_bounds()
        x = b[:, 0] + (b[:, 1] - b[:, 0]) * rng.uniform(size=(40, 6))
        u = reduction.normalize_inputs(x, b)
        assert u.shape == (40, 6)
        assert np.abs(u).max() <= 1.0
        mid, half = b.mean(axis=1), 0.5 * (b[:, 1] - b[:, 0])
        assert mid + half * u == pytest.approx(x, rel=1e-12)

    def test_out_of_bounds_rejected(self):
        b = physical_bounds()
        bad = b.mean(axis=1)
        bad[0] = 99.0
        with pytest.raises(ValueError, match="outside bounds"):
            reduction.normalize_inputs(bad, b)

    def test_nan_input_rejected(self):
        b = physical_bounds()
        bad = b.mean(axis=1)
        bad[0] = np.nan
        with pytest.raises(ValueError, match="outside bounds"):
            reduction.normalize_inputs(bad, b)

    def test_tiny_excursion_clamps(self):
        b = physical_bounds()
        x = b[:, 1].copy()
        x[0] += 1e-10
        u = reduction.normalize_inputs(x, b)
        assert u[0] == 1.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="lower bound"):
            reduction.normalize_inputs(np.zeros(2), [[0.0, 1.0], [2.0, 2.0]])

    @pytest.mark.parametrize("edge", [np.nan, np.inf, -np.inf])
    def test_non_finite_bounds_rejected(self, edge):
        with pytest.raises(ValueError, match="finite"):
            reduction.check_bounds([[0.0, 1.0], [edge, 2.0]])


class TestQuadraticGradients:
    @pytest.fixture()
    def sample(self):
        return lhs_sample(np.random.default_rng(31), 200)

    def test_linear_function_exact(self, sample):
        g = reduction.estimate_gradients(sample, 3.0 * sample[:, 0])
        expected = np.zeros_like(sample)
        expected[:, 0] = 3.0
        assert g == pytest.approx(expected, abs=1e-8)

    def test_square_function_exact(self, sample):
        g = reduction.estimate_gradients(sample, sample[:, 0] ** 2)
        expected = np.zeros_like(sample)
        expected[:, 0] = 2.0 * sample[:, 0]
        assert g == pytest.approx(expected, abs=1e-8)

    def test_cross_term_exact(self, sample):
        vals = sample[:, 0] * sample[:, 1] + 4.0 * sample[:, 2]
        g = reduction.estimate_gradients(sample, vals)
        expected = np.zeros_like(sample)
        expected[:, 0] = sample[:, 1]
        expected[:, 1] = sample[:, 0]
        expected[:, 2] = 4.0
        assert g == pytest.approx(expected, abs=1e-8)

    def test_matches_finite_differences_of_fit(self, sample):
        rng = np.random.default_rng(32)
        w = rng.normal(size=6)
        vals = np.tanh(sample @ w)
        coeffs = fit_quadratic(sample, vals)
        for x, g in zip(sample[:20], reduction.estimate_gradients(sample, vals)):
            assert g == pytest.approx(
                fd_gradient(lambda y: quadratic_values(coeffs, y), x), abs=1e-8
            )

    def test_sine_gradient_recovery(self, sample):
        g = reduction.estimate_gradients(sample, np.sin(sample[:, 0]))
        expected = np.zeros_like(sample)
        expected[:, 0] = np.cos(sample[:, 0])
        rms = np.sqrt(np.mean((g - expected) ** 2))
        assert rms < 0.08
        assert np.abs(g[:, 1:]).mean() < 0.02

    def test_exponential_gradient_recovery(self, sample):
        g = reduction.estimate_gradients(sample, np.exp(sample[:, 1] / 2.0))
        expected = np.zeros_like(sample)
        expected[:, 1] = 0.5 * np.exp(sample[:, 1] / 2.0)
        rms = np.sqrt(np.mean((g - expected) ** 2))
        assert rms < 0.08

    def test_requires_enough_samples(self):
        rng = np.random.default_rng(33)
        x = rng.uniform(-1, 1, size=(27, 6))
        with pytest.raises(ValueError, match="at least 28"):
            reduction.estimate_gradients(x, x[:, 0])

    def test_rank_deficient_rejected(self):
        x = np.tile(np.linspace(-1, 1, 6), (40, 1))
        with pytest.raises(ValueError, match="rank-deficient"):
            reduction.estimate_gradients(x, np.ones(40))


class TestDiscover:
    def test_single_axis_direction(self):
        g = np.tile([1.0, 0, 0, 0, 0, 0], (50, 1))
        s = reduction.discover(g)
        assert s.r == 1
        assert s.w1[:, 0] == pytest.approx([1, 0, 0, 0, 0, 0], abs=1e-12)
        assert s.eigenvalues[0] == pytest.approx(1.0)
        assert s.eigenvalues[1:] == pytest.approx(np.zeros(5), abs=1e-12)

    def test_diagonal_direction(self):
        g = np.tile([1.0, 1.0, 0, 0, 0, 0], (30, 1))
        s = reduction.discover(g)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert s.r == 1
        assert s.w1[:, 0] == pytest.approx(
            [inv_sqrt2, inv_sqrt2, 0, 0, 0, 0], abs=1e-12
        )

    def test_two_block_covariance_oracle(self):
        # 6 rows along (3,4,0,...) and 4 along (0,0,5,...): the covariance
        # eigensystem is available in closed form.
        p = np.array([3.0, 4.0, 0, 0, 0, 0])
        q = np.array([0, 0, 5.0, 0, 0, 0])
        g = np.vstack([np.tile(p, (6, 1)), np.tile(q, (4, 1))])
        s = reduction.discover(g)
        assert s.eigenvalues == pytest.approx([15.0, 10.0, 0, 0, 0, 0], abs=1e-10)
        assert s.w1[:, 0] == pytest.approx([0.6, 0.8, 0, 0, 0, 0], abs=1e-12)
        assert s.r == 2

    def test_planted_ridge_with_weak_second_input(self):
        rng = np.random.default_rng(41)
        x = lhs_sample(rng, 200)
        g = reduction.estimate_gradients(x, x[:, 0] ** 2 + 0.01 * x[:, 1])
        s = reduction.discover(g)
        assert s.r == 1
        assert angle_deg(s.w1[:, 0], np.eye(6)[0]) < 5.0

    def test_two_symmetric_active_directions(self):
        rng = np.random.default_rng(42)
        x = lhs_sample(rng, 200)
        g = reduction.estimate_gradients(x, x[:, 0] ** 2 + x[:, 1] ** 2)
        s = reduction.discover(g)
        assert s.r == 2

    def test_random_ridge_recovery_trials(self):
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            w = rng.normal(size=6)
            w /= np.linalg.norm(w)
            x = lhs_sample(rng, 150)
            t = x @ w
            g = reduction.estimate_gradients(x, t**2 + np.sin(t))
            s = reduction.discover(g)
            if s.r == 1 and angle_deg(s.w1[:, 0], w) < 5.0:
                hits += 1
        assert hits >= 38

    def test_eigenvalue_shape_invariants(self):
        rng = np.random.default_rng(43)
        # all-zero gradients have no direction: one active variable, no spectrum
        for g in (rng.normal(size=(60, 6)), np.zeros((60, 6))):
            s = reduction.discover(g)
            assert s.eigenvalues.shape == (6,)
            assert np.all(np.diff(s.eigenvalues) <= 1e-12)
            assert np.all(s.eigenvalues >= 0)
            assert s.w1.T @ s.w1 == pytest.approx(np.eye(s.r), abs=1e-12)
        assert s.r == 1 and not s.eigenvalues.any()

    def test_deterministic_and_sign_fixed(self):
        rng = np.random.default_rng(44)
        g = rng.normal(size=(40, 6))
        s1 = reduction.discover(g)
        s2 = reduction.discover(-g)
        assert np.array_equal(s1.w1, s2.w1)
        for col in s1.w1.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_bad_gradients(self):
        with pytest.raises(ValueError, match="M >= 2"):
            reduction.discover(np.ones((1, 6)))
        with pytest.raises(ValueError, match="finite"):
            reduction.discover(np.full((5, 6), np.nan))


class TestActiveVars:
    def test_axis_projection(self):
        s = reduction.discover(np.tile([1.0, 0, 0, 0, 0, 0], (10, 1)))
        xi = np.array([0.3, -0.4, 0.9, 0.0, 0.1, -0.2])
        assert xi @ s.w1 == pytest.approx([0.3])

    def test_orthogonal_component_ignored(self):
        s = reduction.discover(np.tile([1.0, 1.0, 0, 0, 0, 0], (10, 1)))
        xi = np.array([0.2, 0.5, -0.3, 0.1, 0.0, 0.7])
        perp = np.array([1.0, -1.0, 0, 0, 0, 0]) / np.sqrt(2.0)
        assert (xi + 3.0 * perp) @ s.w1 == pytest.approx(xi @ s.w1)


class TestDesignMatrixLayout:
    """design_matrix is column-major and equal, bit for bit, to the same
    multiplies filled row-major."""

    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    @pytest.mark.parametrize("degree", range(7))
    def test_column_major_and_equal_to_row_major(self, n_vars, degree):
        rng = np.random.default_rng(100 * n_vars + degree)
        exps = reduction.monomial_exponents(n_vars, degree)
        for x in (
            rng.uniform(-1.0, 1.0, size=(257, n_vars)),
            rng.uniform(-1.0, 1.0, size=(1, n_vars)),
            rng.normal(size=(40, n_vars + 2))[::3, 1 : n_vars + 1],  # a strided view
        ):
            got = reduction.design_matrix(x, exps)
            assert got.shape == (x.shape[0], len(exps))
            assert got.flags.f_contiguous
            assert np.array_equal(got, design_matrix_row_major(x, exps))
