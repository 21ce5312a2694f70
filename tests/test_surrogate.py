"""Tests for polynomial feature surrogates and bundle prediction."""

import math

import numpy as np
import pytest
from oracles import derivative_table, predict_row

from pbfopt import pipeline, reduction, surrogate, thermal


def horner_eval(coeffs_by_power, x):
    """Oracle: one-variable Horner evaluation from the highest power down."""
    acc = 0.0
    for c in reversed(coeffs_by_power):
        acc = acc * x + c
    return acc


def direct_eval(s, eta):
    """Oracle: exponent-by-exponent evaluation in pure Python."""
    exps = surrogate.monomial_exponents(s.n_vars, s.degree)
    return sum(
        c * math.prod(float(eta[i]) ** e[i] for i in range(s.n_vars))
        for c, e in zip(s.coefficients, exps)
    )


def physical_bounds():
    pairs = [thermal.DESIGN_BOUNDS["v"], thermal.DESIGN_BOUNDS["P"]]
    pairs += [thermal.RANDOM_INPUT_BOUNDS[k] for k in ("T0", "Y", "E", "rho")]
    return np.array(pairs, dtype=float)


class TestMonomialBasis:
    def test_counts_match_binomial(self):
        for n in (1, 2, 3):
            for d in range(7):
                exps = surrogate.monomial_exponents(n, d)
                assert len(exps) == math.comb(n + d, d)

    def test_graded_order_two_vars(self):
        assert surrogate.monomial_exponents(2, 2) == (
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        )

    def test_total_degrees_non_decreasing(self):
        exps = surrogate.monomial_exponents(3, 6)
        totals = [sum(e) for e in exps]
        assert totals == sorted(totals)


class TestFit:
    def test_exact_linear(self):
        eta = np.linspace(-1, 1, 30)
        s = surrogate.fit(eta, 2.0 + 3.0 * eta, 1)
        assert s.coefficients == pytest.approx([2.0, 3.0], abs=1e-10)
        assert s.r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_parabola(self):
        eta = np.linspace(-1, 1, 25)
        s = surrogate.fit(eta, eta**2, 2)
        assert s.coefficients == pytest.approx([0.0, 0.0, 1.0], abs=1e-10)
        assert s.r2 == pytest.approx(1.0, abs=1e-12)

    def test_two_variable_cross_term(self):
        rng = np.random.default_rng(61)
        etas = rng.uniform(-1, 1, size=(40, 2))
        vals = 1.5 - etas[:, 0] * etas[:, 1]
        s = surrogate.fit(etas, vals, 2)
        assert s.r2 == pytest.approx(1.0, abs=1e-12)
        assert surrogate.predict(s, [[0.5, -0.4]])[0] == pytest.approx(1.7, abs=1e-10)

    def test_r2_nested_degrees_monotone(self):
        rng = np.random.default_rng(62)
        eta = rng.uniform(-1, 1, size=120)
        vals = np.sin(2.0 * eta) + 0.1 * rng.normal(size=eta.size)
        scores = [surrogate.fit(eta, vals, d).r2 for d in range(1, 7)]
        assert np.all(np.diff(scores) >= -1e-10)

    def test_requires_more_samples_than_coefficients(self):
        eta = np.linspace(-1, 1, 3)
        with pytest.raises(ValueError, match="more than 3 samples"):
            surrogate.fit(eta, eta, 2)

    def test_rank_deficient_inputs_rejected(self):
        etas = np.zeros((30, 2))
        with pytest.raises(ValueError, match="rank-deficient"):
            surrogate.fit(etas, np.ones(30), 1)

    def test_degree_out_of_range(self):
        eta = np.linspace(-1, 1, 30)
        with pytest.raises(ValueError, match="degree"):
            surrogate.fit(eta, eta, 0)
        with pytest.raises(ValueError, match="degree"):
            surrogate.fit(eta, eta, 7)

    def test_rejects_four_active_variables(self):
        etas = np.random.default_rng(3).uniform(-1.0, 1.0, size=(40, 4))
        with pytest.raises(ValueError, match=r"active variables must be \(M, r\)"):
            surrogate.fit(etas, etas.sum(axis=1), 1)

    def test_rejects_a_value_count_mismatch(self):
        etas = np.random.default_rng(4).uniform(-1.0, 1.0, size=(40, 2))
        with pytest.raises(ValueError, match="one value per input row required"):
            surrogate.fit(etas, np.zeros(39), 1)


class TestR2Score:
    def test_perfect_and_mean_baseline(self):
        y = np.array([1.0, 2.0, 3.0])
        assert surrogate.r2_score(y, y) == 1.0
        assert surrogate.r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_constant_targets(self):
        y = np.full(4, 5.0)
        assert surrogate.r2_score(y, y) == 1.0
        assert surrogate.r2_score(y, np.array([5.0, 5.0, 5.0, 6.0])) == 0.0

    def test_matches_polyfit_residuals(self):
        rng = np.random.default_rng(63)
        eta = rng.uniform(-1, 1, size=50)
        vals = eta**3 + 0.2 * rng.normal(size=50)
        s = surrogate.fit(eta, vals, 1)
        coef = np.polynomial.polynomial.polyfit(eta, vals, 1)
        resid = vals - np.polynomial.polynomial.polyval(eta, coef)
        expected = 1.0 - np.sum(resid**2) / np.sum((vals - vals.mean()) ** 2)
        assert s.r2 == pytest.approx(expected, abs=1e-12)


class TestDegreeSelection:
    def test_cubic_data_picks_three(self):
        eta = np.linspace(-1, 1, 50)
        s = surrogate.fit_best_degree(eta, eta**3)
        assert s.degree == 3
        assert s.r2 == pytest.approx(1.0, abs=1e-12)

    def test_marginal_cubic_term_keeps_linear(self):
        eta = np.linspace(-1, 1, 50)
        s = surrogate.fit_best_degree(eta, eta + 0.005 * eta**3)
        assert s.degree == 1

    def test_sample_size_caps_degree(self):
        eta = np.linspace(-1, 1, 5)
        s = surrogate.fit_best_degree(eta, eta**5)
        assert s.degree <= 3

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="too few samples"):
            surrogate.fit_best_degree(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


class TestPredict:
    def test_degree_zero_constant(self):
        s = surrogate.PolySurrogate(
            n_vars=1, degree=0, coefficients=np.array([4.25]), r2=1.0
        )
        assert surrogate.predict(s, [[0.0]])[0] == 4.25
        assert surrogate.predict(s, [[0.9]])[0] == 4.25
        assert surrogate.predict(s, np.linspace(-1, 1, 7)) == pytest.approx(
            np.full(7, 4.25)
        )

    def test_training_points_reproduced_for_exact_model(self):
        eta = np.linspace(-1, 1, 20)
        vals = 1.0 - 0.5 * eta
        s = surrogate.fit(eta, vals, 1)
        assert surrogate.predict(s, eta) == pytest.approx(vals, abs=1e-8)

    def test_degree_five_matches_horner_oracle(self):
        rng = np.random.default_rng(64)
        eta = rng.uniform(-1, 1, size=40)
        vals = np.polynomial.polynomial.polyval(
            eta, [0.3, -1.2, 0.8, 2.0, -0.7, 0.15]
        )
        s = surrogate.fit(eta, vals, 5)
        for x in (-0.95, -0.3, 0.0, 0.51, 0.99):
            expected = horner_eval(list(s.coefficients), x)
            assert surrogate.predict(s, [[x]])[0] == pytest.approx(expected, abs=1e-12)

    def test_multivariate_matches_direct_oracle(self):
        rng = np.random.default_rng(65)
        etas = rng.uniform(-1, 1, size=(80, 3))
        vals = (
            0.5
            + etas[:, 0] * etas[:, 1]
            - 0.3 * etas[:, 2] ** 2
            + 0.1 * etas[:, 0] ** 3
        )
        s = surrogate.fit(etas, vals, 3)
        for eta in etas[:10]:
            assert surrogate.predict(s, eta[None, :])[0] == pytest.approx(
                direct_eval(s, eta), abs=1e-12
            )

    def test_dimension_mismatch(self):
        s = surrogate.PolySurrogate(
            n_vars=2, degree=1, coefficients=np.zeros(3), r2=0.0
        )
        with pytest.raises(ValueError, match="active variables"):
            surrogate.predict(s, np.zeros((4, 3)))

    def test_one_dimensional_input_is_one_variable(self):
        # a 1-D array holds n points in one variable, never one r-vector
        s = surrogate.PolySurrogate(
            n_vars=2, degree=1, coefficients=np.zeros(3), r2=0.0
        )
        with pytest.raises(ValueError, match="active variables"):
            surrogate.predict(s, np.array([0.5, -0.4]))

    @pytest.mark.parametrize("n_vars, degree", [(1, 5), (2, 3), (3, 2)])
    def test_fit_r2_is_score_of_predict(self, n_vars, degree):
        # fit scores the same design-matrix product that predict returns;
        # with seed 27 a separate one-variable Horner path differs in r2
        rng = np.random.default_rng(27)
        etas = rng.uniform(-1, 1, size=(40, n_vars))
        vals = np.sin(3.0 * etas).sum(axis=1) + 0.1 * rng.normal(size=40)
        s = surrogate.fit(etas, vals, degree)
        assert s.r2 == surrogate.r2_score(vals, surrogate.predict(s, etas))


class TestShiftCoefficients:
    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    @pytest.mark.parametrize("degree", range(7))
    def test_shifted_basis_product_is_predict_at_shifted_points(
        self, n_vars, degree
    ):
        rng = np.random.default_rng(100 * n_vars + degree)
        for _ in range(5):
            coeffs = rng.normal(size=math.comb(n_vars + degree, degree))
            s = surrogate.PolySurrogate(
                n_vars=n_vars, degree=degree, coefficients=coeffs, r2=0.0
            )
            eta = rng.uniform(-1, 1, size=(30, n_vars))
            shift = rng.uniform(-1.5, 1.5, size=n_vars)
            got = surrogate.basis(s, eta) @ surrogate.shift_coefficients(s, shift)
            want = surrogate.predict(s, eta + shift)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(coeffs).max()

    def test_zero_shift_keeps_the_coefficients(self):
        s = surrogate.PolySurrogate(
            n_vars=2, degree=3, coefficients=np.arange(10.0) - 4.5, r2=0.0
        )
        shifted = surrogate.shift_coefficients(s, np.zeros(2))
        assert np.array_equal(shifted, s.coefficients)

    def test_one_variable_hand_values(self):
        # 1 + 2x + 3x^2 at x + 1 is 6 + 8x + 3x^2
        s = surrogate.PolySurrogate(
            n_vars=1, degree=2, coefficients=np.array([1.0, 2.0, 3.0]), r2=0.0
        )
        assert surrogate.shift_coefficients(s, [1.0]).tolist() == [6.0, 8.0, 3.0]


class TestDerivativeCoefficients:
    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    @pytest.mark.parametrize("degree", range(7))
    def test_basis_product_is_the_central_difference(self, n_vars, degree):
        rng = np.random.default_rng(300 + 10 * n_vars + degree)
        coeffs = rng.normal(size=math.comb(n_vars + degree, degree))
        s = surrogate.PolySurrogate(
            n_vars=n_vars, degree=degree, coefficients=coeffs, r2=0.0
        )
        eta, h = rng.uniform(-1, 1, size=(30, n_vars)), 1e-6
        rows = surrogate.derivative_coefficients(s, coeffs)
        assert rows.shape == (n_vars, coeffs.size)
        for row, e in zip(rows, h * np.eye(n_vars)):
            up, down = surrogate.predict(s, eta + e), surrogate.predict(s, eta - e)
            want = (up - down) / (2 * h)
            got = surrogate.basis(s, eta) @ row
            assert np.abs(got - want).max() <= 1e-7 * np.abs(coeffs).max()

    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    @pytest.mark.parametrize("degree", range(7))
    def test_table_is_the_explicit_construction(self, n_vars, degree):
        got = surrogate._derivative_table(n_vars, degree)
        want = derivative_table(n_vars, degree)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_one_variable_hand_values(self):
        # d/dx (1 + 2x + 3x^2) = 2 + 6x
        s = surrogate.PolySurrogate(
            n_vars=1, degree=2, coefficients=np.array([1.0, 2.0, 3.0]), r2=0.0
        )
        assert surrogate.derivative_coefficients(s, s.coefficients).tolist() == [
            [2.0, 6.0, 0.0]
        ]


class TestPolySurrogateValidation:
    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError, match="coefficients"):
            surrogate.PolySurrogate(
                n_vars=2, degree=2, coefficients=np.zeros(5), r2=0.0
            )

    def test_r2_bound_enforced(self):
        with pytest.raises(ValueError, match="r2"):
            surrogate.PolySurrogate(
                n_vars=1, degree=1, coefficients=np.zeros(2), r2=1.5
            )

    @pytest.mark.parametrize("n_vars", [0, surrogate.MAX_ACTIVE_DIM + 1])
    def test_n_vars_range_enforced(self, n_vars):
        with pytest.raises(ValueError, match=r"n_vars must lie in \[1, 3\]"):
            surrogate.PolySurrogate(
                n_vars=n_vars, degree=1, coefficients=np.zeros(n_vars + 1), r2=0.0
            )

    @pytest.mark.parametrize("degree", [-1, surrogate.MAX_DEGREE + 1])
    def test_degree_range_enforced(self, degree):
        with pytest.raises(ValueError, match=r"degree must lie in \[0, 6\]"):
            surrogate.PolySurrogate(
                n_vars=1, degree=degree, coefficients=np.zeros(2), r2=0.0
            )

    def test_feature_arity_must_equal_subspace_dimension(self):
        subspace = reduction.ActiveSubspace(np.eye(6)[:, :2], np.ones(6), 2)
        poly = surrogate.PolySurrogate(n_vars=1, degree=1, coefficients=np.zeros(2), r2=0.0)
        with pytest.raises(ValueError, match="polynomial arity must equal"):
            surrogate.FeatureSurrogate(subspace, poly)


def build_ridge_bundle(m=60, noise=0.0, seed=71):
    """Assemble a bundle from synthetic rank-1 temperature and stress data.

    Rows are a smooth ridge coefficient times a fixed direction, so the
    single-feature surrogate chain should reproduce the rows nearly
    exactly; returns the bundle plus the raw inputs and matrices.
    """
    rng = np.random.default_rng(seed)
    bounds = physical_bounds()
    raw = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * rng.uniform(size=(m, 6))
    u = reduction.normalize_inputs(raw, bounds)
    w = np.array([0.8, -0.5, 0.2, 0.1, -0.05, 0.3])
    w /= np.linalg.norm(w)
    t = u @ w
    t_dir = np.linspace(1.0, 2.0, 31)
    s_dir = np.linspace(3.0, 1.0, 448)
    t_data = np.outer(2.0 + t + 0.25 * t**2, t_dir) + noise * rng.normal(
        size=(m, 31)
    )
    s_data = np.outer(1.0 + 0.8 * t + 0.2 * t**2, s_dir) + noise * rng.normal(
        size=(m, 448)
    )

    def side(data):
        dec = reduction.decompose(data)
        grads = reduction.estimate_gradients(u, dec.features[:, 0])
        sub = reduction.discover(grads)
        poly = surrogate.fit_best_degree(u @ sub.w1, dec.features[:, 0])
        return surrogate.OutputModel(
            dec.right_vectors[:, :1], (surrogate.FeatureSurrogate(sub, poly),)
        )

    bundle = surrogate.SurrogateBundle(
        input_bounds=bounds,
        temperature=side(t_data),
        stress=side(s_data),
        provenance={"seed": seed, "m": m},
    )
    return bundle, raw, t_data, s_data


class TestBundlePrediction:
    def test_rank_one_rows_reproduced_within_one_percent(self):
        bundle, raw, t_data, s_data = build_ridge_bundle()
        for i in (0, 13, 41):
            t_hat = predict_row(bundle, "temperature", raw[i])
            assert np.linalg.norm(t_hat - t_data[i]) <= 0.01 * np.linalg.norm(
                t_data[i]
            )
            s_hat = predict_row(bundle, "stress", raw[i])
            assert np.linalg.norm(s_hat - s_data[i]) <= 0.01 * np.linalg.norm(
                s_data[i]
            )

    def test_prediction_deterministic(self):
        bundle, raw, _, _ = build_ridge_bundle()
        a = predict_row(bundle, "temperature", raw[5])
        b = predict_row(bundle, "temperature", raw[5])
        assert np.array_equal(a, b)

    def test_out_of_bounds_input_rejected(self):
        bundle, _, _, _ = build_ridge_bundle()
        xi = bundle.input_bounds[:, 1] * 1.01
        with pytest.raises(ValueError, match="outside bounds"):
            predict_row(bundle, "temperature", xi)

    def test_zero_stress_training_predicts_zero(self):
        bundle, raw, t_data, _ = build_ridge_bundle()
        m = len(raw)
        zero_vec = np.zeros((448, 1))
        zero_poly = surrogate.PolySurrogate(
            n_vars=1, degree=1, coefficients=np.zeros(2), r2=1.0
        )
        zero_models = (
            surrogate.FeatureSurrogate(
                bundle.stress.features[0].subspace, zero_poly
            ),
        )
        b2 = surrogate.SurrogateBundle(
            input_bounds=bundle.input_bounds,
            temperature=bundle.temperature,
            stress=surrogate.OutputModel(zero_vec, zero_models),
        )
        assert np.array_equal(predict_row(b2, "stress", raw[3]), np.zeros(448))

    def test_full_rank_rows_within_fit_residual(self):
        # with every feature retained, per-row prediction error is bounded
        # by the stacked per-feature fit residuals
        rng = np.random.default_rng(72)
        bounds = physical_bounds()
        m = 80
        raw = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * rng.uniform(
            size=(m, 6)
        )
        u = reduction.normalize_inputs(raw, bounds)
        data = np.column_stack(
            [
                1.0 + u[:, 0],
                (u @ np.array([0.5, 0.5, 0, 0, 0, 0])) ** 2,
                2.0 - u[:, 1] + 0.05 * u[:, 0] ** 2,
            ]
        )
        dec = reduction.decompose(data)
        models = []
        total_res = 0.0
        for k in range(3):
            vals = dec.features[:, k]
            sub = reduction.discover(reduction.estimate_gradients(u, vals))
            poly = surrogate.fit_best_degree(u @ sub.w1, vals)
            models.append(surrogate.FeatureSurrogate(sub, poly))
            total_res += (1.0 - poly.r2) * np.sum((vals - vals.mean()) ** 2)
        output = surrogate.OutputModel(dec.right_vectors, tuple(models))
        bundle = surrogate.SurrogateBundle(
            input_bounds=bounds, temperature=output, stress=output
        )
        budget = np.sqrt(total_res) + 1e-9
        for i in range(0, m, 9):
            err = np.linalg.norm(
                predict_row(bundle, "temperature", raw[i]) - data[i]
            )
            assert err <= budget


class TestBundlePersistence:
    def test_roundtrip_exact(self, tmp_path):
        bundle, raw, _, _ = build_ridge_bundle()
        doc = surrogate.bundle_to_dict(bundle)
        path = pipeline.write_artifact(tmp_path, "bundle.json", doc)
        loaded = surrogate.load_bundle(path)
        assert np.array_equal(loaded.input_bounds, bundle.input_bounds)
        assert np.array_equal(
            loaded.temperature.right_vectors, bundle.temperature.right_vectors
        )
        assert loaded.provenance == bundle.provenance
        for side in ("temperature", "stress"):
            assert np.array_equal(
                predict_row(loaded, side, raw[7]), predict_row(bundle, side, raw[7])
            )

    def test_save_is_stable_text(self, tmp_path):
        bundle, _, _, _ = build_ridge_bundle()
        doc = surrogate.bundle_to_dict(bundle)
        p1 = pipeline.write_artifact(tmp_path, "a.json", doc)
        p2 = pipeline.write_artifact(tmp_path, "b.json", doc)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsupported_schema_rejected(self):
        bundle, _, _, _ = build_ridge_bundle()
        doc = surrogate.bundle_to_dict(bundle)
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            surrogate.bundle_from_dict(doc)

    def test_bundle_shape_validation(self):
        bundle, _, _, _ = build_ridge_bundle()
        with pytest.raises(ValueError, match="right-vector shape"):
            surrogate.OutputModel(
                bundle.temperature.right_vectors[:, :0],
                bundle.temperature.features,
            )


class TestOutputModel:
    def test_empty_feature_tuple_rejected(self):
        with pytest.raises(ValueError, match="at least one feature"):
            surrogate.OutputModel(np.zeros((31, 0)), ())

    def test_right_vector_columns_must_match_features(self):
        bundle, _, _, _ = build_ridge_bundle()
        features = bundle.stress.features
        for vectors in (np.zeros((448, 2)), np.zeros(448)):
            with pytest.raises(ValueError, match="right-vector shape"):
                surrogate.OutputModel(vectors, features)

    def test_bundle_rejects_subspace_of_other_dimension(self):
        bundle, _, _, _ = build_ridge_bundle()
        m = bundle.stress.features[0]
        sub = reduction.ActiveSubspace(
            w1=m.subspace.w1[:5], eigenvalues=m.subspace.eigenvalues[:5], r=1
        )
        short = surrogate.OutputModel(
            bundle.stress.right_vectors, (surrogate.FeatureSurrogate(sub, m.poly),)
        )
        with pytest.raises(ValueError, match="stress subspace dimension"):
            surrogate.SurrogateBundle(
                input_bounds=bundle.input_bounds,
                temperature=bundle.temperature,
                stress=short,
            )
