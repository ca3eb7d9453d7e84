import math

import numpy as np
import pytest

from fourierhybrid import (
    ChebyshevFit,
    chebyshev_fit,
    evaluate_fit,
    extrapolation_params_practical,
    extrapolation_params_theoretical,
)


class TestFit:
    def test_constant_data(self):
        xs = np.linspace(0.0, 1.0, 20)
        fit = chebyshev_fit(xs, np.full(20, 2.5), 4)
        assert fit.coefficients[0] == pytest.approx(2.5, abs=1e-12)
        assert np.max(np.abs(fit.coefficients[1:])) <= 1e-12

    def test_recovers_single_chebyshev_mode(self):
        xs = np.linspace(-2.0, 3.0, 41)
        t = 2 * (xs - xs.min()) / (xs.max() - xs.min()) - 1
        ys = np.polynomial.chebyshev.chebval(t, [0, 0, 0, 1])
        fit = chebyshev_fit(xs, ys, 5)
        assert fit.coefficients[3] == pytest.approx(1.0, abs=1e-10)
        others = np.delete(fit.coefficients, 3)
        assert np.max(np.abs(others)) <= 1e-10

    def test_exponential_fit_accuracy(self):
        xs = np.linspace(0.0, 1.0, 441)
        fit = chebyshev_fit(xs, np.exp(xs), 10)
        dense = np.linspace(0.0, 1.0, 2000)
        assert np.max(np.abs(evaluate_fit(fit, dense) - np.exp(dense))) <= 1e-9

    def test_exact_polynomial_reproduction(self):
        rng = np.random.default_rng(17)
        for degree in (0, 3, 8, 14, 20):
            coeffs = rng.uniform(-1, 1, degree + 1)
            n_nodes = 4 * max(degree, 1) ** 2 + 1
            xs = np.linspace(-1.0, 1.0, n_nodes)
            ys = np.polynomial.chebyshev.chebval(xs, coeffs)
            fit = chebyshev_fit(xs, ys, degree)
            np.testing.assert_allclose(fit.coefficients, coeffs, atol=1e-10)

    def test_residual_monotone_in_degree(self):
        xs = np.linspace(0.0, 1.0, 200)
        ys = np.exp(np.sin(3 * xs))
        residuals = [chebyshev_fit(xs, ys, M).residual_norm for M in range(12)]
        for lo, hi in zip(residuals[1:], residuals[:-1]):
            assert lo <= hi + 1e-12

    def test_least_squares_optimality_probe(self):
        xs = np.linspace(0.0, 1.0, 100)
        ys = np.sin(5 * xs) + 0.01 * np.cos(40 * xs)
        fit = chebyshev_fit(xs, ys, 6)
        t = fit.map_to_t(xs)
        vander = np.polynomial.chebyshev.chebvander(t, 6)
        base = np.sum((vander @ fit.coefficients - ys) ** 2)
        for k in range(7):
            for sign in (+1.0, -1.0):
                bumped = fit.coefficients.copy()
                bumped[k] += sign * 1e-6
                assert np.sum((vander @ bumped - ys) ** 2) >= base

    def test_validation(self):
        xs = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="degree"):
            chebyshev_fit(xs, xs, -1)
        with pytest.raises(ValueError, match="samples"):
            chebyshev_fit(xs, xs, 5)
        with pytest.raises(ValueError, match="distinct"):
            chebyshev_fit(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4), 2)
        with pytest.raises(ValueError):
            chebyshev_fit(xs, xs[:4], 2)


class TestEvaluate:
    def test_constant_everywhere(self):
        fit = ChebyshevFit(coefficients=np.array([3.25]), a=0.0, b=1.0, residual_norm=0.0)
        assert evaluate_fit(fit, -5.0) == 3.25
        assert evaluate_fit(fit, 17.0) == 3.25

    def test_linear_term_outside_domain(self):
        # T_1(t) = t; x mapped to t = 2 is outside [-1, 1]
        fit = ChebyshevFit(coefficients=np.array([0.0, 1.0]), a=-1.0, b=1.0,
                           residual_norm=0.0)
        assert evaluate_fit(fit, 2.0) == pytest.approx(2.0, abs=1e-14)

    def test_extrapolates_exponential_into_buffer(self):
        xs = np.linspace(0.0, 0.475, 401)
        fit = chebyshev_fit(xs, np.exp(xs), 10)
        assert abs(evaluate_fit(fit, 0.5) - math.exp(0.5)) <= 1e-6

    def test_extrapolation_error_grows_with_distance(self):
        for target in (np.exp, lambda x: 1.0 / (x + 2.0)):
            xs = np.linspace(0.0, 0.5, 401)
            fit = chebyshev_fit(xs, target(xs), 10)
            probes = np.linspace(0.5, 0.65, 16)
            errs = np.abs(evaluate_fit(fit, probes) - target(probes))
            assert np.all(np.diff(errs) > 0)

    def test_scalar_and_array_paths_agree(self):
        xs = np.linspace(0.0, 1.0, 50)
        fit = chebyshev_fit(xs, np.cos(xs), 5)
        probes = np.array([0.1, 0.9, 1.2])
        vec = evaluate_fit(fit, probes)
        for k, x in enumerate(probes):
            assert vec[k] == evaluate_fit(fit, float(x))


class TestParameterRules:
    def test_practical_rule(self):
        assert extrapolation_params_practical(128, 1.0 / 40.0) == (7, 196)
        assert extrapolation_params_practical(256, 1.0 / 40.0) == (10, 400)
        assert extrapolation_params_practical(512, 1.0 / 40.0) == (17, 1156)
        for delta in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"delta={delta}"):
                extrapolation_params_practical(64, delta)
        # each sign is checked, not only the product m*delta
        with pytest.raises(ValueError, match="m=-64"):
            extrapolation_params_practical(-64, -0.1)

    def test_theoretical_rule(self):
        assert extrapolation_params_theoretical(1.0, 1e-6, math.e) == (14, 784)
        assert extrapolation_params_theoretical(10.0, 1e-8, 2.0) == (30, 3600)

    def test_theoretical_rule_validation(self):
        with pytest.raises(ValueError):
            extrapolation_params_theoretical(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            extrapolation_params_theoretical(1.0, 1e-3, 1.0)
        with pytest.raises(ValueError, match="rho must exceed 1"):
            extrapolation_params_theoretical(1.0, 1e-3, math.nan)
        for q, eps in ((1.0, math.nan), (math.nan, 1e-3), (math.inf, 1e-3)):
            with pytest.raises(ValueError, match="need 0 < eps < Q"):
                extrapolation_params_theoretical(q, eps, 2.0)

