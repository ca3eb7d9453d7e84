import math

import mpmath
import numpy as np
import pytest

from fourierhybrid import (
    AdaptiveParams,
    FilterConfig,
    adaptive_params,
    filter_sigma,
    frequency_weights,
    hdaf_kernel,
    hermite_polynomial,
    jittered_frequencies,
    mollifier_periodized,
    tail_bound_l2,
    tail_bound_linf,
    uniform_frequencies,
)
from fourierhybrid.filters import ALPHA_KAPPA_LIMIT, sigma_weight_matrix
from fourierhybrid.oracles import sigma_reference


def sigma_mpmath(p: int, gamma: float, w: float) -> float:
    """50-digit reference of exp(-z) sum_{l<=p} z^l/l!."""
    with mpmath.workdps(50):
        z = mpmath.mpf(w) ** 2 * mpmath.mpf(gamma) ** 2 / 2
        total = mpmath.fsum(z**l / mpmath.factorial(l) for l in range(p + 1))
        return float(mpmath.e**-z * total)


class TestHermite:
    def test_low_orders(self):
        assert hermite_polynomial(0, 17.3) == 1.0
        assert hermite_polynomial(2, 3.0) == 34.0
        assert hermite_polynomial(4, 1.0) == -20.0

    def test_matches_numpy_basis(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            order = int(rng.integers(0, 31))
            t = float(rng.uniform(-3, 3))
            expect = np.polynomial.hermite.hermval(t, np.eye(order + 1)[order])
            assert hermite_polynomial(order, t) == pytest.approx(expect, rel=1e-10)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            hermite_polynomial(401, 0.0)
        with pytest.raises(ValueError):
            hermite_polynomial(-1, 0.0)


class TestKernel:
    def test_p0_is_scaled_gaussian(self):
        for x, gamma in ((0.0, 1.0), (0.7, 2.0), (-1.3, 0.5)):
            expect = math.exp(-(x**2) / (2 * gamma**2)) / gamma
            assert hdaf_kernel(0, gamma, x) == pytest.approx(expect, rel=1e-14)

    def test_center_values(self):
        # H_2(0) = -2 and H_4(0) = 12 give 1 + 1/2 and 1 + 1/2 + 3/8
        assert hdaf_kernel(1, 1.0, 0.0) == pytest.approx(1.5, rel=1e-14)
        assert hdaf_kernel(2, 2.0, 0.0) == pytest.approx(15.0 / 16.0, rel=1e-14)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            hdaf_kernel(1, 0.0, 0.5)


class TestSigma:
    def test_unit_at_origin(self):
        for p in (0, 1, 7):
            for gamma in (0.5, 3.0, 20.0):
                assert filter_sigma(p, gamma, 0.0) == 1.0

    def test_p0_is_gaussian(self):
        assert filter_sigma(0, 2.0, 0.3) == pytest.approx(math.exp(-0.18), rel=1e-15)

    def test_p1_spot_value(self):
        assert filter_sigma(1, 1.0, 1.0) == pytest.approx(
            math.exp(-0.5) * 1.5, rel=1e-15
        )

    def test_gamma_zero_is_identity(self):
        assert filter_sigma(5, 0.0, 123.0) == 1.0

    def test_matches_high_precision_sum(self):
        # z = 10 via w*gamma = sqrt(20)
        w, gamma = 1.0, math.sqrt(20.0)
        assert filter_sigma(50, gamma, w) == pytest.approx(
            sigma_mpmath(50, gamma, w), rel=1e-14
        )

    def test_log_space_branch(self):
        # z = 800 exceeds the direct-evaluation range
        w, gamma = 1.0, 40.0
        assert filter_sigma(3, gamma, w) == pytest.approx(
            sigma_mpmath(3, gamma, w), rel=1e-12
        )
        assert filter_sigma(900, gamma, w) == pytest.approx(
            sigma_mpmath(900, gamma, w), rel=1e-12
        )

    @staticmethod
    def frequency_grid(p: int, gamma: float = 2.0) -> np.ndarray:
        # sample z = (w gamma)^2/2 around p, where the derivative
        # -exp(-z) z^p / p! is large enough to be representable
        zs = np.linspace(0.5 * p + 0.25, p + 15.0, 100)
        return np.sqrt(2.0 * zs) / gamma

    def test_strictly_decreasing_in_frequency(self):
        for p in range(20):
            vals = np.array([filter_sigma(p, 2.0, w) for w in self.frequency_grid(p)])
            assert np.all(np.diff(vals) < 0)

    def test_nondecreasing_in_p_with_remainder_bound(self):
        for p in range(20):
            for w in self.frequency_grid(p):
                z = (w * 2.0) ** 2 / 2
                lo = filter_sigma(p, 2.0, w)
                hi = filter_sigma(p + 1, 2.0, w)
                assert hi >= lo - 1e-14
                if p + 2 > z:
                    remainder = (
                        math.exp(-z) * z ** (p + 1) / math.factorial(p + 1)
                        / (1.0 - z / (p + 2))
                    )
                    assert 1.0 - lo <= remainder + 1e-13

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            filter_sigma(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            filter_sigma(1, -1.0, 1.0)


class TestAdaptiveParams:
    def test_spot_values(self):
        cfg = FilterConfig()
        f1_jumps = np.array([0.0, 0.5, 1.0])
        params = adaptive_params(0.25, 128, cfg, f1_jumps)
        assert params == AdaptiveParams(gamma=math.sqrt(32.0), p=2, d=0.25)
        params = adaptive_params(0.5, 512, cfg, np.array([0.0, 1.0]))
        assert params.gamma == 16.0
        assert params.p == 17

    def test_at_jump_degenerates(self):
        params = adaptive_params(0.5, 256, FilterConfig(p_floor=1), [0.0, 0.5, 1.0])
        assert params.gamma == 0.0
        assert params.p == 1
        assert params.d == 0.0

    def test_empty_jump_set_is_no_filter_mode(self):
        params = adaptive_params(0.3, 128, FilterConfig(), np.array([]))
        assert params.gamma == 0.0
        assert math.isinf(params.d)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            adaptive_params(1.5, 128, FilterConfig(), [0.0, 1.0])


class TestFilterConfig:
    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            FilterConfig(alpha=0.0)
        with pytest.raises(ValueError):
            FilterConfig(kappa=-1.0)
        with pytest.raises(ValueError):
            FilterConfig(p_floor=-1)

    def test_warns_outside_accuracy_regime(self):
        with pytest.warns(UserWarning, match="exponential-accuracy"):
            FilterConfig(alpha=1.0, kappa=ALPHA_KAPPA_LIMIT)

    def test_paper_constants_satisfy_regime(self):
        assert 1.0 * (1.0 / 15.0) < ALPHA_KAPPA_LIMIT


class TestFrequencyWeights:
    def test_identity_when_gamma_zero(self):
        freqs = uniform_frequencies(8)
        w = frequency_weights(freqs, AdaptiveParams(gamma=0.0, p=0, d=0.0))
        np.testing.assert_array_equal(w, np.ones(17))

    def test_band_edge_value(self):
        # lambda = m with gamma = sqrt(alpha d m): z = alpha d m / 2 = 16
        m = 128
        freqs = uniform_frequencies(m)
        params = adaptive_params(0.25, m, FilterConfig(), [0.0, 0.5, 1.0])
        w = frequency_weights(freqs, params)
        assert w[-1] == pytest.approx(math.exp(-16.0) * (1 + 16 + 128), rel=1e-12)

    def test_even_and_in_unit_interval(self):
        freqs = jittered_frequencies(32, seed=4)
        params = adaptive_params(0.4, 32, FilterConfig(), [0.0, 1.0])
        w = frequency_weights(freqs, params)
        assert np.all(w > 0) and np.all(w <= 1)
        direct = np.array(
            [filter_sigma(params.p, params.gamma, lam / 32) for lam in freqs.frequencies]
        )
        np.testing.assert_array_equal(w, direct)
        sym = np.array(
            [filter_sigma(params.p, params.gamma, -lam / 32) for lam in freqs.frequencies]
        )
        np.testing.assert_array_equal(direct, sym)
        # at m = 4096 the band edge has z > 700: scalar and vector paths
        # still share one kernel there (every 128th frequency)
        m = 4096
        freqs = jittered_frequencies(m, seed=4)
        params = adaptive_params(0.4, m, FilterConfig(), [0.0, 1.0])
        lams = freqs.frequencies[::128]
        w = frequency_weights(freqs, params)[::128]
        assert np.all(w >= 0) and np.all(w <= 1 + 1e-12)
        direct = np.array([filter_sigma(params.p, params.gamma, lam / m) for lam in lams])
        np.testing.assert_array_equal(w, direct)


def test_sigma_weight_matrix_matches_per_point_path():
    freqs = jittered_frequencies(16, seed=2)
    ps = np.array([0, 1, 3, 7])
    gammas = np.array([0.0, 1.0, 2.5, 4.0])
    matrix = sigma_weight_matrix(ps, gammas, freqs.frequencies, 16)
    for i in range(len(ps)):
        row = frequency_weights(freqs, AdaptiveParams(gamma=gammas[i], p=ps[i], d=0.0))
        np.testing.assert_allclose(matrix[i], row, rtol=1e-14)


@pytest.mark.parametrize("m, rtol", [(8192, 1e-12), (65536, 1e-11)])
def test_large_m_weights_finite_and_match_reference(m, rtol):
    # d = 0.5 puts z = (lambda/m)^2 gamma^2 / 2 up to m/4, far above 700,
    # where the direct series overflows while exp(-z) underflows
    d = 0.5
    freqs = jittered_frequencies(m, seed=11)
    params = adaptive_params(d, m, FilterConfig(), [0.0, 1.0])
    assert params.p == m // 30
    matrix = sigma_weight_matrix(
        np.array([params.p]), np.array([params.gamma]), freqs.frequencies, m
    )[0]
    w = frequency_weights(freqs, params)
    np.testing.assert_array_equal(matrix, w)
    assert np.all(np.isfinite(w))
    assert np.all(w >= 0) and np.all(w <= 1 + 1e-12)
    stride = -(-len(freqs) // 200)
    lams = freqs.frequencies[::stride]
    ref = np.array([sigma_reference(params.p, params.gamma, lam / m) for lam in lams])
    resolved = ref > 1e-280
    assert resolved.sum() > 50
    # at p = 2184 the series' log-terms reach ~4e4, so both the fsum oracle
    # and gammaincc carry a few 1e-12 relative error in the far tail (each
    # measured against mpmath); hence the wider tolerance at m = 65536
    np.testing.assert_allclose(w[::stride][resolved], ref[resolved], rtol=rtol, atol=0)


class TestTailBounds:
    def test_linf_spot_value(self):
        # z = 1 >= p = 1: bound = 2 * 10 * e^{-1} * 1
        value = tail_bound_linf(10, 10, 1, math.sqrt(2.0), 1.0)
        assert value == pytest.approx(20.0 / math.e, rel=1e-14)

    def test_p_zero_closed_form(self):
        n, m, gamma = 12, 10, 1.5
        z = (n * gamma) ** 2 / (2 * m**2)
        assert tail_bound_linf(n, m, 0, gamma, 2.0) == pytest.approx(
            4.0 * n * math.exp(-z), rel=1e-14
        )

    def test_l2_formula(self):
        n, m, p, gamma = 77, 128, 2, math.sqrt(32.0)
        z = (n * gamma) ** 2 / (2 * m**2)
        with mpmath.workdps(40):
            expect = float(
                mpmath.sqrt(2 * n) * mpmath.e**-z * mpmath.mpf(z) ** p / mpmath.factorial(p)
            )
        assert tail_bound_l2(n, m, p, gamma, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_hypothesis_violation_raises(self):
        with pytest.raises(ValueError, match="hypothesis"):
            tail_bound_linf(10, 100, 5, 1.0, 1.0)
        with pytest.raises(ValueError):
            tail_bound_l2(10, 10, 1, 0.0, 1.0)


class TestMollifier:
    def test_central_image_dominates(self):
        # width gamma/m tiny versus the period: images negligible
        value = mollifier_periodized(0, 2.0, 256, 0.0)
        assert value == pytest.approx(0.5, rel=1e-12)

    def test_periodicity(self):
        for x in (0.0, 0.123, 0.77):
            a = mollifier_periodized(2, 3.0, 64, x, period=1.0, j_truncation=40)
            b = mollifier_periodized(2, 3.0, 64, x + 1.0, period=1.0, j_truncation=40)
            assert a == pytest.approx(b, rel=1e-12)

    def test_period_integral_against_quadrature(self):
        from scipy.integrate import quad

        p, gamma, m = 1, 2.0, 32
        total, _ = quad(
            lambda x: mollifier_periodized(p, gamma, m, x), 0.0, 1.0,
            epsabs=1e-12, limit=200,
        )
        # integral over one period equals the full-line kernel integral
        direct, _ = quad(
            lambda u: hdaf_kernel(p, gamma, m * u), -0.5, 0.5,
            epsabs=1e-12, limit=200,
        )
        assert total == pytest.approx(direct, abs=1e-10)

    def test_period_validation(self):
        with pytest.raises(ValueError):
            mollifier_periodized(0, 1.0, 8, 0.0, period=0.0)
