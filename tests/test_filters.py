import contextlib
import math
import signal

import mpmath
import numpy as np
import pytest

from fourierhybrid import (
    FilterConfig,
    adaptive_param_arrays,
    filter_sigma,
    jittered_frequencies,
    tail_bound_l2,
    uniform_frequencies,
)
from fourierhybrid.filters import ALPHA_KAPPA_LIMIT, _sigma, sigma_weight_matrix
from fourierhybrid.oracles import sigma_reference


def sigma_mpmath(p: int, gamma: float, w: float) -> float:
    """50-digit reference of exp(-z) sum_{l<=p} z^l/l!."""
    with mpmath.workdps(50):
        z = mpmath.mpf(w) ** 2 * mpmath.mpf(gamma) ** 2 / 2
        total = mpmath.fsum(z**l / mpmath.factorial(l) for l in range(p + 1))
        return float(mpmath.e**-z * total)


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run for `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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

    def test_huge_p_stops_once_terms_cannot_change_a_bit(self):
        # past l > max z the terms only shrink, and once all are below 2^-54
        # the series stops: p = 10^12 gives the bits of p = 3000 at its cost.
        # A full series would take 10^12 passes; the limit turns that into a
        # failure after 5 s instead of a hang
        z = np.array([0.0, 1e-3, 3.0, 50.0, 100.0, 650.0])
        with time_limit(5.0):
            sigma = _sigma(np.array([[10**12], [3000], [40]]), np.tile(z, (3, 1)))
        np.testing.assert_array_equal(sigma[0], sigma[1])
        np.testing.assert_allclose(sigma[0], 1.0, rtol=1e-13)
        # a row with small p in the same block still ends at its own p
        np.testing.assert_array_equal(sigma[2], _sigma(40, z))

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
        with pytest.raises(ValueError, match="gamma=nan"):
            filter_sigma(2, math.nan, 0.5)
        with pytest.raises(ValueError, match="w=nan"):
            filter_sigma(2, 1.0, math.nan)


def point_params(x: float, m: int, jumps):
    """(gamma, p, d) of the default adaptive rule at the one point x, as Python numbers."""
    gamma, p, d = adaptive_param_arrays(np.array([x]), m, FilterConfig(), jumps)
    return float(gamma[0]), int(p[0]), float(d[0])


def row_weights(freqs, p: int, gamma: float) -> np.ndarray:
    """sigma_{p,gamma}(lambda_j / m) for every frequency: sigma_weight_matrix's one row."""
    return sigma_weight_matrix(np.array([p]), np.array([gamma]), freqs.frequencies, freqs.m)[0]


class TestAdaptiveParams:
    def test_spot_values(self):
        f1_jumps = np.array([0.0, 0.5, 1.0])
        assert point_params(0.25, 128, f1_jumps) == (math.sqrt(32.0), 2, 0.25)
        gamma, p, _ = point_params(0.5, 512, np.array([0.0, 1.0]))
        assert gamma == 16.0
        assert p == 17
        # on a jump and with no jumps the rule degenerates to the identity filter
        assert point_params(0.5, 128, f1_jumps) == (0.0, 0, 0.0)
        assert point_params(0.25, 128, np.array([])) == (0.0, 0, math.inf)

    def test_at_jump_degenerates(self):
        gamma, p, d = point_params(0.5, 256, [0.0, 0.5, 1.0])
        assert gamma == 0.0
        assert p == 0
        assert d == 0.0

    def test_empty_jump_set_is_no_filter_mode(self):
        gamma, p, d = point_params(0.3, 128, np.array([]))
        assert gamma == 0.0
        assert p == 0
        assert math.isinf(d)


class TestFilterConfig:
    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            FilterConfig(alpha=0.0)
        with pytest.raises(ValueError):
            FilterConfig(kappa=-1.0)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                FilterConfig(alpha=value)
            with pytest.raises(ValueError, match="finite"):
                FilterConfig(kappa=value)

    def test_warns_outside_accuracy_regime(self):
        with pytest.warns(UserWarning, match="exponential-accuracy") as record:
            FilterConfig(alpha=1.0, kappa=ALPHA_KAPPA_LIMIT)
        # the line that built the config, not the dataclass-generated __init__ ("<string>")
        assert record[0].filename == __file__

    def test_paper_constants_satisfy_regime(self):
        assert 1.0 * (1.0 / 15.0) < ALPHA_KAPPA_LIMIT


class TestFrequencyWeights:
    def test_identity_when_gamma_zero(self):
        freqs = uniform_frequencies(8)
        w = row_weights(freqs, 0, 0.0)
        np.testing.assert_array_equal(w, np.ones(17))

    def test_band_edge_value(self):
        # lambda = m with gamma = sqrt(alpha d m): z = alpha d m / 2 = 16
        m = 128
        freqs = uniform_frequencies(m)
        gamma, p, _ = point_params(0.25, m, [0.0, 0.5, 1.0])
        w = row_weights(freqs, p, gamma)
        assert w[-1] == pytest.approx(math.exp(-16.0) * (1 + 16 + 128), rel=1e-12)

    def test_even_and_in_unit_interval(self):
        freqs = jittered_frequencies(32, seed=4)
        gamma, p, _ = point_params(0.4, 32, [0.0, 1.0])
        w = row_weights(freqs, p, gamma)
        assert np.all(w > 0) and np.all(w <= 1)
        direct = np.array([filter_sigma(p, gamma, lam / 32) for lam in freqs.frequencies])
        np.testing.assert_array_equal(w, direct)
        sym = np.array([filter_sigma(p, gamma, -lam / 32) for lam in freqs.frequencies])
        np.testing.assert_array_equal(direct, sym)
        # at m = 4096 the band edge has z > 700: scalar and vector paths
        # still share one kernel there (every 128th frequency)
        m = 4096
        freqs = jittered_frequencies(m, seed=4)
        gamma, p, _ = point_params(0.4, m, [0.0, 1.0])
        lams = freqs.frequencies[::128]
        w = row_weights(freqs, p, gamma)[::128]
        assert np.all(w >= 0) and np.all(w <= 1 + 1e-12)
        direct = np.array([filter_sigma(p, gamma, lam / m) for lam in lams])
        np.testing.assert_array_equal(w, direct)


def test_sigma_weight_matrix_matches_per_point_path():
    # rows with smaller p share the Horner loop of the largest one; each
    # must match the same point's weights computed alone
    freqs = jittered_frequencies(16, seed=2)
    ps = np.array([0, 1, 3, 7])
    gammas = np.array([0.0, 1.0, 2.5, 4.0])
    matrix = sigma_weight_matrix(ps, gammas, freqs.frequencies, 16)
    for i in range(len(ps)):
        row = row_weights(freqs, ps[i], gammas[i])
        np.testing.assert_allclose(matrix[i], row, rtol=1e-14)


@pytest.mark.parametrize("m, rtol", [(8192, 1e-12), (65536, 1e-11)])
def test_large_m_weights_finite_and_match_reference(m, rtol):
    # d = 0.5 puts z = (lambda/m)^2 gamma^2 / 2 up to m/4, far above 700,
    # where the direct series overflows while exp(-z) underflows
    d = 0.5
    freqs = jittered_frequencies(m, seed=11)
    gamma, p, _ = point_params(d, m, [0.0, 1.0])
    assert p == m // 30
    matrix = row_weights(freqs, p, gamma)
    # the matrix path, which forms z in place, against the kernel on a 1-d z
    w = _sigma(p, 0.5 * (freqs.frequencies / m * gamma) ** 2)
    np.testing.assert_array_equal(matrix, w)
    assert np.all(np.isfinite(w))
    assert np.all(w >= 0) and np.all(w <= 1 + 1e-12)
    stride = -(-len(freqs) // 200)
    lams = freqs.frequencies[::stride]
    ref = np.array([sigma_reference(p, gamma, lam / m) for lam in lams])
    resolved = ref > 1e-280
    assert resolved.sum() > 50
    # at p = 2184 the series' log-terms reach ~4e4, so both the fsum oracle
    # and gammaincc carry a few 1e-12 relative error in the far tail (each
    # measured against mpmath); hence the wider tolerance at m = 65536
    np.testing.assert_allclose(w[::stride][resolved], ref[resolved], rtol=rtol, atol=0)


class TestTailBounds:
    def test_p_zero_closed_form(self):
        n, m, gamma = 12, 10, 1.5
        z = (n * gamma) ** 2 / (2 * m**2)
        assert tail_bound_l2(n, m, 0, gamma, 2.0) == pytest.approx(
            2.0 * math.sqrt(2 * n) * math.exp(-z), rel=1e-14
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
            tail_bound_l2(10, 100, 5, 1.0, 1.0)
        with pytest.raises(ValueError):
            tail_bound_l2(10, 10, 1, 0.0, 1.0)
        with pytest.raises(ValueError, match="gamma=nan"):
            tail_bound_l2(10, 10, 1, math.nan, 1.0)
        with pytest.raises(ValueError, match="f_sup=nan"):
            tail_bound_l2(10, 10, 1, 10.0, math.nan)

