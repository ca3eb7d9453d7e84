import math
import tracemalloc

import numpy as np
import pytest

import fourierhybrid.sampling as sampling
from fourierhybrid import (
    FourierSamples,
    FrequencySet,
    PiecewiseFunction,
    QuadratureError,
    SmoothPiece,
    builtin_f1,
    builtin_f2,
    fourier_samples,
    jittered_frequencies,
    log_frequencies,
    piecewise_from_expressions,
    uniform_frequencies,
)
from fourierhybrid.oracles import projection_coefficient
from helpers import DATA_DIR, load_sample_table


def sample_at(f, lam: float) -> complex:
    """hat f(lam) by fourier_samples on the one-frequency set {lam}."""
    return fourier_samples(f, FrequencySet(m=0, frequencies=np.array([lam]))).values[0]


def exponential_mode(k: int):
    """Real/imag parts of e^{2 pi i k x} as a two-piece-free test function."""
    return piecewise_from_expressions([(0.0, 1.0, f"cos(2*pi*{k}*x)")]), \
        piecewise_from_expressions([(0.0, 1.0, f"sin(2*pi*{k}*x)")])


def mode_sample(k: int, lam: float) -> complex:
    """Quadrature of e^{2 pi i k x} e^{-2 pi i lam x} via its two real parts."""
    re, im = exponential_mode(k)
    return sample_at(re, lam) + 1j * sample_at(im, lam)


def closed_form_mode_integral(k: int, lam: float) -> complex:
    delta = k - lam
    if abs(delta) < 1e-12:
        return 1.0 + 0j
    return (np.exp(2j * np.pi * delta) - 1.0) / (2j * np.pi * delta)


class TestJittered:
    def test_offsets_within_quarter(self):
        freqs = jittered_frequencies(64, seed=1)
        j = np.arange(-64, 65)
        assert np.all(np.abs(freqs.frequencies - j) <= 0.25)

    def test_deterministic_for_fixed_seed(self):
        a = jittered_frequencies(64, seed=42)
        b = jittered_frequencies(64, seed=42)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)

    def test_different_seeds_differ(self):
        a = jittered_frequencies(64, seed=42)
        b = jittered_frequencies(64, seed=43)
        assert np.any(a.frequencies != b.frequencies)

    def test_pinned_leading_frequencies(self):
        # frozen realizations of the documented generator (PCG64)
        a = jittered_frequencies(64, seed=42)
        np.testing.assert_allclose(
            a.frequencies[:3],
            [-63.86302197572202, -63.03056078012398, -61.820701040044305],
            rtol=0, atol=0,
        )
        b = jittered_frequencies(64, seed=43)
        np.testing.assert_allclose(
            b.frequencies[:3],
            [-63.923850368649546, -63.2281123381805, -62.23998520656289],
            rtol=0, atol=0,
        )

    def test_mean_offset_near_zero(self):
        freqs = jittered_frequencies(10_000, seed=5)
        eps = freqs.frequencies - np.arange(-10_000, 10_001)
        assert abs(float(np.mean(eps))) < 0.01

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            jittered_frequencies(0, seed=1)


class TestLog:
    def test_first_and_last_entries(self):
        freqs = log_frequencies(256)
        m = 256
        assert freqs.frequencies[m] == 0.0
        assert freqs.frequencies[m + 1] == pytest.approx(math.exp(-0.001), rel=1e-15)
        assert freqs.frequencies[-1] == 256.0  # exponent telescopes to log m

    def test_antisymmetry_exact(self):
        freqs = log_frequencies(100)
        np.testing.assert_array_equal(
            freqs.frequencies, -freqs.frequencies[::-1]
        )

    def test_strictly_increasing(self):
        freqs = log_frequencies(333)
        assert np.all(np.diff(freqs.frequencies) > 0)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            log_frequencies(1)


def test_uniform_is_integer_grid():
    freqs = uniform_frequencies(8)
    np.testing.assert_array_equal(freqs.frequencies, np.arange(-8, 9))
    with pytest.raises(ValueError):
        uniform_frequencies(0)


def test_frequency_set_length_validation():
    with pytest.raises(ValueError):
        FrequencySet(m=3, frequencies=np.zeros(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frequencies_rejected(bad):
    freqs = np.arange(-3.0, 4.0)
    freqs[4] = bad
    with pytest.raises(ValueError, match=r"finite: frequency index 1 has lambda=-?(nan|inf)"):
        FrequencySet(m=3, frequencies=freqs)
    with pytest.raises(ValueError, match="finite"):
        sample_at(builtin_f1(), bad)


def test_fourier_sample_orthonormality():
    assert mode_sample(3, 3.0) == pytest.approx(1.0, abs=1e-12)


def test_fourier_sample_f1_at_zero():
    # integral of f1: 0 over the first piece, -1/pi over the second
    value = sample_at(builtin_f1(), 0.0)
    assert value == pytest.approx(-1.0 / math.pi, abs=1e-13)


def test_quadrature_matches_closed_form_over_random_pairs():
    rng = np.random.default_rng(11)
    m = 64
    for _ in range(100):
        k = int(rng.integers(-m, m + 1))
        lam = float(rng.uniform(-2 * m, 2 * m))
        got = mode_sample(k, lam)
        assert abs(got - closed_form_mode_integral(k, lam)) <= 1e-12


def f1_closed_form(lam: np.ndarray) -> np.ndarray:
    """hat f1(lam) from the sine pieces: e^{2 pi i delta x} over [a, b] in sinc form."""
    def segment(delta, a, b):
        return np.exp(1j * np.pi * delta * (a + b)) * (b - a) * np.sinc(delta * (b - a))

    return sum(
        (segment(k - lam, a, b) - segment(-k - lam, a, b)) / 2j
        for k, a, b in ((2, 0.0, 0.5), (1, 0.5, 1.0))
    )


@pytest.mark.parametrize(
    "freqs",
    [jittered_frequencies(512, seed=42), log_frequencies(512)],
    ids=["jittered", "log"],
)
def test_samples_match_closed_form_at_m512(freqs):
    samples = fourier_samples(builtin_f1(), freqs)
    assert np.max(np.abs(samples.values - f1_closed_form(freqs.frequencies))) <= 1e-12


def test_spherical_bessel_table_matches_scipy():
    from scipy.special import spherical_jn

    # [0, 130] covers both recurrences at every order, k pi are the zeros of
    # j_0 that uniform sets hit, the small arguments rescale Miller's sum, and
    # the tiniest would overflow it
    omega = np.concatenate([
        np.linspace(0.0, 130.0, 2601), np.pi * np.arange(1, 42),
        10.0 ** -np.arange(2, 9), [1e-160, 1e-307],
    ])
    for k in sampling._ORDERS:
        table = np.column_stack([sampling._bessel_sum(omega, unit) for unit in np.eye(k)])
        reference = spherical_jn(np.arange(k), omega[:, None])
        assert np.max(np.abs(table - reference)) <= 1e-14


def test_samples_match_closed_form_at_m65536():
    freqs = jittered_frequencies(65536, seed=42)
    samples = fourier_samples(builtin_f1(), freqs)
    assert np.max(np.abs(samples.values - f1_closed_form(freqs.frequencies))) <= 1e-12


def test_f2_at_m16384_matches_quadrature_oracle():
    freqs = jittered_frequencies(16384, seed=42)
    samples = fourier_samples(builtin_f2(), freqs)
    for j in range(0, len(freqs), 4096):
        oracle = projection_coefficient(builtin_f2(), freqs.frequencies[j])
        assert abs(samples.values[j] - oracle) <= 1e-12


@pytest.mark.parametrize("lam", [65535.8, 32767.6, -16383.86])
def test_full_width_piece_at_large_frequency(lam):
    w = -2j * np.pi * lam
    exact = (np.exp(w) * (w - 1.0) + 1.0) / w**2  # integral_0^1 x e^{w x} dx
    got = sample_at(piecewise_from_expressions([(0.0, 1.0, "x")]), lam)
    assert abs(got - exact) <= 1e-12 * abs(exact)


def test_fast_oscillating_piece_matches_closed_form():
    f = piecewise_from_expressions([(0.0, 1.0, "sin(2*pi*1000*x)")])
    lams = np.array([0.0, 3.7, 999.3, 1000.0, -1000.0, 5000.2, -20000.5])
    samples = fourier_samples(f, FrequencySet(m=3, frequencies=lams))
    for lam, got in zip(lams, samples.values):
        exact = (closed_form_mode_integral(1000, lam)
                 - closed_form_mode_integral(-1000, lam)) / 2j
        assert abs(got - exact) <= 1e-12


@pytest.mark.parametrize("power", [1.5, 2.5])
def test_weak_endpoint_singularity_resolves_by_halving(power):
    f = piecewise_from_expressions([(0.0, 1.0, f"x^{power}")])
    assert sample_at(f, 0.0) == pytest.approx(1.0 / (power + 1.0), abs=1e-14)


def test_samples_conjugate_symmetric_for_log_scheme():
    freqs = log_frequencies(16)
    samples = fourier_samples(builtin_f1(), freqs)
    m = 16
    for j in range(1, m + 1):
        assert samples.values[m + j] == pytest.approx(
            np.conj(samples.values[m - j]), abs=1e-12
        )


def test_constant_function_on_uniform_grid():
    f = piecewise_from_expressions([(0.0, 1.0, "1.0")])
    samples = fourier_samples(f, uniform_frequencies(4))
    values = samples.values
    assert values[4] == pytest.approx(1.0, abs=1e-13)
    off = np.delete(values, 4)
    assert np.max(np.abs(off)) < 1e-13


def test_frozen_fixture_f1_jittered_m32():
    lams, values = load_sample_table(DATA_DIR / "f1_jittered_m32_seed42.csv")
    freqs = jittered_frequencies(32, seed=42)
    np.testing.assert_allclose(lams, freqs.frequencies, rtol=0, atol=1e-15)
    recomputed = fourier_samples(builtin_f1(), freqs)
    assert np.max(np.abs(recomputed.values - values)) <= 1e-13


def test_frozen_fixture_f2_log_m512():
    lams, values = load_sample_table(DATA_DIR / "f2_log_m512.csv")
    freqs = log_frequencies(512)
    np.testing.assert_array_equal(lams, freqs.frequencies)
    recomputed = fourier_samples(builtin_f2(), freqs)
    assert np.max(np.abs(recomputed.values - values)) <= 1e-13


def test_batched_quadrature_memory_is_bounded():
    freqs = jittered_frequencies(512, seed=42)
    fourier_samples(builtin_f2(), freqs)  # warm the Gauss-Legendre cache
    tracemalloc.start()
    try:
        fourier_samples(builtin_f2(), freqs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a complex (frequencies x 16 P) phase matrix would be about 33 MB here
    assert peak < 16 * 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_samples_rejected(bad):
    values = np.ones(5, dtype=complex)
    values[2] = bad
    with pytest.raises(ValueError, match="finite"):
        FourierSamples(freqs=uniform_frequencies(2), values=values)


def test_sample_length_validation():
    freqs = uniform_frequencies(2)
    with pytest.raises(ValueError):
        FourierSamples(freqs=freqs, values=np.zeros(3, dtype=complex))


def test_non_finite_piece_is_a_configuration_error():
    # NaN is not slow convergence: it raises ValueError (CLI exit 2), not
    # QuadratureError, and names the piece and the first bad node
    f = PiecewiseFunction(pieces=(
        SmoothPiece(0.0, 0.5, lambda x: x),
        SmoothPiece(0.5, 1.0, lambda x: np.where(x > 0.75, np.nan, x)),
    ))
    with pytest.raises(ValueError, match=r"piece on \[0\.5, 1\.0\] is not finite: it is nan") as info:
        fourier_samples(f, uniform_frequencies(4))
    x = float(str(info.value).rsplit("x = ", 1)[1])
    assert 0.75 < x < 1.0


def test_quadrature_failure_raises_with_context(monkeypatch):
    monkeypatch.setattr(sampling, "_MAX_HALVINGS", 0)
    f = piecewise_from_expressions([(0.0, 0.25, "x"), (0.25, 1.0, "sin(2*pi*1000*x)")])
    with pytest.raises(QuadratureError, match=r"piece on \[0\.25, 1\.0\]") as info:
        fourier_samples(f, uniform_frequencies(4))
    assert isinstance(info.value, RuntimeError)  # the CLI exits 3 on it
