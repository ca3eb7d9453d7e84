import math

import numpy as np
import pytest

import fourierhybrid.sampling as sampling
from fourierhybrid import (
    FourierSamples,
    FrequencySet,
    QuadratureError,
    builtin_f1,
    fourier_sample,
    fourier_samples,
    jittered_frequencies,
    log_frequencies,
    piecewise_from_expressions,
    samples_from_csv,
    samples_to_csv,
    uniform_frequencies,
)
from helpers import DATA_DIR


def exponential_mode(k: int):
    """Real/imag parts of e^{2 pi i k x} as a two-piece-free test function."""
    return piecewise_from_expressions([(0.0, 1.0, f"cos(2*pi*{k}*x)")]), \
        piecewise_from_expressions([(0.0, 1.0, f"sin(2*pi*{k}*x)")])


def mode_sample(k: int, lam: float) -> complex:
    """Quadrature of e^{2 pi i k x} e^{-2 pi i lam x} via its two real parts."""
    re, im = exponential_mode(k)
    return fourier_sample(re, lam) + 1j * fourier_sample(im, lam)


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
        FrequencySet(m=3, frequencies=np.zeros(5), scheme="uniform")


def test_fourier_sample_orthonormality():
    assert mode_sample(3, 3.0) == pytest.approx(1.0, abs=1e-12)


def test_fourier_sample_f1_at_zero():
    # integral of f1: 0 over the first piece, -1/pi over the second
    value = fourier_sample(builtin_f1(), 0.0)
    assert value == pytest.approx(-1.0 / math.pi, abs=1e-13)


def test_quadrature_matches_closed_form_over_random_pairs():
    rng = np.random.default_rng(11)
    m = 64
    for _ in range(100):
        k = int(rng.integers(-m, m + 1))
        lam = float(rng.uniform(-2 * m, 2 * m))
        got = mode_sample(k, lam)
        assert abs(got - closed_form_mode_integral(k, lam)) <= 1e-12


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
    fixture = samples_from_csv(DATA_DIR / "f1_jittered_m32_seed42.csv")
    freqs = jittered_frequencies(32, seed=42)
    np.testing.assert_allclose(
        fixture.freqs.frequencies, freqs.frequencies, rtol=0, atol=1e-15
    )
    recomputed = fourier_samples(builtin_f1(), freqs)
    assert np.max(np.abs(recomputed.values - fixture.values)) <= 1e-13


def test_csv_round_trip_preserves_doubles():
    samples = fourier_samples(builtin_f1(), jittered_frequencies(4, seed=9))
    path = DATA_DIR / ".." / "_roundtrip.csv"
    try:
        samples_to_csv(samples, path)
        back = samples_from_csv(path)
        np.testing.assert_array_equal(back.freqs.frequencies, samples.freqs.frequencies)
        np.testing.assert_array_equal(back.values, samples.values)
    finally:
        path.unlink(missing_ok=True)


def test_samples_from_csv_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(ValueError, match="header"):
        samples_from_csv(bad)


@pytest.mark.parametrize("contents", ["", "j,lambda,re,im\n"])
def test_samples_from_csv_rejects_empty_table(tmp_path, contents):
    path = tmp_path / "empty.csv"
    path.write_text(contents)
    with pytest.raises(ValueError, match="empty.csv"):
        samples_from_csv(path)


@pytest.mark.parametrize(
    "contents, line",
    [
        ("j,lambda,re,im\n0,0.0,1.0\n", 2),
        ("j,lambda,re,im\n-1,-1.0,0.0,0.0\n\n0,0.0,1.0,0.0\n", 3),
    ],
    ids=["short-row", "blank-line"],
)
def test_samples_from_csv_rejects_short_or_blank_row(tmp_path, contents, line):
    path = tmp_path / "short.csv"
    path.write_text(contents)
    with pytest.raises(ValueError, match=rf"short\.csv: line {line}:"):
        samples_from_csv(path)


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


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ValueError):
        fourier_sample(builtin_f1(), 1.0, tol=0.0)


def test_quadrature_failure_raises_with_context(monkeypatch):
    monkeypatch.setattr(sampling, "MAX_PANELS", 2)
    with pytest.raises(QuadratureError, match="frequency index"):
        fourier_samples(builtin_f1(), uniform_frequencies(40), tol=1e-16)
