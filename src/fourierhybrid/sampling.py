"""Non-uniform frequency schemes and synthesis of Fourier samples.

Samples hat f(lambda) = integral_0^1 f(x) exp(-2 pi i lambda x) dx are
computed per piece by adaptive composite Gauss-Legendre quadrature, so
arbitrary expression-defined pieces are supported uniformly.

The jittered scheme uses numpy's default generator (PCG64): the output
stream is fixed by the seed, so frequency sets are reproducible across
runs of the same numpy version.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .piecewise import PiecewiseFunction

__all__ = [
    "FrequencySet",
    "FourierSamples",
    "QuadratureError",
    "jittered_frequencies",
    "log_frequencies",
    "uniform_frequencies",
    "fourier_sample",
    "fourier_samples",
    "samples_to_csv",
    "samples_from_csv",
]

DEFAULT_TOL = 1e-13
POINTS_PER_PANEL = 16
MAX_PANELS = 2**14


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not converge within the panel cap."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class FrequencySet:
    """2m+1 frequencies lambda_j, j = -m..m, in index order."""

    m: int
    frequencies: np.ndarray
    scheme: str
    seed: int | None = None
    v: float | None = None

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        if freqs.shape != (2 * self.m + 1,):
            raise ValueError(f"expected {2*self.m+1} frequencies, got {freqs.shape}")
        freqs.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)

    def __len__(self):
        return 2 * self.m + 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(-self.m, self.m + 1)


@dataclass(frozen=True)
class FourierSamples:
    """Complex samples hat f(lambda_j) aligned with a FrequencySet."""

    freqs: FrequencySet
    values: np.ndarray
    quadrature_tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (len(self.freqs),):
            raise ValueError("sample vector length must match the frequency set")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite (no NaN or inf)")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def jittered_frequencies(m: int, seed: int) -> FrequencySet:
    """lambda_j = j + eps_j with eps_j iid uniform on [-1/4, 1/4]."""
    if m < 1:
        raise ValueError("jittered scheme needs m >= 1")
    rng = np.random.default_rng(seed)
    eps = rng.uniform(-0.25, 0.25, size=2 * m + 1)
    freqs = np.arange(-m, m + 1, dtype=float) + eps
    return FrequencySet(m=m, frequencies=freqs, scheme="jittered", seed=seed)


def log_frequencies(m: int, v: float = 0.001) -> FrequencySet:
    """Geometrically spaced frequencies from exp(-v) to m, mirrored.

    lambda_j = sign(j) exp(-v + (v + log m)/(m-1) (|j|-1)) for 1 <= |j| <= m
    and lambda_0 = 0; the positive branch is computed once and negated so
    antisymmetry is exact to the last bit, and lambda_m is pinned to m.
    """
    if m < 2:
        raise ValueError("log scheme needs m >= 2 (formula divides by m-1)")
    j = np.arange(1, m + 1, dtype=float)
    positive = np.exp(-v + (v + np.log(m)) * (j - 1.0) / (m - 1.0))
    positive[-1] = float(m)  # exponent telescopes to log m; pin exactly
    freqs = np.concatenate((-positive[::-1], [0.0], positive))
    return FrequencySet(m=m, frequencies=freqs, scheme="log", v=v)


def uniform_frequencies(m: int) -> FrequencySet:
    """lambda_j = j (the classical uniform grid)."""
    if m < 1:
        raise ValueError("uniform scheme needs m >= 1")
    return FrequencySet(
        m=m, frequencies=np.arange(-m, m + 1, dtype=float), scheme="uniform"
    )


@lru_cache(maxsize=None)
def _gauss_legendre(npts: int):
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    return nodes, weights


@lru_cache(maxsize=None)
def _panel_grid(a: float, b: float, panels: int, npts: int):
    """Composite Gauss-Legendre nodes/weights for [a,b] split into panels."""
    nodes, weights = _gauss_legendre(npts)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


def _start_panels(lam: float, width: float) -> int:
    # resolve the oscillation before trusting the panel-doubling stop rule:
    # roughly 4 integrand cycles per 16-point panel to start
    cycles = abs(lam) * width
    p = 1
    while p < cycles / 4 and p < MAX_PANELS:
        p *= 2
    return p


def _piece_fourier_integral(piece, lam: float, tol: float) -> complex:
    """integral_a^b g(x) exp(-2 pi i lam x) dx by panel-doubled Gauss-Legendre."""
    a, b = piece.a, piece.b
    panels = _start_panels(lam, b - a)
    prev = None
    while panels <= MAX_PANELS:
        x, w = _panel_grid(a, b, panels, POINTS_PER_PANEL)
        value = np.dot(w * piece(x), np.exp(-2j * np.pi * lam * x))
        if prev is not None and abs(value - prev) <= tol:
            return value
        prev = value
        panels *= 2
    raise QuadratureError(
        f"quadrature did not reach tol={tol} for lambda={lam} on "
        f"[{a},{b}] within {MAX_PANELS} panels",
        achieved=abs(value - prev) if prev is not None else None,
    )


def fourier_sample(f: PiecewiseFunction, lam: float, tol: float = DEFAULT_TOL) -> complex:
    """hat f(lam) = sum over pieces of the oscillatory piece integral."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return complex(sum(_piece_fourier_integral(p, float(lam), tol) for p in f.pieces))


def fourier_samples(
    f: PiecewiseFunction, freqs: FrequencySet, tol: float = DEFAULT_TOL
) -> FourierSamples:
    """Vector of hat f(lambda_j); each frequency is computed independently."""
    values = np.empty(len(freqs), dtype=complex)
    for k, lam in enumerate(freqs.frequencies):
        try:
            values[k] = fourier_sample(f, lam, tol)
        except QuadratureError as exc:
            raise QuadratureError(
                f"quadrature failed at frequency index {k - freqs.m} "
                f"(lambda={lam}): {exc}",
                achieved=exc.achieved,
            ) from exc
    return FourierSamples(freqs=freqs, values=values, quadrature_tolerance=tol)


def samples_to_csv(samples: FourierSamples, path) -> None:
    """Write (j, lambda, re, im) rows for offline experiments."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "lambda", "re", "im"])
        for j, lam, val in zip(
            samples.freqs.indices, samples.freqs.frequencies, samples.values
        ):
            writer.writerow([j, f"{lam:.17e}", f"{val.real:.17e}", f"{val.imag:.17e}"])


def samples_from_csv(path, scheme: str = "custom") -> FourierSamples:
    """Read back a (j, lambda, re, im) sample table."""
    path = Path(path)
    rows = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV, expected a (j, lambda, re, im) table")
        if header[:4] != ["j", "lambda", "re", "im"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        for row in reader:
            try:
                rows.append((int(row[0]), float(row[1]), float(row[2]), float(row[3])))
            except (IndexError, ValueError) as exc:
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected a (j, lambda, re, im) "
                    f"row, got {row!r}"
                ) from exc
    if not rows:
        raise ValueError(f"{path}: no sample rows after the header")
    rows.sort(key=lambda r: r[0])
    m = rows[-1][0]
    if [r[0] for r in rows] != list(range(-m, m + 1)):
        raise ValueError("CSV must contain contiguous indices -m..m")
    freqs = FrequencySet(
        m=m, frequencies=np.array([r[1] for r in rows]), scheme=scheme
    )
    values = np.array([complex(r[2], r[3]) for r in rows])
    return FourierSamples(freqs=freqs, values=values)
