"""Non-uniform frequency schemes and synthesis of Fourier samples.

Samples hat f(lambda) = integral_0^1 f(x) exp(-2 pi i lambda x) dx are
computed per piece by adaptive composite Gauss-Legendre quadrature, so
arbitrary expression-defined pieces are supported uniformly. The quadrature
is batched over all frequencies of a set: for each piece, panel counts P run
upward over powers of two; the piece is evaluated once on each P-panel grid,
and every frequency still pending at P takes its value from that grid through
the factorization exp(-2 pi i lambda (mid_k + h t_q)) = exp(-2 pi i lambda
mid_k) exp(-2 pi i lambda h t_q), i.e. one (frequencies x P) @ (P x 16)
product in blocks of bounded size. Each frequency still starts at its own
panel count and stops by its own doubling rule, so the result is the
per-frequency quadrature up to rounding.

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
# bytes of the complex (frequencies x panels) phase matrix per block
_BLOCK_BYTES = 1 << 20


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
        bad = np.flatnonzero(~np.isfinite(freqs))
        if bad.size:
            raise ValueError(
                f"frequencies must be finite: frequency index {bad[0] - self.m} "
                f"has lambda={freqs[bad[0]]}"
            )
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


def _start_panels(lams: np.ndarray, width: float) -> np.ndarray:
    """Smallest power of two >= |lambda| width / 4, capped at MAX_PANELS.

    Resolves the oscillation before the panel-doubling stop rule is trusted:
    roughly 4 integrand cycles per 16-point panel to start.
    """
    quarter_cycles = np.abs(lams) * width / 4
    panels = np.ones(lams.shape, dtype=np.int64)
    while True:
        grow = (panels < quarter_cycles) & (panels < MAX_PANELS)
        if not grow.any():
            return panels
        panels[grow] *= 2


def _panel_integrals(piece, lams: np.ndarray, panels: int) -> np.ndarray:
    """P-panel Gauss-Legendre values of integral_a^b g(x) exp(-2 pi i lam x) dx.

    With x = mid_k + h t_q the kernel factors into exp(-2 pi i lam mid_k)
    exp(-2 pi i lam h t_q), so the piece is evaluated once on the (P, 16)
    grid and each block of frequencies costs one (F, P) @ (P, 16) product and
    a row-dot with the (F, 16) node phases. Blocks keep the (F, P) phase
    matrix near _BLOCK_BYTES; no (F, 16 P) matrix is formed.
    """
    nodes, weights = _gauss_legendre(POINTS_PER_PANEL)
    edges = np.linspace(piece.a, piece.b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    g = half[:, None] * weights * piece(mid[:, None] + half[:, None] * nodes)
    h = 0.5 * (piece.b - piece.a) / panels
    out = np.empty(lams.shape, dtype=complex)
    block = max(1, _BLOCK_BYTES // (16 * panels))
    for lo in range(0, lams.size, block):
        rate = -2j * np.pi * lams[lo:lo + block, None]
        out[lo:lo + block] = np.einsum(
            "fq,fq->f", np.exp(rate * mid) @ g, np.exp(rate * (h * nodes))
        )
    return out


def _piece_fourier_integrals(piece, freqs: FrequencySet, tol: float) -> np.ndarray:
    """integral_a^b g(x) exp(-2 pi i lam x) dx for every lam in the set.

    Each frequency keeps its own panel-doubling rule: it joins at its
    starting panel count, stops at the first P with |Q(2P) - Q(P)| <= tol and
    returns Q(2P). Panel counts run upward once per piece, so each P-panel
    grid serves every frequency still pending at P.
    """
    lams = freqs.frequencies
    start = _start_panels(lams, piece.b - piece.a)
    values = np.empty(lams.shape, dtype=complex)
    # NaN until a frequency's first pass, so that pass never meets the stop rule
    prev = np.full(lams.shape, np.nan, dtype=complex)
    change = np.full(lams.shape, np.nan)
    pending = np.ones(lams.shape, dtype=bool)
    panels = int(start.min())
    while panels <= MAX_PANELS:
        rows = np.flatnonzero(pending & (start <= panels))
        if rows.size:
            q = _panel_integrals(piece, lams[rows], panels)
            change[rows] = np.abs(q - prev[rows])
            done = change[rows] <= tol
            values[rows[done]] = q[done]
            pending[rows[done]] = False
            prev[rows] = q
        if not pending.any():
            return values
        panels *= 2
    k = int(np.flatnonzero(pending)[0])
    raise QuadratureError(
        f"quadrature failed at frequency index {k - freqs.m} (lambda={lams[k]}): "
        f"did not reach tol={tol} on [{piece.a},{piece.b}] within "
        f"{MAX_PANELS} panels",
        achieved=None if np.isnan(change[k]) else float(change[k]),
    )


def fourier_sample(f: PiecewiseFunction, lam: float, tol: float = DEFAULT_TOL) -> complex:
    """hat f(lam): fourier_samples on the one-frequency set {lam}."""
    one = FrequencySet(m=0, frequencies=np.array([float(lam)]), scheme="custom")
    return complex(fourier_samples(f, one, tol).values[0])


def fourier_samples(
    f: PiecewiseFunction, freqs: FrequencySet, tol: float = DEFAULT_TOL
) -> FourierSamples:
    """Vector of hat f(lambda_j), summed piece by piece over all frequencies.

    Every frequency meets its own stop rule (see _piece_fourier_integrals);
    only the panel grids and their piece evaluations are shared. A frequency
    that needs more than MAX_PANELS panels raises QuadratureError naming its
    index j and lambda (the lowest such j of the first piece that fails).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    values = np.zeros(len(freqs), dtype=complex)
    for piece in f.pieces:
        values += _piece_fourier_integrals(piece, freqs, tol)
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
