"""Non-uniform frequency schemes and synthesis of Fourier samples.

Samples hat f(lambda) = integral_0^1 f(x) exp(-2 pi i lambda x) dx are
exact finite sums per piece: on a segment [mid - h, mid + h] the piece is
expanded in Legendre polynomials from a Gauss rule, its coefficients chopped
where they reach their roundoff plateau, and each term integrated in closed
form through integral_{-1}^{1} P_q(t) e^{-i w t} dt = 2 (-i)^q j_q(w), with
j_q the spherical Bessel function and w = 2 pi lambda h (Filon's idea on a
Legendre basis).  A segment is halved only where the piece itself needs
more than 128 terms, so the cost is O(frequencies x terms) per segment at
any |lambda|.  j_q is computed in numpy by recurrence.  A piece that is not
finite at a Gauss node raises ValueError.  A FrequencySet is m and the
frequencies only, so measured frequencies make one as generated ones do.

The jittered scheme uses numpy's default generator (PCG64): the output
stream is fixed by the seed, so frequency sets are reproducible across
runs of the same numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .piecewise import PiecewiseFunction

__all__ = [
    "FrequencySet",
    "FourierSamples",
    "QuadratureError",
    "jittered_frequencies",
    "log_frequencies",
    "uniform_frequencies",
    "fourier_samples",
]

# Gauss-Legendre orders tried on a segment before it is halved
_ORDERS = (32, 64, 128)
# halvings of a piece before it counts as unresolved
_MAX_HALVINGS = 12
# a segment is resolved when the top half of its Legendre coefficients is at
# most _CHOP of the largest; for a geometrically convergent series the terms
# past the order are then about eps^(4/3)
_CHOP = np.finfo(float).eps ** (2 / 3)
# Miller's recurrence starts this many orders above the top one
_MILLER_MARGIN = 40
# Miller's recurrence scales a row back to 1 once it passes _HUGE, and
# omega below 1/_HUGE counts as 0 (there |j_q| < 1e-150 for q >= 1), so the
# factor (2q+1)/omega never overflows
_HUGE = 1e150
_POWERS_OF_MINUS_I = np.array([1, -1j, -1, 1j])
# the log scheme's lowest positive frequency is exp(-_LOG_V)
_LOG_V = 0.001


class QuadratureError(RuntimeError):
    """A piece is not resolved by Legendre series after the last halving."""


@dataclass(frozen=True)
class FrequencySet:
    """2m+1 frequencies lambda_j, j = -m..m, in index order."""

    m: int
    frequencies: np.ndarray

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


@dataclass(frozen=True)
class FourierSamples:
    """Complex samples hat f(lambda_j) aligned with a FrequencySet."""

    freqs: FrequencySet
    values: np.ndarray

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
    return FrequencySet(m=m, frequencies=freqs)


def log_frequencies(m: int) -> FrequencySet:
    """Geometrically spaced frequencies from exp(-v) to m, mirrored, v = _LOG_V.

    lambda_j = sign(j) exp(-v + (v + log m)/(m-1) (|j|-1)) for 1 <= |j| <= m
    and lambda_0 = 0; the positive branch is computed once and negated so
    antisymmetry is exact to the last bit, and lambda_m is pinned to m.
    """
    if m < 2:
        raise ValueError("log scheme needs m >= 2 (formula divides by m-1)")
    j = np.arange(1, m + 1, dtype=float)
    positive = np.exp(-_LOG_V + (_LOG_V + np.log(m)) * (j - 1.0) / (m - 1.0))
    positive[-1] = float(m)  # exponent telescopes to log m; pin exactly
    freqs = np.concatenate((-positive[::-1], [0.0], positive))
    return FrequencySet(m=m, frequencies=freqs)


def uniform_frequencies(m: int) -> FrequencySet:
    """lambda_j = j (the classical uniform grid)."""
    if m < 1:
        raise ValueError("uniform scheme needs m >= 1")
    return FrequencySet(m=m, frequencies=np.arange(-m, m + 1, dtype=float))


@lru_cache(maxsize=None)
def _legendre_transform(k: int):
    """Gauss nodes t_i and the (k, k) map from g(t_i) to the Legendre coefficients of g.

    c_q = (q + 1/2) sum_i w_i P_q(t_i) g(t_i), exact for g of degree < k.
    """
    nodes, weights = np.polynomial.legendre.leggauss(k)
    transform = (np.arange(k) + 0.5)[:, None] * (
        np.polynomial.legendre.legvander(nodes, k - 1) * weights[:, None]
    ).T
    transform.setflags(write=False)
    return nodes, transform


def _forward_sum(w: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_q coef[q] j_q(w) by the upward recurrence, for w >= len(coef)."""
    prev = np.sin(w) / w
    cur = (prev - np.cos(w)) / w
    out = coef[0] * prev + coef[1] * cur
    for q in range(1, len(coef) - 1):
        prev, cur = cur, (2 * q + 1) / w * cur - prev
        out += coef[q + 1] * cur
    return out


def _miller_sum(w: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_q coef[q] j_q(w) by Miller's downward recurrence, for 1/_HUGE <= w < len(coef).

    The recurrence starts _MILLER_MARGIN orders above the top one; rows that
    pass _HUGE are scaled back to 1.  The sum is normalized by whichever of
    j_0, j_1 is larger, since j_0 vanishes at w = k pi.
    """
    nxt, cur = np.zeros_like(w), np.ones_like(w)
    out = np.zeros(w.shape, dtype=coef.dtype)
    for q in range(len(coef) + _MILLER_MARGIN, 0, -1):
        if q < len(coef):
            out += coef[q] * cur
        nxt, cur = cur, (2 * q + 1) / w * cur - nxt
        big = np.abs(cur) > _HUGE
        if big.any():
            scale = 1.0 / np.abs(cur[big])
            cur[big] *= scale
            nxt[big] *= scale
            out[big] *= scale
    out += coef[0] * cur
    j0 = np.sin(w) / w
    use0 = np.abs(cur) >= np.abs(nxt)
    return out * np.where(use0, j0, (j0 - np.cos(w)) / w) / np.where(use0, cur, nxt)


def _bessel_sum(omega: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_{q < k} coef[q] j_q(omega) for omega >= 0, j_q the spherical Bessel function.

    coef has k >= 2 entries.  Rows with omega >= k take the upward
    recurrence, which is stable there for every q < k; rows with
    1/_HUGE <= omega < k take Miller's; below 1/_HUGE omega counts as 0,
    where j_0 = 1 and every other j_q vanishes.
    """
    zero, upward = omega < 1 / _HUGE, omega >= len(coef)
    out = np.zeros(omega.shape, dtype=np.result_type(coef, float))
    out[zero] = coef[0]
    for rows, recurrence in ((upward, _forward_sum), (~zero & ~upward, _miller_sum)):
        if rows.any():
            out[rows] = recurrence(omega[rows], coef)
    return out


def _segment_integrals(
    piece, lams: np.ndarray, lo: float, hi: float, halvings: int, scale: float = 0.0
):
    """integral_lo^hi g(x) exp(-2 pi i lam x) dx for every lam, g the piece.

    With x = mid + h t and g = sum_q c_q P_q(t), each term integrates in
    closed form, integral_{-1}^{1} P_q(t) e^{-i w t} dt = 2 (-i)^q j_q(w) with
    w = 2 pi lam h, so the segment gives 2 h e^{-2 pi i lam mid} sum_q c_q
    (-i)^q j_q(w).  The coefficients come from the first order in _ORDERS
    whose top half is at most _CHOP of the largest coefficient seen on this
    segment or the ones it was halved from (`scale`), so a weak endpoint
    singularity such as x^1.5 resolves once its segment is small.  A segment
    that no order resolves is halved, at most `halvings` more times.  g is
    real, so the sum at -w is the conjugate of the one at w.
    """
    mid, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for k in _ORDERS:
        nodes, transform = _legendre_transform(k)
        values = np.broadcast_to(piece(mid + h * nodes), nodes.shape)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"piece on [{piece.a}, {piece.b}] is not finite: it is "
                             f"{values[bad[0]]} at x = {mid + h * nodes[bad[0]]}")
        c = transform @ values
        scale = max(scale, np.max(np.abs(c)))
        if np.max(np.abs(c[k // 2:])) <= _CHOP * scale:
            omega = 2 * np.pi * h * lams
            total = _bessel_sum(np.abs(omega), c * _POWERS_OF_MINUS_I[np.arange(k) % 4])
            total = np.where(omega < 0, total.conj(), total)
            return 2 * h * np.exp(-2j * np.pi * lams * mid) * total
    if halvings == 0:
        raise QuadratureError(
            f"piece on [{piece.a}, {piece.b}] is not resolved: its Legendre "
            f"coefficients on [{lo}, {hi}] do not decay within {k} terms"
        )
    return (_segment_integrals(piece, lams, lo, mid, halvings - 1, scale)
            + _segment_integrals(piece, lams, mid, hi, halvings - 1, scale))


def fourier_samples(f: PiecewiseFunction, freqs: FrequencySet) -> FourierSamples:
    """Vector of hat f(lambda_j), summed piece by piece over all frequencies.

    Each piece is expanded in Legendre polynomials on as few segments as it
    needs and integrated term by term in closed form (see
    _segment_integrals), so the cost does not grow with |lambda|.  A piece
    that is not resolved after _MAX_HALVINGS halvings raises
    QuadratureError naming its interval; one that is not finite at a Gauss
    node raises ValueError naming its interval and the node.
    """
    values = np.zeros(len(freqs), dtype=complex)
    for piece in f.pieces:
        values += _segment_integrals(
            piece, freqs.frequencies, piece.a, piece.b, _MAX_HALVINGS
        )
    return FourierSamples(freqs=freqs, values=values)
