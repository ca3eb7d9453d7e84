"""Independent brute-force reference computations for tests and acceptance.

Everything here uses code paths separate from the main pipeline: scipy's
adaptive quadrature (with oscillatory weights) instead of the in-house
Legendre-Bessel sampler, fsum-based series instead of the vectorized
filter evaluation, and numpy's least-squares solver with a direct mode sum
instead of the frame's pseudo-inverse and folded cosine/sine sum.  Of the
package, only piecewise is imported.  These routines exist to falsify the
pipeline, not to be fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .piecewise import PiecewiseFunction, distance_to_set, evaluate

__all__ = [
    "projection_coefficient",
    "projection_coefficients",
    "classical_filtered_sum",
    "frame_filtered_sum",
    "mollified_tail_energy",
    "ground_truth_error",
    "ErrorSummary",
    "sigma_reference",
]

_QUAD_EPSABS = 1e-13
_QUAD_LIMIT = 400


def projection_coefficient(f: PiecewiseFunction, l: int) -> complex:
    """hat f(l) = integral_0^1 f(x) exp(-2 pi i l x) dx by scipy quadrature.

    Uses scipy's oscillatory-weight rules so large |l| stays accurate.  Their
    weight (QAWO) carries l, not the piece's own oscillation: for
    sin(2 pi 1000 x) on [0, 1] it warns (IntegrationWarning) and is 2.6e-5 off
    at l = 3.3 and 6.6e-4 off at l = -700.2, so check such pieces against
    closed forms.
    """
    # imported here: the pipeline uses only ground_truth_error from this module
    from scipy.integrate import quad

    re = 0.0
    im = 0.0
    for piece in f.pieces:
        g = lambda x: float(piece(x))  # noqa: E731 - scalar shim for quad
        if l == 0:
            re_part, _ = quad(g, piece.a, piece.b, epsabs=_QUAD_EPSABS, limit=_QUAD_LIMIT)
            im_part = 0.0
        else:
            w = 2.0 * np.pi * l
            re_part, _ = quad(
                g, piece.a, piece.b, weight="cos", wvar=w,
                epsabs=_QUAD_EPSABS, limit=_QUAD_LIMIT,
            )
            sin_part, _ = quad(
                g, piece.a, piece.b, weight="sin", wvar=w,
                epsabs=_QUAD_EPSABS, limit=_QUAD_LIMIT,
            )
            im_part = -sin_part
        re += re_part
        im += im_part
    return complex(re, im)


def projection_coefficients(f: PiecewiseFunction, n: int) -> np.ndarray:
    """hat f(l) for l = -n..n as a (2n+1,) array (index l + n)."""
    out = np.empty(2 * n + 1, dtype=complex)
    for l in range(0, n + 1):
        c = projection_coefficient(f, l)
        out[n + l] = c
        if l:
            out[n - l] = projection_coefficient(f, -l)
    return out


def sigma_reference(p: int, gamma: float, w: float) -> float:
    """Independent HDAF filter evaluation via fsum of the explicit series.

    Each term is exp(-z + l log z - lgamma(l+1)) in double precision, so its
    relative error grows with the size of that exponent's parts. At large p
    the reference is not exact: at p = 2184 (m = 65536, d = 0.5) it is 1e-12
    to 3.3e-12 relative off 60-digit mpmath, also where sigma is about 0.14.
    Checks against it at that size need an rtol of about 1e-11.
    """
    z = 0.5 * (w * gamma) ** 2
    terms = [math.exp(-z + l * math.log(z) - math.lgamma(l + 1)) if z > 0 else (1.0 if l == 0 else 0.0)
             for l in range(p + 1)]
    return math.fsum(terms)


def classical_filtered_sum(
    f_hat: np.ndarray, p: int, gamma: float, m: int, n: int, x: float
) -> float:
    """Re sum_{|l|<=n} sigma_{p,gamma}(l/m) hat f(l) exp(2 pi i l x).

    ``f_hat`` is indexed as in projection_coefficients output with at
    least 2n+1 centered entries.
    """
    f_hat = np.asarray(f_hat)
    center = (len(f_hat) - 1) // 2
    if center < n:
        raise ValueError("need coefficients for all |l| <= n")
    terms = []
    for l in range(-n, n + 1):
        sig = sigma_reference(p, gamma, l / m)
        val = sig * f_hat[center + l] * complex(math.cos(2 * math.pi * l * x),
                                                math.sin(2 * math.pi * l * x))
        terms.append(val.real)
    return math.fsum(terms)


def frame_filtered_sum(
    lams: np.ndarray, values: np.ndarray, m: int, n: int,
    p: int, gamma: float, x: float, rel_tol: float = 1e-12,
) -> complex:
    """sum_{|l|<=n} c_l exp(2 pi i l x) of the filtered frame reconstruction.

    Omega[j, l] = integral_0^1 exp(2 pi i t x) dx = e^{i pi t} sinc(t) with
    t = lams_j - l is built here from that closed form, with np.sinc.  The
    weights are w_j = sigma_{p,gamma}(lams_j / m) by sigma_reference, the
    coefficients c the least-squares solution of conj(Omega) c = w * values
    by numpy's SVD-based lstsq (singular values below rel_tol times the
    largest dropped), and the mode sum is taken term by term.  The real part
    is the reconstructed value, the imaginary part its residual.
    """
    t = np.subtract.outer(np.asarray(lams, dtype=float), np.arange(-n, n + 1))
    omega = np.exp(1j * np.pi * t) * np.sinc(t)
    w = np.array([sigma_reference(p, gamma, lam / m) for lam in lams])
    c = np.linalg.lstsq(np.conj(omega), w * values, rcond=rel_tol)[0]
    terms = [
        c[n + l] * complex(math.cos(2 * math.pi * l * x), math.sin(2 * math.pi * l * x))
        for l in range(-n, n + 1)
    ]
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def mollified_tail_energy(
    f: PiecewiseFunction,
    p: int,
    gamma: float,
    m: int,
    n: int,
    J: int,
    f_hat: np.ndarray | None = None,
) -> float:
    """sqrt(sum_{n<|j|<=J} |sigma_{p,gamma}(j/m) hat f(j)|^2).

    The convolution-theorem identity <rho * f, phi_j> = sigma(j/m) hat f(j)
    makes this the computable L2 tail of the mollified projection.  For a
    real f the two signs contribute equally, so only positive j are
    integrated.  Precomputed centered coefficients covering |j| <= J may be
    passed via ``f_hat``.
    """
    if J <= n:
        raise ValueError("cutoff J must exceed n")
    if f_hat is not None:
        center = (len(f_hat) - 1) // 2
        if center < J:
            raise ValueError("precomputed coefficients must cover |j| <= J")
        coeff = lambda j: f_hat[center + j]  # noqa: E731
    else:
        coeff = lambda j: projection_coefficient(f, j)  # noqa: E731
    contributions = []
    for j in range(n + 1, J + 1):
        sig = sigma_reference(p, gamma, j / m)
        contributions.append(2.0 * abs(sig * coeff(j)) ** 2)
    total = math.fsum(contributions)
    # skip the cutoff check for totals at quadrature-noise level
    if total > 1e-28 and contributions[-1] > 1e-18 * total:
        raise RuntimeError(
            f"cutoff J={J} insufficient: last term is "
            f"{contributions[-1] / total:.3e} of the total"
        )
    return math.sqrt(total)


@dataclass(frozen=True)
class ErrorSummary:
    """Pointwise and summary errors of a reconstruction vs ground truth."""

    pointwise: np.ndarray
    sup: float
    sup_interior: float | None = None


def ground_truth_error(
    grid,
    values,
    f: PiecewiseFunction,
    delta: float | None = None,
) -> ErrorSummary:
    """|recon - f| per grid point and its sup.

    Points within machine epsilon of a jump of f (its breakpoints) are
    excluded from the sups (the function value there is ambiguous).  When
    ``delta`` is given, sup_interior is the sup over {x : d(x) >= delta}.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    truth = evaluate(f, grid)
    pointwise = np.abs(values - truth)
    d = distance_to_set(grid, f.breakpoints)
    keep = d > 8 * np.finfo(float).eps
    sup = float(np.max(pointwise[keep]))
    sup_interior = None
    if delta is not None:
        interior = keep & (d >= delta)
        sup_interior = float(np.max(pointwise[interior])) if np.any(interior) else 0.0
    return ErrorSummary(pointwise=pointwise, sup=sup, sup_interior=sup_interior)
