"""Stable least-squares Chebyshev fitting and buffer-zone extrapolation.

Fits use equispaced nodes with heavy oversampling (N about 4 M^2 samples
for degree M); stability comes from the oversampling, not from the node
placement.  Evaluation uses the Clenshaw recurrence and is valid outside
the fit interval, which is the whole point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChebyshevFit",
    "chebyshev_fit",
    "evaluate_fit",
    "extrapolation_params_practical",
    "extrapolation_params_theoretical",
    "extrapolation_error_bound",
]


@dataclass(frozen=True)
class ChebyshevFit:
    """Degree-M fit in the Chebyshev-T basis on [a, b]."""

    degree: int
    coefficients: np.ndarray
    a: float
    b: float
    residual_norm: float

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (self.degree + 1,):
            raise ValueError("coefficient count must be degree + 1")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def map_to_t(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.a) / (self.b - self.a) - 1.0

    def __call__(self, x):
        return evaluate_fit(self, x)


def chebyshev_fit(xs, ys, degree: int) -> ChebyshevFit:
    """Least-squares Chebyshev fit of the given samples via SVD solve."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if len(xs) <= degree:
        raise ValueError(
            f"need at least degree+1 = {degree + 1} samples, got {len(xs)}"
        )
    if len(np.unique(xs)) != len(xs):
        raise ValueError("sample points must be distinct")
    a, b = float(xs.min()), float(xs.max())
    t = 2.0 * (xs - a) / (b - a) - 1.0
    vander = np.polynomial.chebyshev.chebvander(t, degree)
    coeffs, _, rank, _ = np.linalg.lstsq(vander, ys, rcond=None)
    if rank < degree + 1:
        raise RuntimeError(
            f"rank-deficient Chebyshev-Vandermonde system (rank {rank} < {degree + 1})"
        )
    residual = vander @ coeffs - ys
    rms = float(np.sqrt(np.mean(residual**2)))
    return ChebyshevFit(degree=degree, coefficients=coeffs, a=a, b=b, residual_norm=rms)


def evaluate_fit(fit: ChebyshevFit, x):
    """Clenshaw evaluation; t(x) may lie outside [-1, 1]."""
    t = fit.map_to_t(x)
    c = fit.coefficients
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for k in range(fit.degree, 0, -1):
        b1, b2 = c[k] + 2.0 * t * b1 - b2, b1
    result = c[0] + t * b1 - b2
    return float(result) if np.ndim(x) == 0 else result


def extrapolation_params_practical(m: int, delta: float) -> tuple[int, int]:
    """Practical rule M = round(4 + m delta), N = 4 M^2."""
    if m * delta < 0:
        raise ValueError("m*delta must be non-negative")
    big_m = int(round(4.0 + m * delta))
    return big_m, 4 * big_m**2


def extrapolation_params_theoretical(Q: float, eps: float, rho: float) -> tuple[int, int]:
    """Theoretical rule M = ceil(log(Q/eps)/log(rho)), N_min = 4 M^2."""
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    if not (0.0 < eps < Q):
        raise ValueError("need 0 < eps < Q")
    big_m = math.ceil(math.log(Q / eps) / math.log(rho))
    return big_m, 4 * big_m**2


def extrapolation_error_bound(rho: float, Q: float, eps: float, x: float, C: float) -> float:
    """Extrapolation error bound C Q^(1-a(x)) eps^a(x) / (1 - r(x)).

    r(x) = (x + sqrt(x^2 - 1)) / rho and a(x) = -log r(x) / log rho; valid
    for x in [1, (rho + 1/rho)/2).  The prefactor C is caller-supplied.
    """
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    if x < 1.0 or x >= 0.5 * (rho + 1.0 / rho):
        raise ValueError("x must lie in [1, (rho + 1/rho)/2)")
    r = (x + math.sqrt(x * x - 1.0)) / rho
    alpha = -math.log(r) / math.log(rho)
    return C * Q ** (1.0 - alpha) * eps**alpha / (1.0 - r)
