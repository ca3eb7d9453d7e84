"""Stable least-squares Chebyshev fitting and buffer-zone extrapolation.

Fits use equispaced nodes with heavy oversampling (N + 1 nodes, N = 4 M^2,
for degree M); stability comes from the oversampling, not from the node
placement.  evaluate_fit (numpy's chebval, a Clenshaw recurrence) is valid
outside the fit interval, which is the whole point.
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
]


@dataclass(frozen=True)
class ChebyshevFit:
    """Fit in the Chebyshev-T basis on [a, b]; its degree is the coefficient count - 1."""

    coefficients: np.ndarray
    a: float
    b: float
    residual_norm: float

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def map_to_t(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.a) / (self.b - self.a) - 1.0


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
    # squared at a power-of-two scale, so it cannot overflow; the scaling is
    # exact, undone on the result, and done in place, adding no array
    _, power = np.frexp(max(residual.max(), -residual.min()))
    np.ldexp(residual, -power, out=residual)
    rms = float(np.ldexp(np.sqrt(np.mean(residual**2)), power))
    return ChebyshevFit(coefficients=coeffs, a=a, b=b, residual_norm=rms)


def evaluate_fit(fit: ChebyshevFit, x):
    """Evaluate the fit at x; t(x) may lie outside [-1, 1]."""
    result = np.polynomial.chebyshev.chebval(fit.map_to_t(x), fit.coefficients)
    return float(result) if np.ndim(x) == 0 else result


def extrapolation_params_practical(m: int, delta: float) -> tuple[int, int]:
    """Practical rule M = round(4 + m delta), N = 4 M^2."""
    if not (m >= 0 and 0 <= delta < math.inf):  # NaN fails too
        raise ValueError(f"need m >= 0 and finite delta >= 0, got m={m!r}, delta={delta!r}")
    big_m = int(round(4.0 + m * delta))
    return big_m, 4 * big_m**2


def extrapolation_params_theoretical(Q: float, eps: float, rho: float) -> tuple[int, int]:
    """Theoretical rule M = ceil(log(Q/eps)/log(rho)), N_min = 4 M^2."""
    if not rho > 1.0:  # NaN fails too
        raise ValueError(f"rho must exceed 1, got {rho!r}")
    if not 0.0 < eps < Q < math.inf:
        raise ValueError(f"need 0 < eps < Q < inf, got eps={eps!r}, Q={Q!r}")
    big_m = math.ceil(math.log(Q / eps) / math.log(rho))
    return big_m, 4 * big_m**2

