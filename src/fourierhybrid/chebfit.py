"""Stable least-squares Chebyshev fitting and buffer-zone extrapolation.

Fits use equispaced nodes with heavy oversampling (N + 1 nodes, N = 4 M^2,
for degree M); stability comes from the oversampling, not from the node
placement.  evaluate_fit (numpy's chebval, a Clenshaw recurrence) is valid
outside the fit interval, which is the whole point.

The extrapolation's amplification A(M), the infinity-norm of the map from
the node values to the fit's values at the subinterval's ends, grows with M
much faster than the data error falls (Demanet & Townsend, "Stable
extrapolation of analytic functions", FoCM 2019).  So the degree is not the
paper's practical M = round(4 + m delta) but the largest M below it with
A(k) <= A_MAX for every k <= M; extrapolation_params_bounded returns that
degree with its fit nodes and its A, the hybrid's whole fit plan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChebyshevFit",
    "chebyshev_fit",
    "evaluate_fit",
    "extrapolation_amplification",
    "extrapolation_params_bounded",
    "extrapolation_params_practical",
]

# the largest amplification A(M) that extrapolation_params_bounded accepts:
# data errors at the fit nodes reach the buffer values at most 100-fold
A_MAX = 100.0


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
    for name, values in (("xs", xs), ("ys", ys)):
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"{name} must be finite, got {float(bad[0])}")
    if np.any(np.diff(np.sort(xs)) == 0):
        raise ValueError("sample points must be distinct")
    a, b = float(xs.min()), float(xs.max())
    if a == b:
        raise ValueError(f"the sample points span zero width (all at x = {a}); need two")
    t = 2.0 * (xs - a) / (b - a) - 1.0
    vander = np.polynomial.chebyshev.chebvander(t, degree)
    coeffs, _, rank, _ = np.linalg.lstsq(vander, ys, rcond=None)
    if rank < degree + 1:
        raise RuntimeError(
            f"rank-deficient Chebyshev-Vandermonde system (rank {rank} < {degree + 1})"
        )
    residual = vander @ coeffs - ys
    # squared at a power-of-two scale, so it cannot overflow; the scaling is
    # exact and undone on the result
    _, power = np.frexp(max(residual.max(), -residual.min()))
    rms = float(np.ldexp(np.sqrt(np.mean(np.ldexp(residual, -power) ** 2)), power))
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


def _node_count(degree: int) -> int:
    """N = 4 M^2, and N = 1 at M = 0, so the nodes still span the fit interval."""
    return max(4 * degree**2, 1)


# a sweep over m and sampling schemes meets the same few (width, delta, M)
# again and again; each costs a pseudo-inverse
@functools.lru_cache(maxsize=1024)
def extrapolation_amplification(width: float, delta: float, degree: int) -> float:
    """A(M) for a subinterval [0, width] fitted on [delta, width - delta].

    The infinity-norm of the linear map from the N + 1 equispaced node
    values, N from the degree as in extrapolation_params_bounded, to the
    degree-M least-squares fit's values at 0 and width, the two jump ends
    of the buffer zones.  It depends only on width / delta and M.  A(0) = 1,
    which extrapolation_params_bounded reports without this pseudo-inverse
    (it gives 1 - 3 ulps).  width must exceed 2 delta.
    """
    t_end = width / (width - 2.0 * delta)
    nodes = np.linspace(-1.0, 1.0, _node_count(degree) + 1)
    to_ends = np.polynomial.chebyshev.chebvander(np.array([-t_end, t_end]), degree)
    rows = to_ends @ np.linalg.pinv(np.polynomial.chebyshev.chebvander(nodes, degree))
    return float(np.max(np.sum(np.abs(rows), axis=1)))


def extrapolation_params_bounded(m: int, delta: float, jumps) -> tuple[int, np.ndarray, float]:
    """(M, nodes, A): the hybrid's fit plan on sorted jumps that pass hybrid.check_buffer.

    Row l of nodes holds the N + 1 equispaced fit nodes of [xi_l + delta,
    xi_{l+1} - delta], N = 4 M^2 (N = 1 at M = 0: the interval's ends).
    The search runs upward from M = 0, where A = 1, up to the practical
    rule's round(4 + m delta), and stops at the first degree that fails
    on some subinterval: A(M) > A_MAX, or N + 1 nodes that repeat on a fit
    interval a few ulps wide.  A is the largest A(M) over the widths.  Each
    degree costs one small pseudo-inverse per distinct width; a repeated
    width is a hit of extrapolation_amplification's cache.  Node rows are
    built for the degree returned, and for a trial degree only when some
    fit interval's spacing w / N is at most 8 ulps of its larger end:
    np.linspace's rounding moves two neighbouring nodes closer by at most
    2 ulps, so wider spacings cannot repeat a node.
    """
    cap, _ = extrapolation_params_practical(m, delta)
    jumps = np.asarray(jumps, dtype=float)
    starts, stops = jumps[:-1] + delta, jumps[1:] - delta
    widths = stops - starts
    # a spacing above this keeps a fit interval's nodes distinct, with a margin of 4
    floor = 8.0 * np.spacing(np.maximum(np.abs(starts), np.abs(stops)))
    degree, amplification = 0, 1.0
    for trial in range(1, cap + 1):
        count = _node_count(trial)
        if np.any(widths / count <= floor) and np.any(
                np.diff(np.linspace(starts, stops, count + 1, axis=1)) <= 0):
            break
        worst = max(extrapolation_amplification(w, delta, trial) for w in np.diff(jumps))
        if worst > A_MAX:
            break
        degree, amplification = trial, worst
    return degree, np.linspace(starts, stops, _node_count(degree) + 1, axis=1), amplification
