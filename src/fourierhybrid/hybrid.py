"""Hybrid reconstruction: filtered frame values away from jumps, Chebyshev
extrapolation inside delta-buffer zones around them.

hybrid_reconstruct takes a FilterReconstruction, which already fixes the
samples, the jump set and the frame operator, and the buffer width delta.
Each subinterval [xi_l, xi_{l+1}] gets one Chebyshev fit on
[xi_l + delta, xi_{l+1} - delta] that serves both of its buffer zones.
The fit plan, one degree M, the N + 1 nodes of every fit and their
amplification, is extrapolation_params_bounded's, used as returned.
A grid point is in a buffer zone when its distance d to the nearest jump
is below delta, so one at d = delta exactly keeps the filter value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebfit import ChebyshevFit, chebyshev_fit, evaluate_fit, extrapolation_params_bounded
from .frame import FilterReconstruction, filter_reconstruct
from .piecewise import nearest_jump

__all__ = [
    "HybridReconstruction",
    "check_buffer",
    "hybrid_reconstruct",
    "optimize_delta",
    "delta_objective",
]


# optimize_delta's Brent tolerance and the margin it keeps from 0 and xi
_SEARCH_TOL = 1e-6
_DELTA_MIN = 1e-4


@dataclass(frozen=True)
class HybridReconstruction:
    """Grid values, the buffer mask and the per-subinterval fits.

    amplification is the largest A(M) over the fits at their degree M.
    """

    values: np.ndarray
    extrapolated: np.ndarray  # bool mask; True inside a buffer zone
    fits: tuple[ChebyshevFit, ...]
    filter_values: np.ndarray
    imag_residual: np.ndarray
    degree: int
    fit_sample_count: int
    amplification: float


def check_buffer(jumps, delta: float) -> None:
    """The buffer rule, for hybrid_reconstruct and ExperimentConfig.validate alike.

    delta must be finite and positive, and each subinterval of the sorted
    jumps wider than 2 delta, judged as hybrid_reconstruct rounds the fit
    interval [xi_l + delta, xi_{l+1} - delta]: it must not be empty, and a
    delta an ulp below half the width can round it to a point.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    narrow = np.flatnonzero(jumps[:-1] + delta >= jumps[1:] - delta)
    if narrow.size:
        k = narrow[0]
        raise ValueError(f"delta = {delta} must lie in (0, half the narrowest subinterval); "
                         f"[{jumps[k]}, {jumps[k + 1]}] is too narrow")


def hybrid_reconstruct(
    filter_recon: FilterReconstruction, grid, delta: float
) -> HybridReconstruction:
    """Assemble the hybrid reconstruction on the given grid with buffer width delta.

    grid must be 1-d, delta and the jump set of ``filter_recon`` must pass
    check_buffer, and the jump set must include 0 and 1.
    """
    jumps = filter_recon.jumps
    check_buffer(jumps, delta)
    if jumps.size < 2 or jumps[0] != 0.0 or jumps[-1] != 1.0:
        raise ValueError("jump set must include the endpoints 0 and 1")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"grid must be 1-d, got shape {grid.shape}")

    degree, nodes, amplification = extrapolation_params_bounded(
        filter_recon.operator.m, delta, jumps)
    # one filter call evaluates the grid and every subinterval's fit nodes
    points = np.concatenate([grid, nodes.ravel()])
    all_values, all_imag = filter_reconstruct(filter_recon, points)
    filter_values, imag_residual = all_values[:grid.size], all_imag[:grid.size]
    node_values = all_values[grid.size:].reshape(nodes.shape)
    fits = tuple(chebyshev_fit(x, y, degree) for x, y in zip(nodes, node_values))
    d, near = nearest_jump(grid, jumps)
    extrapolated = d < delta
    buffer = np.flatnonzero(extrapolated)
    # a buffer point takes the fit of the subinterval [xi_l, xi_{l+1}) that
    # holds it; the last subinterval also holds 1
    near = near[buffer]
    owner = np.minimum(near - (grid[buffer] < jumps[near]), len(fits) - 1)
    values = filter_values.copy()
    for k, fit in enumerate(fits):
        mine = buffer[owner == k]
        if mine.size:
            values[mine] = evaluate_fit(fit, grid[mine])
    return HybridReconstruction(
        values=values,
        extrapolated=extrapolated,
        fits=fits,
        filter_values=filter_values,
        imag_residual=imag_residual,
        degree=degree,
        fit_sample_count=nodes.shape[1],
        amplification=amplification,
    )


def delta_objective(delta: float, xi: float, m: int, rho: float, eta: float, C: float) -> float:
    """alpha*(delta) * log(eps_delta): the scalar buffer-width objective.

    alpha* = -log(r*) / (log rho - log((xi - delta)/2)) with
    r* = (xi + delta + 2 sqrt(xi delta)) / (2 rho), and
    log eps_delta = log C + (9/4) log m - eta m delta.
    """
    r_star = (xi + delta + 2.0 * math.sqrt(xi * delta)) / (2.0 * rho)
    if r_star >= 1.0 or delta >= xi:
        return math.inf
    denom = math.log(rho) - math.log((xi - delta) / 2.0)
    alpha_star = -math.log(r_star) / denom
    log_eps = math.log(C) + 2.25 * math.log(m) - eta * m * delta
    return alpha_star * log_eps


def optimize_delta(
    xi: float,
    m: int,
    rho: float,
    eta: float,
    C: float,
) -> float:
    """Minimize the buffer-width objective over (_DELTA_MIN, xi - _DELTA_MIN).

    Coarse grid scan, then Brent's bounded method on the best grid cell;
    the analytic constants eta and C must be supplied by the caller.
    """
    # imported here so that importing the package does not load scipy.optimize
    from scipy.optimize import minimize_scalar

    if not (0.0 < xi < 1.0):
        raise ValueError("xi must lie in (0,1)")
    for name, value in (("rho", rho), ("eta", eta), ("C", C)):
        if not value > 0:  # NaN fails too
            raise ValueError(f"{name} must be positive, got {value!r}")
    lo, hi = _DELTA_MIN, xi - _DELTA_MIN
    if lo >= hi:
        raise ValueError("search interval is empty")
    grid = np.linspace(lo, hi, 257)
    vals = np.array([delta_objective(d, xi, m, rho, eta, C) for d in grid])
    if not np.any(np.isfinite(vals)):
        raise ValueError("objective undefined over the whole range (r* >= 1)")
    k = int(np.argmin(vals))
    cell = (grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)])
    result = minimize_scalar(
        delta_objective, bounds=cell, args=(xi, m, rho, eta, C),
        method="bounded", options={"xatol": _SEARCH_TOL},
    )
    return float(result.x)
