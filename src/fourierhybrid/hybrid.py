"""Hybrid reconstruction: filtered frame values away from jumps, Chebyshev
extrapolation inside delta-buffer zones around them.

hybrid_reconstruct takes a FilterReconstruction, which already fixes the
samples, the jump set, the frame operator and the filter constants, and
the buffer width delta.  Each subinterval [xi_l, xi_{l+1}] gets one
Chebyshev fit on [xi_l + delta, xi_{l+1} - delta] that serves both of its
buffer zones; its degree M and node count N + 1 follow the practical rule,
extrapolation_params_practical(m, delta).
Buffer zones are open: a grid point at distance exactly delta from its
bounding jumps keeps the filter value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebfit import ChebyshevFit, chebyshev_fit, evaluate_fit, extrapolation_params_practical
from .frame import FilterReconstruction, filter_reconstruct

__all__ = [
    "HybridReconstruction",
    "hybrid_reconstruct",
    "optimize_delta",
    "delta_objective",
]


# optimize_delta's Brent tolerance and the margin it keeps from 0 and xi
_SEARCH_TOL = 1e-6
_DELTA_MIN = 1e-4


@dataclass(frozen=True)
class HybridReconstruction:
    """Grid values, the buffer mask and the per-subinterval fits."""

    values: np.ndarray
    extrapolated: np.ndarray  # bool mask; True inside a buffer zone
    fits: tuple[ChebyshevFit, ...]
    filter_values: np.ndarray
    imag_residual: np.ndarray
    degree: int
    fit_sample_count: int


def hybrid_reconstruct(
    filter_recon: FilterReconstruction, grid, delta: float
) -> HybridReconstruction:
    """Assemble the hybrid reconstruction on the given grid with buffer width delta.

    delta must be positive, the jump set of ``filter_recon`` must include 0
    and 1, and every subinterval must be wider than 2 delta.
    """
    if not delta > 0:  # NaN fails too
        raise ValueError(f"delta must be positive, got {delta!r}")
    jumps = filter_recon.jumps
    if jumps.size < 2 or jumps[0] != 0.0 or jumps[-1] != 1.0:
        raise ValueError("jump set must include the endpoints 0 and 1")
    widths = np.diff(jumps)
    narrow = np.where(widths <= 2 * delta)[0]
    if narrow.size:
        k = narrow[0]
        raise ValueError(
            f"subinterval [{jumps[k]}, {jumps[k + 1]}] is not wider than "
            f"2*delta = {2 * delta}"
        )
    grid = np.asarray(grid, dtype=float)

    degree, big_n = extrapolation_params_practical(filter_recon.operator.m, delta)

    # row l holds the fit nodes of [xi_l, xi_{l+1}]; one filter evaluation
    # covers the grid and every node, so (K^+)^T is folded once
    nodes = np.linspace(jumps[:-1] + delta, jumps[1:] - delta, big_n + 1, axis=1)
    points = np.concatenate([grid, nodes.ravel()])
    all_values, all_imag = filter_reconstruct(filter_recon, points)
    filter_values, imag_residual = all_values[:grid.size], all_imag[:grid.size]
    node_values = all_values[grid.size:].reshape(nodes.shape)
    values = filter_values.copy()
    extrapolated = np.zeros(grid.shape, dtype=bool)
    fits = []
    for left, right, sub_nodes, sub_values in zip(jumps[:-1], jumps[1:], nodes, node_values):
        fit = chebyshev_fit(sub_nodes, sub_values, degree)
        fits.append(fit)
        # half-open ownership [left, right); the last subinterval also owns 1
        in_sub = (grid >= left) & ((grid < right) | (right == 1.0))
        buffer = in_sub & (np.minimum(grid - left, right - grid) < delta)
        if np.any(buffer):
            values[buffer] = evaluate_fit(fit, grid[buffer])
            extrapolated |= buffer
    return HybridReconstruction(
        values=values,
        extrapolated=extrapolated,
        fits=tuple(fits),
        filter_values=filter_values,
        imag_residual=imag_residual,
        degree=degree,
        fit_sample_count=big_n + 1,
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
