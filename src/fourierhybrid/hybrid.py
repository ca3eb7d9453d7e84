"""Hybrid reconstruction: filtered frame values away from jumps, Chebyshev
extrapolation inside delta-buffer zones around them.

hybrid_reconstruct takes a FilterReconstruction, which already fixes the
samples, the jump set, the mode count n, the SVD tolerance and the filter
constants; HybridConfig holds only the extrapolation knobs.  Each
subinterval [xi_l, xi_{l+1}] gets one Chebyshev fit on
[xi_l + delta, xi_{l+1} - delta] that serves both of its buffer zones.
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
    "HybridConfig",
    "HybridReconstruction",
    "hybrid_reconstruct",
    "optimize_delta",
    "delta_objective",
]


@dataclass(frozen=True)
class HybridConfig:
    """Extrapolation knobs for the hybrid assembly.

    ``degree`` defaults to the practical rule M = round(4 + m delta) when
    left as None; the number of fit samples is N + 1 with N = 4 M^2 unless
    overridden.
    """

    delta: float = 1.0 / 40.0
    degree: int | None = None
    fit_sample_count: int | None = None

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class HybridReconstruction:
    """Grid values with per-point method tags and per-subinterval fits."""

    grid: np.ndarray
    values: np.ndarray
    extrapolated: np.ndarray  # bool mask; True inside a buffer zone
    fits: tuple[ChebyshevFit, ...]
    filter_values: np.ndarray
    imag_residual: np.ndarray
    n: int
    degree: int
    fit_sample_count: int

    @property
    def method_tags(self) -> np.ndarray:
        return np.where(self.extrapolated, "extrapolated", "filter")


def hybrid_reconstruct(
    filter_recon: FilterReconstruction, cfg: HybridConfig, grid
) -> HybridReconstruction:
    """Assemble the hybrid reconstruction on the given grid.

    The jump set of ``filter_recon`` must include 0 and 1, and every
    subinterval must be wider than 2 delta.
    """
    jumps = filter_recon.jumps
    if jumps.size < 2 or jumps[0] != 0.0 or jumps[-1] != 1.0:
        raise ValueError("jump set must include the endpoints 0 and 1")
    delta = cfg.delta
    widths = np.diff(jumps)
    narrow = np.where(widths <= 2 * delta)[0]
    if narrow.size:
        k = narrow[0]
        raise ValueError(
            f"subinterval [{jumps[k]}, {jumps[k + 1]}] is not wider than "
            f"2*delta = {2 * delta}"
        )
    grid = np.asarray(grid, dtype=float)

    if cfg.degree is not None:
        degree = cfg.degree
    else:
        degree, _ = extrapolation_params_practical(filter_recon.operator.m, delta)
    n_fit = cfg.fit_sample_count if cfg.fit_sample_count is not None else 4 * degree**2 + 1

    filter_values, imag_residual = filter_reconstruct(filter_recon, grid)
    values = filter_values.copy()
    extrapolated = np.zeros(grid.shape, dtype=bool)
    fits = []
    for left, right in zip(jumps[:-1], jumps[1:]):
        nodes = np.linspace(left + delta, right - delta, n_fit)
        node_values, _ = filter_reconstruct(filter_recon, nodes)
        fit = chebyshev_fit(nodes, node_values, degree)
        fits.append(fit)
        # half-open ownership [left, right); the last subinterval also owns 1
        in_sub = (grid >= left) & ((grid < right) | (right == 1.0))
        buffer = in_sub & (np.minimum(grid - left, right - grid) < delta)
        if np.any(buffer):
            values[buffer] = evaluate_fit(fit, grid[buffer])
            extrapolated |= buffer
    return HybridReconstruction(
        grid=grid,
        values=values,
        extrapolated=extrapolated,
        fits=tuple(fits),
        filter_values=filter_values,
        imag_residual=imag_residual,
        n=filter_recon.operator.n,
        degree=degree,
        fit_sample_count=n_fit,
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


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_delta(
    xi: float,
    m: int,
    rho: float,
    eta: float,
    C: float,
    search_tol: float = 1e-6,
    delta_min: float = 1e-4,
) -> float:
    """Minimize the buffer-width objective over (delta_min, xi - delta_min).

    Coarse grid scan followed by golden-section refinement; the analytic
    constants eta and C must be supplied by the caller.
    """
    if not (0.0 < xi < 1.0):
        raise ValueError("xi must lie in (0,1)")
    if eta <= 0 or C <= 0:
        raise ValueError("eta and C must be positive")
    lo, hi = delta_min, xi - delta_min
    if lo >= hi:
        raise ValueError("search interval is empty")
    grid = np.linspace(lo, hi, 257)
    vals = np.array([delta_objective(d, xi, m, rho, eta, C) for d in grid])
    if not np.any(np.isfinite(vals)):
        raise ValueError("objective undefined over the whole range (r* >= 1)")
    k = int(np.argmin(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    # golden-section refinement of the bracketing cell
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = delta_objective(c, xi, m, rho, eta, C)
    fd = delta_objective(d, xi, m, rho, eta, C)
    while b - a > search_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = delta_objective(c, xi, m, rho, eta, C)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = delta_objective(d, xi, m, rho, eta, C)
    return 0.5 * (a + b)
