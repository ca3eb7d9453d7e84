"""Hermite distributed approximating functional (HDAF) kernel and filter.

The frequency response sigma_{p,gamma}(w) = exp(-z) sum_{l<=p} z^l / l!
with z = (w gamma)^2 / 2 is the workhorse: reconstruction weights at
frequency lambda are sigma_{p,gamma}(lambda / m).  The per-point
parameters (gamma_x, p_x) grow with the distance d(x) to the nearest
jump: gamma_x = sqrt(alpha d m), p_x = floor(kappa d m).

The response is the regularized upper incomplete gamma function
Q(p + 1, z) (DLMF 8.4.10), and one kernel, _sigma, evaluates it for every
caller.  For z <= 700 it sums the series directly: every partial sum is at
most e^z < 1e305 and e^-z is a normal float, so the sum is exact to
roundoff and cheap.  Above 700, where z^l / l! overflows while e^-z
underflows, it switches to scipy.special.gammaincc.

The physical-space kernel and its periodization are diagnostics only;
tail-bound evaluators for the projection error are provided with all
constants caller-supplied.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .piecewise import distance_to_set
from .sampling import FrequencySet

__all__ = [
    "FilterConfig",
    "AdaptiveParams",
    "hermite_polynomial",
    "hdaf_kernel",
    "filter_sigma",
    "sigma_weight_matrix",
    "adaptive_params",
    "frequency_weights",
    "tail_bound_linf",
    "tail_bound_l2",
    "mollifier_periodized",
]

# alpha * kappa must stay below this for the adaptive rule's exponential
# accuracy regime
ALPHA_KAPPA_LIMIT = 1.0 / (2.0 * math.log(1.0 + math.sqrt(2.0)))

HERMITE_ORDER_GUARD = 400
_LOG_SPACE_Z = 700.0


@dataclass(frozen=True)
class FilterConfig:
    """Adaptive filter constants; defaults follow the numerical studies."""

    alpha: float = 1.0
    kappa: float = 1.0 / 15.0
    p_floor: int = 0

    def __post_init__(self):
        if self.alpha <= 0 or self.kappa <= 0:
            raise ValueError("alpha and kappa must be positive")
        if self.p_floor < 0:
            raise ValueError("p_floor must be non-negative")
        if self.alpha * self.kappa >= ALPHA_KAPPA_LIMIT:
            warnings.warn(
                f"alpha*kappa = {self.alpha * self.kappa:.6g} >= "
                f"{ALPHA_KAPPA_LIMIT:.6g}; exponential-accuracy regime not "
                "guaranteed",
                stacklevel=2,
            )


@dataclass(frozen=True)
class AdaptiveParams:
    """Per-evaluation-point filter parameters derived from jump distance."""

    gamma: float
    p: int
    d: float


def hermite_polynomial(order: int, t: float) -> float:
    """Physicists' Hermite H_order(t) by the three-term recurrence."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > HERMITE_ORDER_GUARD:
        raise ValueError(f"order {order} exceeds overflow guard {HERMITE_ORDER_GUARD}")
    if order == 0:
        return 1.0
    h_prev, h = 1.0, 2.0 * t
    for k in range(1, order):
        h_prev, h = h, 2.0 * t * h - 2.0 * k * h_prev
    return h


def hdaf_kernel(p: int, gamma: float, x: float) -> float:
    """HDAF kernel (1/gamma) exp(-t^2) sum_l (-1)^l/(4^l l!) H_{2l}(t), t = x/(sqrt2 gamma)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    t = x / (math.sqrt(2.0) * gamma)
    total = 0.0
    coef = 1.0  # (-1)^l / (4^l l!)
    for l in range(p + 1):
        if l > 0:
            coef *= -1.0 / (4.0 * l)
        total += coef * hermite_polynomial(2 * l, t)
    return math.exp(-(t**2)) * total / gamma


def _sigma(p, z) -> np.ndarray:
    """exp(-z) sum_{l<=p} z^l / l! = Q(p + 1, z); p broadcasts against z.

    z carries the result's shape.  Entries with z <= _LOG_SPACE_Z use the
    direct series; the others are zeroed before it, so it cannot overflow,
    and then taken from gammaincc.
    """
    p = np.asarray(p, dtype=int)
    z = np.asarray(z, dtype=float)
    far = None
    if np.max(z, initial=0.0) > _LOG_SPACE_Z:
        far = z > _LOG_SPACE_Z
        far_sigma = gammaincc(np.broadcast_to(p, z.shape)[far] + 1, z[far])
        z = np.where(far, 0.0, z)
    term = np.ones_like(z)
    acc = np.ones_like(z)
    for l in range(1, int(p.max(initial=0)) + 1):
        term = term * z / l
        acc = acc + np.where(p >= l, term, 0.0)
    # out= keeps sigma a writable array for 0-d z too (filter_sigma)
    sigma = np.exp(-z, out=np.empty(z.shape))
    sigma *= acc
    if far is not None:
        sigma[far] = far_sigma
    return sigma


def filter_sigma(p: int, gamma: float, w: float) -> float:
    """sigma_{p,gamma}(w) in [0,1] up to roundoff; gamma = 0 gives the identity filter."""
    if p < 0:
        raise ValueError("p must be non-negative")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    return float(_sigma(p, 0.5 * (w * gamma) ** 2))


def sigma_weight_matrix(
    p: np.ndarray, gamma: np.ndarray, lam: np.ndarray, m: int
) -> np.ndarray:
    """Weights sigma_{p_i, gamma_i}(lambda_j / m) as an (npoints, nfreq) matrix."""
    p = np.asarray(p, dtype=int)
    gamma = np.asarray(gamma, dtype=float)
    return _sigma(p[:, None], 0.5 * (lam[None, :] / m * gamma[:, None]) ** 2)


def adaptive_params(x: float, m: int, cfg: FilterConfig, jumps) -> AdaptiveParams:
    """(gamma_x, p_x) from the distance of x to the jump set.

    An empty jump set is the no-filter diagnostic mode: d = +inf is
    reported but gamma = 0 / p = p_floor so all weights degenerate to 1.
    d = 0 likewise yields identity weights; the hybrid never uses filter
    values at a jump.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0,1]")
    d = distance_to_set(x, jumps)
    if not np.isfinite(d):
        return AdaptiveParams(gamma=0.0, p=cfg.p_floor, d=float("inf"))
    gamma = math.sqrt(cfg.alpha * d * m)
    p = max(cfg.p_floor, math.floor(cfg.kappa * d * m))
    return AdaptiveParams(gamma=gamma, p=p, d=float(d))


def frequency_weights(freqs: FrequencySet, params: AdaptiveParams) -> np.ndarray:
    """Per-frequency weights sigma_{p,gamma}(lambda_j / m), in [0,1] up to roundoff."""
    return _sigma(params.p, 0.5 * (freqs.frequencies / freqs.m * params.gamma) ** 2)


def _tail_bound_log(n: int, m: int, p: int, gamma: float) -> float:
    """log of e^{-z} z^p / p! with z = n^2 gamma^2 / (2 m^2); checks the hypothesis."""
    z = (n * gamma) ** 2 / (2.0 * m**2)
    if z < p:
        raise ValueError(
            f"tail-bound hypothesis violated: n^2 gamma^2/(2 m^2) = {z:.6g} < p = {p}"
        )
    return -z + (p * math.log(z) if p > 0 else 0.0) - math.lgamma(p + 1)


def tail_bound_linf(n: int, m: int, p: int, gamma: float, f_sup: float) -> float:
    """L-infinity bound 2 ||f||_inf n e^{-z} z^p / p!, z = n^2 gamma^2/(2 m^2)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return 2.0 * f_sup * n * math.exp(_tail_bound_log(n, m, p, gamma))


def tail_bound_l2(n: int, m: int, p: int, gamma: float, f_sup: float) -> float:
    """L2 bound ||f||_inf sqrt(2n) e^{-z} z^p / p!, z = n^2 gamma^2/(2 m^2)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return f_sup * math.sqrt(2.0 * n) * math.exp(_tail_bound_log(n, m, p, gamma))


def mollifier_periodized(
    p: int,
    gamma: float,
    m: int,
    x: float,
    period: float = 1.0,
    j_truncation: int | None = None,
) -> float:
    """Truncated periodization sum_j H_{p,gamma}(m (x + period j)).

    Diagnostic only.  The truncation is chosen so the Gaussian envelope of
    the farthest retained image is below 1e-16 of the central one.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    if j_truncation is None:
        # want exp(-(m period J / (sqrt2 gamma))^2) < 1e-16 relative
        width = math.sqrt(2.0) * gamma / m
        j_truncation = max(2, math.ceil((abs(x) + 7.0 * width) / period) + 1)
    return sum(
        hdaf_kernel(p, gamma, m * (x + period * j))
        for j in range(-j_truncation, j_truncation + 1)
    )
