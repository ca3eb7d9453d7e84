"""Hermite distributed approximating functional (HDAF) filter.

The frequency response sigma_{p,gamma}(w) = exp(-z) sum_{l<=p} z^l / l!
with z = (w gamma)^2 / 2 is the workhorse: reconstruction weights at
frequency lambda are sigma_{p,gamma}(lambda / m).  The per-point
parameters (gamma_x, p_x) grow with the distance d(x) to the nearest
jump: gamma_x = sqrt(alpha d m), p_x = floor(kappa d m).

The response is the regularized upper incomplete gamma function
Q(p + 1, z) (DLMF 8.4.10), and one kernel, _sigma, evaluates it for every
caller.  For z <= 700 it sums the series directly, by Horner's rule: every
intermediate sum is at most e^z < 1e305, z times it stays finite, and e^-z
is a normal float, so the sum is exact to roundoff and cheap.  Above 700,
where z^l / l! overflows while e^-z underflows, it switches to
scipy.special.gammaincc, imported only then.

tail_bound_l2 evaluates the L2 bound on the mollified projection error,
with all constants caller-supplied.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .piecewise import distance_to_set

__all__ = [
    "FilterConfig",
    "filter_sigma",
    "sigma_weight_matrix",
    "adaptive_param_arrays",
    "check_rule_range",
    "tail_bound_l2",
]

# alpha * kappa must stay below this for the adaptive rule's exponential
# accuracy regime
ALPHA_KAPPA_LIMIT = 1.0 / (2.0 * math.log(1.0 + math.sqrt(2.0)))

_LOG_SPACE_Z = 700.0
# below half an ulp of 1, so adding it to a sum >= 1 rounds back
_NEGLIGIBLE_TERM = 2.0**-54


@dataclass(frozen=True)
class FilterConfig:
    """Adaptive filter constants; defaults follow the numerical studies."""

    alpha: float = 1.0
    kappa: float = 1.0 / 15.0

    def __post_init__(self):
        # written so that NaN fails too
        if not (0 < self.alpha < math.inf and 0 < self.kappa < math.inf):
            raise ValueError(
                f"alpha and kappa must be positive and finite, got "
                f"alpha={self.alpha!r}, kappa={self.kappa!r}"
            )
        if self.alpha * self.kappa >= ALPHA_KAPPA_LIMIT:
            warnings.warn(
                f"alpha*kappa = {self.alpha * self.kappa:.6g} >= "
                f"{ALPHA_KAPPA_LIMIT:.6g}; exponential-accuracy regime not "
                "guaranteed",
                stacklevel=3,  # past the dataclass __init__ to its caller
            )


def _series_terms(p_max: int, z_max: float) -> int:
    """Number of series terms _sigma sums: p_max, or fewer where the rest cannot change a bit.

    Once l exceeds z_max the terms z^l / l! only shrink, and once the largest
    of them, z_max^l / l!, is below 2^-54, adding it to a sum >= 1 cannot
    change a bit; the series stops after that term however large p is.
    """
    term = 1.0
    for l in range(1, p_max + 1):
        term = term * z_max / l
        if l > z_max and term < _NEGLIGIBLE_TERM:
            return l
    return p_max


def _sigma(p, z, out=None) -> np.ndarray:
    """exp(-z) sum_{l<=p} z^l / l! = Q(p + 1, z); p broadcasts against z.

    z carries the result's shape; the result goes to out if given, which may
    be z itself.  Entries with z <= _LOG_SPACE_Z use the direct series; the
    others are zeroed before it, so it cannot overflow, and then taken from
    gammaincc.  The series runs by Horner's rule from its last term,
    acc <- 1 + acc * z * [l <= p] / l, so an entry with p < l restarts at 1
    and ends at its own p; _series_terms sets where it starts.
    """
    p = np.asarray(p, dtype=int)
    z = np.asarray(z, dtype=float)
    z_max = float(np.max(z, initial=0.0))
    far = None
    if z_max > _LOG_SPACE_Z:
        from scipy.special import gammaincc

        far = z > _LOG_SPACE_Z
        far_sigma = gammaincc(np.broadcast_to(p, z.shape)[far] + 1, z[far])
        z = np.where(far, 0.0, z)
        z_max = float(np.max(z))
    acc = np.ones(z.shape)
    for l in range(_series_terms(int(p.max(initial=0)), z_max), 0, -1):
        acc *= z
        acc *= np.where(p >= l, 1.0 / l, 0.0)
        acc += 1.0
    # out= keeps sigma a writable array for 0-d z too (filter_sigma)
    sigma = np.negative(z, out=np.empty(z.shape) if out is None else out)
    np.exp(sigma, out=sigma)
    sigma *= acc
    if far is not None:
        sigma[far] = far_sigma
    return sigma


def filter_sigma(p: int, gamma: float, w: float) -> float:
    """sigma_{p,gamma}(w) in [0,1] up to roundoff; gamma = 0 gives the identity filter."""
    if p < 0:
        raise ValueError("p must be non-negative")
    if not (0 <= gamma < math.inf and math.isfinite(w)):  # NaN fails too
        raise ValueError(f"need finite gamma >= 0 and finite w, got gamma={gamma!r}, w={w!r}")
    return float(_sigma(p, 0.5 * (w * gamma) ** 2))


def sigma_weight_matrix(
    p: np.ndarray, gamma: np.ndarray, lam: np.ndarray, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Weights sigma_{p_i, gamma_i}(lambda_j / m) as an (npoints, nfreq) matrix.

    z = (lambda_j / m * gamma_i)^2 / 2 is formed in out if given, and
    overwritten there by the weights.
    """
    p = np.asarray(p, dtype=int)
    gamma = np.asarray(gamma, dtype=float)
    z = np.multiply(lam / m, gamma[:, None], out=out)
    np.square(z, out=z)
    z *= 0.5
    return _sigma(p[:, None], z, out=z)


def check_rule_range(alpha: float, kappa: float, d_max: float, m: int) -> None:
    """Raise ValueError naming alpha or kappa if the rule overflows at distance d_max.

    gamma^2 = alpha d m must be finite and p = floor(kappa d m) must fit int64.
    """
    if not math.isfinite(alpha * d_max * m):
        raise ValueError(f"alpha = {alpha!r} overflows gamma^2 = alpha*d*m at m = {m}")
    if not kappa * d_max * m < 2.0**63:
        raise ValueError(
            f"kappa = {kappa!r} puts p = floor(kappa*d*m) outside int64 at m = {m}"
        )


def adaptive_param_arrays(xs, m: int, cfg: FilterConfig, jumps):
    """Arrays (gamma, p, d) of the adaptive rule at points xs; d is the jump distance.

    This is the only implementation of the rule.  An empty jump set
    (d = +inf, reported as such) is the no-filter diagnostic mode: gamma = 0
    and p = 0, so all weights degenerate to 1.  d = 0 likewise yields
    identity weights; the hybrid never uses filter values at a jump.
    A constant so large that gamma^2 overflows or p leaves the int64 range
    raises ValueError naming it.
    """
    d = distance_to_set(xs, jumps)
    d_rule = np.where(np.isfinite(d), d, 0.0)
    # Python floats overflow to inf silently, so this runs before numpy warns
    check_rule_range(cfg.alpha, cfg.kappa, float(np.max(d_rule, initial=0.0)), m)
    gamma = np.sqrt(cfg.alpha * d_rule * m)
    p = np.floor(cfg.kappa * d_rule * m).astype(int)
    return gamma, p, d


def tail_bound_l2(n: int, m: int, p: int, gamma: float, f_sup: float) -> float:
    """L2 bound ||f||_inf sqrt(2n) e^{-z} z^p / p!, z = n^2 gamma^2/(2 m^2).

    The bound needs z >= p; a violation raises ValueError.
    """
    if not (0 < gamma < math.inf and 0 <= f_sup < math.inf):  # NaN fails too
        raise ValueError(f"need finite gamma > 0 and f_sup >= 0, got gamma={gamma!r}, f_sup={f_sup!r}")
    z = (n * gamma) ** 2 / (2.0 * m**2)
    if z < p:
        raise ValueError(
            f"tail-bound hypothesis violated: n^2 gamma^2/(2 m^2) = {z:.6g} < p = {p}"
        )
    log_tail = -z + (p * math.log(z) if p > 0 else 0.0) - math.lgamma(p + 1)
    return f_sup * math.sqrt(2.0 * n) * math.exp(log_tail)
