"""Hermite distributed approximating functional (HDAF) filter.

The frequency response sigma_{p,gamma}(w) = exp(-z) sum_{l<=p} z^l / l!
with z = (w gamma)^2 / 2 is the workhorse: reconstruction weights at
frequency lambda are sigma_{p,gamma}(lambda / m).  The per-point
parameters (gamma_x, p_x) grow with the distance d(x) to the nearest
jump: gamma_x = sqrt(ALPHA d m), p_x = floor(KAPPA d m), with the constants
of the paper's numerical studies.

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

import numpy as np

from .piecewise import distance_to_set

__all__ = [
    "ALPHA",
    "KAPPA",
    "filter_sigma",
    "sigma_weight_matrix",
    "adaptive_param_arrays",
    "tail_bound_l2",
]

# the adaptive rule's constants; its exponential accuracy regime needs
# ALPHA * KAPPA < 1 / (2 log(1 + sqrt 2)) ~ 0.567
ALPHA = 1.0
KAPPA = 1.0 / 15.0

_LOG_SPACE_Z = 700.0
_LOG_NEGLIGIBLE_TERM = -54.0 * math.log(2.0)  # log 2^-54; 2^-54 < half an ulp of 1


def _series_terms(p_max: int, z_max: float) -> int:
    """Number of series terms _sigma sums: p_max, or fewer where the rest cannot change a bit.

    Once l exceeds z_max the terms z^l / l! only shrink, and once the largest
    of them, z_max^l / l!, is below 2^-54, adding it to a sum >= 1 cannot
    change a bit; the series stops after that term however large p is.
    The term is carried as its logarithm: z_max^l / l! itself overflows for
    z_max above about 710, and an infinite term would never pass the test.
    """
    log_z = math.log(z_max) if z_max > 0 else -math.inf
    log_term = 0.0
    for l in range(1, p_max + 1):
        log_term += log_z - math.log(l)
        if l > z_max and log_term < _LOG_NEGLIGIBLE_TERM:
            return l
    return p_max


def _sigma(p, z, out=None) -> np.ndarray:
    """exp(-z) sum_{l<=p} z^l / l! = Q(p + 1, z); p broadcasts against z.

    z carries the result's shape; the result goes to out if given, which may
    be z itself.  Entries with z <= _LOG_SPACE_Z use the direct series; the
    others are zeroed before it, so it cannot overflow, and then taken from
    gammaincc.  The series runs by Horner's rule from its last term,
    acc <- 1 + acc * z * [l <= p] / l, so an entry with p < l restarts at 1
    and ends at its own p.  _series_terms sets the top term L from the
    largest p, and the top step, which starts from acc = 1, is formed
    directly as 1 + z [L <= p] / L; a caller that groups entries of equal p
    pays for no more passes than its largest p.
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
    terms = _series_terms(int(p.max(initial=0)), z_max)
    if terms:
        acc = z * np.where(p >= terms, 1.0 / terms, 0.0)
        acc += 1.0
        for l in range(terms - 1, 0, -1):
            acc *= z
            acc *= np.where(p >= l, 1.0 / l, 0.0)
            acc += 1.0
    # out= keeps sigma a writable array for 0-d z too (filter_sigma)
    sigma = np.negative(z, out=np.empty(z.shape) if out is None else out)
    np.exp(sigma, out=sigma)
    if terms:
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


def sigma_weight_matrix(p: np.ndarray, gamma: np.ndarray, lam: np.ndarray, m: int) -> np.ndarray:
    """Weights sigma_{p_i, gamma_i}(lambda_j / m) as an (npoints, nfreq) matrix.

    z = (lambda_j / m * gamma_i)^2 / 2 is overwritten by the weights.
    """
    p = np.asarray(p, dtype=int)
    gamma = np.asarray(gamma, dtype=float)
    z = 0.5 * np.square(lam / m * gamma[:, None])
    return _sigma(p[:, None], z, out=z)


def _order(d, m: int) -> np.ndarray:
    """The filter order p = floor(KAPPA d m) at jump distances d, as integers."""
    return np.floor(KAPPA * d * m).astype(int)


def _gamma(d, m: int) -> np.ndarray:
    """The filter scale gamma = sqrt(ALPHA d m) at jump distances d."""
    return np.sqrt(ALPHA * d * m)


def adaptive_param_arrays(xs, m: int, jumps):
    """Arrays (gamma, p, d) of the adaptive rule at points xs; d is the jump distance.

    _order and _gamma, which the frame calls too, are the only
    implementation of the rule.  An empty jump set (d = +inf, reported as
    such) is the no-filter diagnostic mode: gamma = 0 and p = 0, so all
    weights degenerate to 1.  d = 0 likewise yields identity weights; the
    hybrid never uses filter values at a jump.
    """
    d = distance_to_set(xs, jumps)
    d_rule = np.where(np.isfinite(d), d, 0.0)
    return _gamma(d_rule, m), _order(d_rule, m), d


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
