"""Admissible-frame approximation from non-uniform Fourier samples.

The cross-correlation matrix Omega[j, l] = <psi_j, phi_l> between the
sampling exponentials psi_j = exp(2 pi i lambda_j x) and the Fourier
basis phi_l = exp(2 pi i l x) has the closed form
integral_0^1 exp(2 pi i (lambda_j - l) x) dx.  Reconstruction applies the
truncated-SVD pseudo-inverse of Omega to the filtered sample vector and
sums the resulting 2n+1 Fourier modes.

Because the filter weights are real and enter linearly, the pseudo-inverse
is applied once per sample set: FilterReconstruction folds it with the
samples into a real synthesis matrix at construction.  filter_reconstruct
then streams the evaluation points through it in fixed-size blocks (filter
weights, one real matrix product, a cosine/sine mode sum), so its memory is
O(block x m) rather than O(points x m).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .filters import FilterConfig, adaptive_params, sigma_weight_matrix
from .piecewise import distance_to_set
from .sampling import FourierSamples, FrequencySet

__all__ = [
    "FrameOperator",
    "FilterReconstruction",
    "inner_product_exp",
    "assemble_omega",
    "admissibility_constant",
    "choose_n",
    "choose_n_theoretical",
    "filter_reconstruct",
    "filter_reconstruct_point",
]

_SERIES_CUTOFF = 1e-9

# size of one real (points x 2m+1) array in the streamed evaluation; it sets
# how many points filter_reconstruct handles per block
_BLOCK_BYTES = 1 << 20


def inner_product_exp(lam: float, l: int) -> complex:
    """<psi, phi_l> = integral_0^1 exp(2 pi i (lam - l) x) dx in closed form."""
    delta = lam - l
    if abs(delta) < _SERIES_CUTOFF:
        # few-term series of (e^u - 1)/u, u = 2 pi i delta, to dodge cancellation
        u = 2j * np.pi * delta
        return complex(1.0 + u / 2.0 + u**2 / 6.0 + u**3 / 24.0)
    theta = 2.0 * np.pi * delta
    return complex(math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta)


def _omega_matrix(lams: np.ndarray, modes: np.ndarray) -> np.ndarray:
    theta = 2.0 * np.pi * (lams[:, None] - modes[None, :])
    small = np.abs(theta) < 2.0 * np.pi * _SERIES_CUTOFF
    theta_safe = np.where(small, 1.0, theta)
    omega = np.sin(theta_safe) / theta_safe + 1j * (1.0 - np.cos(theta_safe)) / theta_safe
    if small.any():
        u = 1j * theta[small]
        omega[small] = 1.0 + u / 2.0 + u**2 / 6.0 + u**3 / 24.0
    return omega


@dataclass(frozen=True)
class FrameOperator:
    """Omega with its truncated SVD; immutable and shareable across threads."""

    omega: np.ndarray
    freqs: FrequencySet
    m: int
    n: int
    u: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    vh: np.ndarray = field(repr=False)
    rel_tol: float
    effective_rank: int

    def pinv_apply(self, eta: np.ndarray) -> np.ndarray:
        """Apply the Moore-Penrose pseudo-inverse (truncated SVD) to eta.

        eta has shape (2m+1,) or (2m+1, k); the result has 2n+1 rows.
        """
        r = self.effective_rank
        proj = self.u[:, :r].conj().T @ eta
        if proj.ndim > 1:
            proj = proj / self.s[:r, None]
        else:
            proj = proj / self.s[:r]
        return self.vh[:r].conj().T @ proj


def assemble_omega(freqs: FrequencySet, n: int, rel_tol: float = 1e-12) -> FrameOperator:
    """Fill Omega from the closed form and factor it by SVD.

    Singular values below rel_tol * sigma_max are dropped from the
    pseudo-inverse; a drop below full column rank is reported as a warning
    (ill-posed frame section), not an error.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if 2 * n + 1 > 2 * freqs.m + 1:
        warnings.warn(
            f"2n+1 = {2*n+1} exceeds the sample count {2*freqs.m+1}; the "
            "frame section is underdetermined",
            stacklevel=2,
        )
    modes = np.arange(-n, n + 1, dtype=float)
    omega = _omega_matrix(freqs.frequencies, modes)
    try:
        u, s, vh = np.linalg.svd(omega, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"SVD of Omega failed: {exc}") from exc
    rank = int(np.count_nonzero(s >= rel_tol * s[0]))
    if rank < 2 * n + 1:
        warnings.warn(
            f"Omega effective rank {rank} < {2*n+1}: ill-posed frame section",
            stacklevel=2,
        )
    omega.setflags(write=False)
    return FrameOperator(
        omega=omega, freqs=freqs, m=freqs.m, n=n, u=u, s=s, vh=vh,
        rel_tol=rel_tol, effective_rank=rank,
    )


def admissibility_constant(freqs: FrequencySet, n: int) -> float:
    """Smallest c0 with |Omega(j,l)| <= c0 (1 + |j - l|)^(-1) on the section."""
    modes = np.arange(-n, n + 1)
    omega = _omega_matrix(freqs.frequencies, modes.astype(float))
    j = freqs.indices
    weight = 1.0 + np.abs(j[:, None] - modes[None, :])
    return float(np.max(np.abs(omega) * weight))


def choose_n(scheme: str, m: int) -> int:
    """Empirical mode-count rules: 0.6 m (jittered), 2 m^0.6 (log), m (uniform)."""
    if m < 2:
        raise ValueError("m must be at least 2")
    if scheme == "jittered":
        n = math.floor(0.6 * m)
    elif scheme == "log":
        n = math.floor(2.0 * m**0.6)
    elif scheme == "uniform":
        n = m
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return max(1, n)


def choose_n_theoretical(A: float, c0: float, m: int) -> int:
    """n = A m / (A + 2 c0^2), floored, minimum 1."""
    if A <= 0 or c0 <= 0:
        raise ValueError("A and c0 must be positive")
    return max(1, math.floor(A * m / (A + 2.0 * c0**2)))


@dataclass(frozen=True)
class FilterReconstruction:
    """Everything needed to evaluate the filtered frame reconstruction.

    An empty jump set selects the no-filter diagnostic mode: all frequency
    weights are 1.  ``synthesis`` is derived at construction: the real
    matrix that maps a point's filter weights to the cosine and sine
    coefficients of its mode sum (see ``_folded_synthesis``).
    """

    operator: FrameOperator
    samples: FourierSamples
    filter_cfg: FilterConfig
    jumps: np.ndarray
    synthesis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.array_equal(
            self.samples.freqs.frequencies, self.operator.freqs.frequencies
        ):
            raise ValueError("operator and samples must share a frequency set")
        jumps = np.sort(np.asarray(self.jumps, dtype=float))
        jumps.setflags(write=False)
        object.__setattr__(self, "jumps", jumps)
        synthesis = _folded_synthesis(self.operator, self.samples.values)
        synthesis.setflags(write=False)
        object.__setattr__(self, "synthesis", synthesis)


def _folded_synthesis(op: FrameOperator, values: np.ndarray) -> np.ndarray:
    """Real (2m+1, 4(n+1)) matrix taking filter weights w to folded modes.

    The synthesis matrix mapping mode coefficients to samples is the
    entrywise conjugate of Omega, so the least-squares coefficients of the
    filtered samples w * values are c = S w with
    S = conj(Omega)^+ diag(values) = conj(V) diag(1/s) U^T diag(values).
    Folding l with -l turns the mode sum into
    sum_{l>=0} (c_l + c_{-l}) cos 2 pi l x + i (c_l - c_{-l}) sin 2 pi l x
    (the l = 0 term counted once).  Columns [0, 2(n+1)) give the real part's
    cosine then sine coefficients, the rest the imaginary part's.
    """
    r = op.effective_rank
    synth = (op.vh[:r].T @ (op.u[:, :r].T / op.s[:r, None])) * values[None, :]
    pos = synth[op.n:]  # modes 0..n
    neg = synth[op.n::-1]  # modes 0..-n
    plus = pos + neg
    plus[0] = pos[0]
    minus = pos - neg
    folded = np.concatenate([plus.real, -minus.imag, plus.imag, minus.real])
    return np.ascontiguousarray(folded.T)


def _point_params(recon: FilterReconstruction, xs: np.ndarray):
    """Arrays of (gamma, p) for each evaluation point.

    Vectorized adaptive_params with the same expressions, so the results
    are bitwise equal.  An empty jump set (d = inf) gives gamma = 0 and
    p = p_floor, as does a point on a jump (d = 0).
    """
    cfg = recon.filter_cfg
    m = recon.operator.m
    d = distance_to_set(xs, recon.jumps)
    d = np.where(np.isfinite(d), d, 0.0)
    gammas = np.sqrt(cfg.alpha * d * m)
    ps = np.maximum(cfg.p_floor, np.floor(cfg.kappa * d * m).astype(int))
    return gammas, ps


def _block_points(nfreq: int) -> int:
    """Evaluation points per block: one real (block x nfreq) array fills _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * nfreq))


def filter_reconstruct(recon: FilterReconstruction, xs) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the filtered reconstruction on a grid.

    Returns (values, imag_residual): the real part of the mode sum and the
    magnitude of its imaginary part as a numerical-health diagnostic.
    Points stream through recon.synthesis in blocks of _block_points; for
    each block the filter weights, one real matrix product and the folded
    cosine/sine sum.  Equality with the per-point path is a tested
    invariant.
    """
    xs = np.asarray(xs, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("grid must lie within [0,1]")
    op = recon.operator
    lam = recon.samples.freqs.frequencies
    gammas, ps = _point_params(recon, xs)
    wavenumbers = 2.0 * np.pi * np.arange(op.n + 1)
    half = 2 * (op.n + 1)
    values = np.empty(xs.shape)
    imag_residual = np.empty(xs.shape)
    block = _block_points(lam.size)
    for start in range(0, xs.size, block):
        rows = slice(start, start + block)
        weights = sigma_weight_matrix(ps[rows], gammas[rows], lam, op.m)
        folded = weights @ recon.synthesis  # (block, 4(n+1))
        phase = xs[rows, None] * wavenumbers
        trig = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
        values[rows] = np.einsum("ij,ij->i", folded[:, :half], trig)
        imag_residual[rows] = np.abs(np.einsum("ij,ij->i", folded[:, half:], trig))
    if scalar:
        return float(values[0]), float(imag_residual[0])
    return values, imag_residual


def filter_reconstruct_point(recon: FilterReconstruction, x: float) -> tuple[float, float]:
    """Naive per-point path: one weight vector, one solve, one mode sum."""
    op = recon.operator
    params = adaptive_params(float(x), op.m, recon.filter_cfg, recon.jumps)
    from .filters import frequency_weights

    w = frequency_weights(recon.samples.freqs, params)
    eta = w * recon.samples.values
    c = np.conj(op.pinv_apply(np.conj(eta)))
    modes = np.arange(-op.n, op.n + 1)
    total = np.sum(c * np.exp(2j * np.pi * modes * x))
    return float(total.real), float(abs(total.imag))
