"""Admissible-frame approximation from non-uniform Fourier samples.

The cross-correlation matrix Omega[j, l] = <psi_j, phi_l> between the
sampling exponentials psi_j = exp(2 pi i lambda_j x) and the Fourier
basis phi_l = exp(2 pi i l x) has the closed form
integral_0^1 exp(2 pi i (lambda_j - l) x) dx = e^{i pi t} sinc(t) with
t = lambda_j - l.  The modes l are integers, so e^{-i pi l} = (-1)^l and

    Omega = diag(e^{i pi lambda_j}) K diag((-1)^l),  K[j, l] = sinc(lambda_j - l):

a unitary diagonal, a real kernel and a sign diagonal.  Omega and K share
their singular values, so the truncated SVD is taken of the real K.
Reconstruction applies the truncated-SVD pseudo-inverse of Omega to the
filtered sample vector and sums the resulting 2n+1 Fourier modes.

Because the filter weights are real and enter linearly, the pseudo-inverse
is applied once per sample set: FilterReconstruction folds it with the
samples into a real synthesis matrix at construction, and that is the only
use of the SVD factors.  Every matrix product there is real.
filter_reconstruct, the one evaluation path, streams the evaluation points
through it in fixed-size blocks (filter weights, one real matrix product, a
cosine/sine mode sum), so its memory is O(block x m) rather than
O(points x m).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .filters import (
    FilterConfig,
    adaptive_param_arrays,
    sigma_weight_matrix,
)
from .sampling import FourierSamples, FrequencySet

__all__ = [
    "FrameOperator",
    "FilterReconstruction",
    "assemble_omega",
    "choose_n",
    "filter_reconstruct",
]

# size of one real (points x 2m+1) array in the streamed evaluation; it sets
# how many points filter_reconstruct handles per block
_BLOCK_BYTES = 1 << 20


def _parity(k: np.ndarray) -> np.ndarray:
    """(-1)^k for integer-valued floats k."""
    return 1.0 - 2.0 * np.abs(np.fmod(k, 2.0))


def _half_turns(lams: np.ndarray) -> np.ndarray:
    """e^{i pi lambda}, as e^{i pi (lambda - k)} (-1)^k with k = round(lambda).

    The reduced argument lambda - k is exact and lies in [-1/2, 1/2], so the
    phase keeps full accuracy at any |lambda|.
    """
    k = np.round(lams)
    return np.exp(1j * np.pi * (lams - k)) * _parity(k)


def _omega_factors(lams: np.ndarray, modes: np.ndarray):
    """(phase, kernel, sign) with Omega = phase[:, None] * kernel * sign[None, :].

    kernel[j, l] = sinc(lams_j - modes_l) is real; phase = e^{i pi lams} and
    sign = (-1)^modes, so the integer-valued modes give
    e^{i pi t} = phase_j sign_l with t = lams_j - modes_l.  The sinc form has
    no cancellation at small t, unlike
    (sin 2 pi t + i (1 - cos 2 pi t)) / (2 pi t).
    """
    return _half_turns(lams), np.sinc(lams[:, None] - modes[None, :]), _parity(modes)


def _omega_matrix(lams: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Omega[j, l] = integral_0^1 exp(2 pi i t x) dx = e^{i pi t} sinc(t), t = lams_j - modes_l.

    modes must be integer-valued; see _omega_factors.
    """
    phase, kernel, sign = _omega_factors(lams, modes)
    return phase[:, None] * (kernel * sign)


@dataclass(frozen=True)
class FrameOperator:
    """Omega with the truncated SVD of its real kernel; immutable and shareable across threads.

    omega = phase[:, None] * K * (-1)^l with K = (u * s) @ vh real: u and vh
    are the float64 SVD factors of K, and s holds the singular values of K,
    which are those of omega.  Every array is read-only.
    """

    omega: np.ndarray
    freqs: FrequencySet
    m: int
    n: int
    phase: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    vh: np.ndarray = field(repr=False)
    rel_tol: float
    effective_rank: int

    def __post_init__(self):
        for array in (self.omega, self.phase, self.u, self.s, self.vh):
            array.setflags(write=False)


def assemble_omega(freqs: FrequencySet, n: int, rel_tol: float = 1e-12) -> FrameOperator:
    """Fill Omega from the closed form and factor its real kernel K by SVD.

    Singular values below rel_tol * sigma_max are dropped from the
    pseudo-inverse; a drop below full column rank is reported as a warning
    (ill-posed frame section), not an error.  K = sinc(lambda_j - l) has the
    singular values of Omega (see the module docstring), so the rank and the
    truncation are those of Omega.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= rel_tol < 1.0:  # NaN fails too
        raise ValueError(f"rel_tol must lie in [0, 1), got {rel_tol!r}")
    if 2 * n + 1 > 2 * freqs.m + 1:
        warnings.warn(
            f"2n+1 = {2*n+1} exceeds the sample count {2*freqs.m+1}; the "
            "frame section is underdetermined",
            stacklevel=2,
        )
    modes = np.arange(-n, n + 1, dtype=float)
    phase, kernel, sign = _omega_factors(freqs.frequencies, modes)
    try:
        u, s, vh = np.linalg.svd(kernel, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"SVD of Omega failed: {exc}") from exc
    rank = int(np.count_nonzero(s >= rel_tol * s[0]))
    if rank < 2 * n + 1:
        warnings.warn(
            f"Omega effective rank {rank} < {2*n+1}: ill-posed frame section",
            stacklevel=2,
        )
    kernel *= sign  # the SVD is done with K, so it can take the signs in place
    omega = phase[:, None] * kernel
    return FrameOperator(
        omega=omega, freqs=freqs, m=freqs.m, n=n, phase=phase, u=u, s=s, vh=vh,
        rel_tol=rel_tol, effective_rank=rank,
    )


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
    S = conj(Omega)^+ diag(values).  With Omega = diag(phase) K diag(sign)
    and both diagonals unitary, conj(Omega)^+ = diag(sign) K^+ diag(phase),
    so S = diag(sign) K^+ diag(phase * values) with the real
    K^+ = vh^T diag(1/s) u^T.  Folding l with -l, which share their sign,
    turns the mode sum into
    sum_{l>=0} (c_l + c_{-l}) cos 2 pi l x + i (c_l - c_{-l}) sin 2 pi l x
    (the l = 0 term counted once).  Columns [0, 2(n+1)) give the real part's
    cosine then sine coefficients, the rest the imaginary part's; the real
    and imaginary parts of phase * values scale the rows.
    """
    r = op.effective_rank
    n = op.n
    pinv_t = (op.u[:, :r] / op.s[:r]) @ op.vh[:r]  # (K^+)^T, real (2m+1, 2n+1)
    pos = pinv_t[:, n:]  # modes 0..n
    neg = pinv_t[:, n::-1]  # modes 0..-n
    sign = _parity(np.arange(n + 1, dtype=float))
    plus = (pos + neg) * sign
    plus[:, 0] = pos[:, 0]
    minus = (pos - neg) * sign
    scaled = op.phase * values
    re = scaled.real[:, None]
    im = scaled.imag[:, None]
    return np.concatenate([plus * re, minus * -im, plus * im, minus * re], axis=1)


def _block_points(nfreq: int) -> int:
    """Evaluation points per block: one real (block x nfreq) array fills _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * nfreq))


def filter_reconstruct(recon: FilterReconstruction, xs) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the filtered reconstruction on a 1-d grid xs.

    Returns (values, imag_residual): the real part of the mode sum and the
    magnitude of its imaginary part as a numerical-health diagnostic.
    Points stream through recon.synthesis in blocks of _block_points; for
    each block the filter weights, one real matrix product and the folded
    cosine/sine sum.  The tests check it against
    oracles.frame_filtered_sum, which shares none of this code.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("grid must lie within [0,1]")
    op = recon.operator
    lam = recon.samples.freqs.frequencies
    gammas, ps, _ = adaptive_param_arrays(xs, op.m, recon.filter_cfg, recon.jumps)
    wavenumbers = 2.0 * np.pi * np.arange(op.n + 1)
    half = 2 * (op.n + 1)
    values = np.empty(xs.shape)
    imag_residual = np.empty(xs.shape)
    block = _block_points(lam.size)
    # every block reuses these: fresh multi-MiB temporaries per block can
    # cost a page fault per 4 KiB each time once malloc returns them to the OS
    rows_max = min(block, xs.size)
    folded_buf = np.empty((rows_max, 2 * half))
    phase_buf = np.empty((rows_max, op.n + 1))
    trig_buf = np.empty((rows_max, half))
    for start in range(0, xs.size, block):
        rows = slice(start, start + block)
        k = min(block, xs.size - start)
        weights = sigma_weight_matrix(ps[rows], gammas[rows], lam, op.m)
        folded = np.matmul(weights, recon.synthesis, out=folded_buf[:k])  # (k, 4(n+1))
        phase = np.multiply(xs[rows, None], wavenumbers, out=phase_buf[:k])
        trig = trig_buf[:k]
        np.cos(phase, out=trig[:, :op.n + 1])
        np.sin(phase, out=trig[:, op.n + 1:])
        values[rows] = np.einsum("ij,ij->i", folded[:, :half], trig)
        imag_residual[rows] = np.abs(np.einsum("ij,ij->i", folded[:, half:], trig))
    return values, imag_residual
