"""Admissible-frame approximation from Fourier samples at arbitrary frequencies.

The cross-correlation matrix Omega[j, l] = <psi_j, phi_l> between the
sampling exponentials psi_j = exp(2 pi i lambda_j x) and the Fourier
basis phi_l = exp(2 pi i l x) has the closed form
integral_0^1 exp(2 pi i (lambda_j - l) x) dx = e^{i pi t} sinc(t) with
t = lambda_j - l.  The modes l are integers, so e^{-i pi l} = (-1)^l and

    Omega = diag(e^{i pi lambda_j}) K diag((-1)^l),  K[j, l] = sinc(lambda_j - l):

a unitary diagonal, a real kernel and a sign diagonal.  Omega and K share
their singular values, so the frame is factored through the real K alone,
and assemble_omega keeps one matrix per sample set, the real (2m+1, 2n+1)
transpose (K^+)^T of K's pseudo-inverse.  m and Omega itself are read from
the frequency set on request (FrameOperator.m, .omega).

A stable frame section, the generalized-sampling setting of Adcock,
Gataric & Hansen, has full column rank (2n+1 <= 2m+1), so any other frame
is refused: n > m raises ValueError, and a K with s_min < _REL_TOL * s_max
raises RuntimeError naming both singular values.  When s_min / s_max >=
_GRAM_MIN_RATIO (cond(K) <= 100), the SVD is not needed: the singular
values come from the eigenvalues of the (2n+1)^2 Gram matrix G = K^T K and
(K^+)^T = K G^{-1} from one solve with G.  An ill-conditioned frame takes
the SVD of K.  The module takes a frequency set and a mode count n and
nothing else; the rules that choose them live with the caller.

Reconstruction applies the pseudo-inverse of Omega to the filtered sample
vector and sums the resulting 2n+1 Fourier modes.  filter_reconstruct, the
one evaluation path, streams the evaluation points in fixed-size blocks:
filter weights, one real matrix product with (K^+)^T, and a cosine/sine sum
over the folded modes, so its memory is O(block x m) rather than
O(points x m).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filters import adaptive_param_arrays, sigma_weight_matrix
from .sampling import FourierSamples, FrequencySet

__all__ = [
    "FrameOperator",
    "FilterReconstruction",
    "assemble_omega",
    "filter_reconstruct",
]

# size of one real (points x 2m+1) array in the streamed evaluation; it sets
# how many points filter_reconstruct handles per block
_BLOCK_BYTES = 1 << 20

# smallest s_min / s_max of K for which assemble_omega skips the SVD and
# takes the Gram route; that route's error grows like eps cond(K)^2, so
# cond(K) <= 100 keeps it near 1e-12
_GRAM_MIN_RATIO = 1e-2

# a K with s_min < _REL_TOL * s_max is refused as rank-deficient; only the
# SVD route can meet one, since the Gram route requires
# s_min >= _GRAM_MIN_RATIO * s_max
_REL_TOL = 1e-12


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

    The kernel is np.sinc(t) in np.sinc's operation order, bit for bit, but
    pi t is formed in place, so sin(pi t) / (pi t) is the only other
    (2m+1, 2n+1) array; np.sinc holds four at once.
    """
    x = np.subtract.outer(lams, modes)
    x *= np.pi
    x[x == 0] = np.finfo(float).eps
    kernel = np.sin(x)
    kernel /= x
    return _half_turns(lams), kernel, _parity(modes)


def _omega_matrix(lams: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Omega[j, l] = integral_0^1 exp(2 pi i t x) dx = e^{i pi t} sinc(t), t = lams_j - modes_l.

    modes must be integer-valued; see _omega_factors.
    """
    phase, kernel, sign = _omega_factors(lams, modes)
    return phase[:, None] * (kernel * sign)


@dataclass(frozen=True)
class FrameOperator:
    """The frame section's pseudo-inverse; immutable and shareable across threads.

    Omega = phase[:, None] * K * (-1)^l with the real kernel K; pinv_t is the
    real (2m+1, 2n+1) matrix (K^+)^T of K's pseudo-inverse, and s holds the
    singular values of K, which are those of Omega.  m and Omega are not
    stored: ``m`` reads freqs.m, and ``omega`` builds Omega from the
    frequencies on each access.  Every stored array is read-only.
    """

    freqs: FrequencySet
    n: int
    phase: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    pinv_t: np.ndarray = field(repr=False)

    def __post_init__(self):
        for array in (self.phase, self.s, self.pinv_t):
            array.setflags(write=False)

    @property
    def m(self) -> int:
        return self.freqs.m

    @property
    def effective_rank(self) -> int:
        """Omega's rank: assemble_omega refuses any frame below full column rank 2n+1."""
        return 2 * self.n + 1

    @property
    def omega(self) -> np.ndarray:
        """The complex (2m+1, 2n+1) matrix Omega, built anew on each access."""
        return _omega_matrix(self.freqs.frequencies, np.arange(-self.n, self.n + 1, dtype=float))


def _linalg_step(step: str, solver, *args, **kwargs):
    """solver(*args, **kwargs), with a LinAlgError turned into a RuntimeError naming step."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"frame: {step} failed: {exc}") from exc


def assemble_omega(freqs: FrequencySet, n: int) -> FrameOperator:
    """Factor the real kernel K of Omega and keep its pseudo-inverse.

    K = sinc(lambda_j - l) has the singular values of Omega (see the module
    docstring).  n must lie in [1, m], so that K is tall or square.  Two
    routes give the singular values s and (K^+)^T:

    * Gram route, when s_min / s_max reaches _GRAM_MIN_RATIO: s from the
      eigenvalues of G = K^T K, and (K^+)^T = K G^{-1} by one solve with G.
    * SVD route, for every other frame: (K^+)^T = U diag(1/s) V^T.  A K with
      s_min < _REL_TOL * s_max is rank-deficient, its pseudo-inverse would
      amplify roundoff past 1e12, and it raises RuntimeError instead.

    A LinAlgError from either route is raised as a RuntimeError that names
    the failed step.
    """
    if not 1 <= n <= freqs.m:
        raise ValueError(
            f"n must lie in [1, m] = [1, {freqs.m}], since the 2n+1 modes may not "
            f"outnumber the 2m+1 samples; got n = {n}"
        )
    modes = np.arange(-n, n + 1, dtype=float)
    phase, kernel, _ = _omega_factors(freqs.frequencies, modes)
    gram = kernel.T @ kernel
    eigenvalues = _linalg_step("eigenvalues of K^T K", np.linalg.eigvalsh, gram)
    s = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    if s[-1] >= _GRAM_MIN_RATIO * s[0]:
        pinv = _linalg_step("solve with K^T K", np.linalg.solve, gram, kernel.T)
        return FrameOperator(freqs=freqs, n=n, phase=phase, s=s, pinv_t=pinv.T)
    u, s, vh = _linalg_step("SVD of K", np.linalg.svd, kernel, full_matrices=False)
    if s[-1] < _REL_TOL * s[0]:
        raise RuntimeError(
            f"frame: rank-deficient Omega: s_min = {s[-1]:.3e} < "
            f"{_REL_TOL:g} * s_max, s_max = {s[0]:.3e}"
        )
    return FrameOperator(freqs=freqs, n=n, phase=phase, s=s, pinv_t=(u / s) @ vh)


@dataclass(frozen=True)
class FilterReconstruction:
    """Everything needed to evaluate the filtered frame reconstruction.

    An empty jump set selects the no-filter diagnostic mode: all frequency
    weights are 1.
    """

    operator: FrameOperator
    samples: FourierSamples
    jumps: np.ndarray

    def __post_init__(self):
        if not np.array_equal(
            self.samples.freqs.frequencies, self.operator.freqs.frequencies
        ):
            raise ValueError("operator and samples must share a frequency set")
        jumps = np.sort(np.asarray(self.jumps, dtype=float))
        jumps.setflags(write=False)
        object.__setattr__(self, "jumps", jumps)


def _block_points(nfreq: int) -> int:
    """Evaluation points per block: one real (block x nfreq) array fills _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * nfreq))


def filter_reconstruct(recon: FilterReconstruction, xs) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the filtered reconstruction on a 1-d grid xs.

    Returns (values, imag_residual): the real part of the mode sum and the
    magnitude of its imaginary part as a numerical-health diagnostic.

    The synthesis matrix mapping mode coefficients to samples is the
    entrywise conjugate of Omega, so a point with filter weights w has the
    least-squares coefficients c = conj(Omega)^+ (w * values).  With
    Omega = diag(phase) K diag(sign) and both diagonals unitary,
    conj(Omega)^+ = diag(sign) K^+ diag(phase), so
    c = sign * (K^+ (w * psi)) with psi = phase * values.  Folding l with
    -l, which share their sign, turns the mode sum into
    sum_{l>=0} (c_l + c_{-l}) cos 2 pi l x + i (c_l - c_{-l}) sin 2 pi l x
    (the l = 0 term counted once), so the fold and the signs are applied
    to the columns of (K^+)^T, once per call, and the folded matrix is
    scaled by the rows Re psi and Im psi side by side into one real
    (2m+1, 4(n+1)) matrix.  The points stream in blocks of _block_points:
    one real product of the block's weights W with it gives the cosine and
    sine coefficients of the real and imaginary parts of every point's mode
    sum.  The tests check it against oracles.frame_filtered_sum, which
    shares none of this code.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("grid must lie within [0,1]")
    op = recon.operator
    n = op.n
    lam = recon.samples.freqs.frequencies
    psi = op.phase * recon.samples.values
    gammas, ps, _ = adaptive_param_arrays(xs, op.m, recon.jumps)
    # columns [0, n] give c_l + c_{-l} and [n+1, 2n+1] c_l - c_{-l} for
    # l = 0..n, from Re psi; columns [2n+2, 4n+3] the same from Im psi
    pos = op.pinv_t[:, n:]  # modes 0..n
    neg = op.pinv_t[:, n::-1]  # modes 0..-n
    folded = np.empty((lam.size, 4 * (n + 1)))
    re_part, im_part = folded[:, :2 * (n + 1)], folded[:, 2 * (n + 1):]
    np.add(pos, neg, out=re_part[:, :n + 1])
    re_part[:, 0] = pos[:, 0]
    np.subtract(pos, neg, out=re_part[:, n + 1:])
    sign = _parity(np.arange(n + 1, dtype=float))
    re_part *= np.concatenate([sign, sign])
    np.multiply(re_part, psi.imag[:, None], out=im_part)
    re_part *= psi.real[:, None]
    wavenumbers = 2.0 * np.pi * np.arange(n + 1)
    values = np.empty(xs.shape)
    imag_residual = np.empty(xs.shape)
    block = _block_points(lam.size)
    # every block reuses these: fresh multi-MiB temporaries per block can
    # cost a page fault per 4 KiB each time once malloc returns them to the OS
    rows_max = min(block, xs.size)
    weights_buf = np.empty((rows_max, lam.size))
    coef_buf = np.empty((rows_max, 4 * (n + 1)))
    cos_buf = np.empty((rows_max, n + 1))
    sin_buf = np.empty((rows_max, n + 1))
    for start in range(0, xs.size, block):
        rows = slice(start, start + block)
        k = min(block, xs.size - start)
        weights = sigma_weight_matrix(ps[rows], gammas[rows], lam, op.m, out=weights_buf[:k])
        coef = np.matmul(weights, folded, out=coef_buf[:k])
        plus_re, minus_re, plus_im, minus_im = np.split(coef, 4, axis=1)
        angle = np.multiply(xs[rows, None], wavenumbers, out=cos_buf[:k])
        sin = np.sin(angle, out=sin_buf[:k])
        cos = np.cos(angle, out=angle)
        values[rows] = (
            np.einsum("ij,ij->i", plus_re, cos) - np.einsum("ij,ij->i", minus_im, sin)
        )
        imag_residual[rows] = np.abs(
            np.einsum("ij,ij->i", plus_im, cos) + np.einsum("ij,ij->i", minus_re, sin)
        )
    return values, imag_residual
