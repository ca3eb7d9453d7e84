"""Admissible-frame approximation from Fourier samples at arbitrary frequencies.

The cross-correlation matrix Omega[j, l] = <psi_j, phi_l> between the
sampling exponentials psi_j = exp(2 pi i lambda_j x) and the Fourier
basis phi_l = exp(2 pi i l x) has the closed form
integral_0^1 exp(2 pi i (lambda_j - l) x) dx = e^{i pi t} sinc(t) with
t = lambda_j - l.  The modes l are integers, so e^{-i pi l} = (-1)^l and

    Omega = diag(e^{i pi lambda_j}) K diag((-1)^l),  K[j, l] = sinc(lambda_j - l):

a unitary diagonal, a real kernel and a sign diagonal.  Omega and K share
their singular values, so the frame is factored through the real K alone,
and assemble_omega keeps one matrix per sample set: the real
(2m+1, 2(n+1)) matrix F, the columns of the transpose (K^+)^T of K's
pseudo-inverse folded over +-l and signed,

    F[:, l] = (-1)^l (P[:, l] + P[:, -l]),  F[:, n+1+l] = (-1)^l (P[:, l] - P[:, -l]),

for l = 0..n with P = (K^+)^T indexed by mode (the l = 0 column holds
P[:, 0] once).  The mode sum of a coefficient vector c = sign * (K^+ v)
is then sum_l (c_l + c_{-l}) cos 2 pi l x + i (c_l - c_{-l}) sin 2 pi l x
with both brackets read from F.  m, Omega and (K^+)^T itself are rebuilt
on request (FrameOperator.m, .omega, .pinv_t).

A stable frame section, the generalized-sampling setting of Adcock,
Gataric & Hansen, has full column rank (2n+1 <= 2m+1), so any other frame
is refused: n > m raises ValueError, and a K with s_min < _REL_TOL * s_max
raises RuntimeError naming both singular values.  When s_min / s_max >=
_GRAM_MIN_RATIO (cond(K) <= 100), the SVD is not needed: the singular
values come from the eigenvalues of the (2n+1)^2 Gram matrix G = K^T K, and
F = K fold(G^{-1}) from the inverse of G, since (K^+)^T = K G^{-1} and the
fold acts on columns.  An ill-conditioned frame takes the SVD of K and
F = (U / s) fold(V^T).  The module takes a frequency set and a mode count n and
nothing else; the rules that choose them live with the caller.

Reconstruction applies the pseudo-inverse of Omega to the filtered sample
vector and sums the resulting 2n+1 Fourier modes.  filter_reconstruct, the
one evaluation path, streams the evaluation points in fixed-size blocks,
grouped by their filter order p, and contracts the modes first: the
cosines and sines of a block times the two halves of F, then the block's
filter weights and the samples, so its memory is O(block x m) rather than
O(points x m).  The cosines and sines of 2 pi l x, l = 0..n, come from
e^{2 pi i l x} built by angle doubling: ceil(log2(n+1)) exponentials and
one complex product per mode, not a sin and a cos per point and mode.
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

# size of one real block array: it sets how many points filter_reconstruct
# handles per block, (points x 2m+1), and how many rows of K are built at
# once, (rows x 2n+1)
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
    it is built in row blocks of _block_points, so pi t is never a
    (2m+1, 2n+1) array; np.sinc holds four such arrays at once.
    """
    kernel = np.empty((lams.size, modes.size))
    rows = _block_points(modes.size)
    for start in range(0, lams.size, rows):
        x = np.subtract.outer(lams[start:start + rows], modes)
        x *= np.pi
        x[x == 0] = np.finfo(float).eps
        block = np.sin(x, out=kernel[start:start + rows])
        block /= x
    return _half_turns(lams), kernel, _parity(modes)


def _omega_matrix(lams: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Omega[j, l] = integral_0^1 exp(2 pi i t x) dx = e^{i pi t} sinc(t), t = lams_j - modes_l.

    modes must be integer-valued; see _omega_factors.
    """
    phase, kernel, sign = _omega_factors(lams, modes)
    return phase[:, None] * (kernel * sign)


def _fold(a: np.ndarray, n: int) -> np.ndarray:
    """The columns of a, indexed by modes -n..n, folded over +-l and signed.

    Returns the (rows, 2(n+1)) matrix whose column l is
    (-1)^l (a_l + a_{-l}) and column n+1+l is (-1)^l (a_l - a_{-l}), for
    l = 0..n; column 0 holds a_0 once, and column n+1 is 0.
    """
    pos = a[:, n:]  # modes 0..n
    neg = a[:, n::-1]  # modes 0..-n
    folded = np.empty((a.shape[0], 2 * (n + 1)))
    plus, minus = folded[:, :n + 1], folded[:, n + 1:]
    np.add(pos, neg, out=plus)
    plus[:, 0] = pos[:, 0]
    np.subtract(pos, neg, out=minus)
    folded *= np.tile(_parity(np.arange(n + 1, dtype=float)), 2)
    return folded


@dataclass(frozen=True)
class FrameOperator:
    """The frame section's pseudo-inverse; immutable and shareable across threads.

    Omega = phase[:, None] * K * (-1)^l with the real kernel K; folded is the
    real (2m+1, 2(n+1)) matrix F of the module docstring, the signed fold of
    (K^+)^T, and s holds the singular values of K, which are those of Omega.
    m, Omega and (K^+)^T are not stored: ``m`` reads freqs.m, ``omega``
    builds Omega from the frequencies and ``pinv_t`` unfolds F, on each
    access.  Every array, stored or rebuilt, is read-only.
    """

    freqs: FrequencySet
    n: int
    phase: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    folded: np.ndarray = field(repr=False)

    def __post_init__(self):
        for array in (self.phase, self.s, self.folded):
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

    @property
    def pinv_t(self) -> np.ndarray:
        """The real (2m+1, 2n+1) matrix (K^+)^T, unfolded from F on each access."""
        n = self.n
        sign = _parity(np.arange(n + 1, dtype=float))
        plus = self.folded[:, :n + 1] * sign
        minus = self.folded[:, n + 1:] * sign
        pinv_t = np.empty((plus.shape[0], 2 * n + 1))
        np.add(plus, minus, out=pinv_t[:, n:])
        np.subtract(plus, minus, out=pinv_t[:, n::-1])
        pinv_t *= 0.5
        pinv_t[:, n] = plus[:, 0]
        pinv_t.setflags(write=False)
        return pinv_t


def _linalg_step(step: str, solver, *args, **kwargs):
    """solver(*args, **kwargs), with a LinAlgError turned into a RuntimeError naming step."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"frame: {step} failed: {exc}") from exc


def assemble_omega(freqs: FrequencySet, n: int) -> FrameOperator:
    """Factor the real kernel K of Omega and keep its folded pseudo-inverse.

    K = sinc(lambda_j - l) has the singular values of Omega (see the module
    docstring).  n must lie in [1, m], so that K is tall or square.  Two
    routes give the singular values s and F, the fold of (K^+)^T:

    * Gram route, when s_min / s_max reaches _GRAM_MIN_RATIO: s from the
      eigenvalues of G = K^T K, and F = K fold(G^{-1}) with G^{-1} from
      np.linalg.inv of the symmetric positive definite G.
    * SVD route, for every other frame: (K^+)^T = U diag(1/s) V^T, so
      F = (U / s) fold(V^T).  A K with s_min < _REL_TOL * s_max is
      rank-deficient, its pseudo-inverse would amplify roundoff past 1e12,
      and it raises RuntimeError instead.

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
        folded_inverse = _fold(_linalg_step("inverse of K^T K", np.linalg.inv, gram), n)
        # freed first, so that K, G, fold(G^{-1}) and F are never held at once
        del gram
        return FrameOperator(freqs=freqs, n=n, phase=phase, s=s, folded=kernel @ folded_inverse)
    u, s, vh = _linalg_step("SVD of K", np.linalg.svd, kernel, full_matrices=False)
    if s[-1] < _REL_TOL * s[0]:
        raise RuntimeError(
            f"frame: rank-deficient Omega: s_min = {s[-1]:.3e} < "
            f"{_REL_TOL:g} * s_max, s_max = {s[0]:.3e}"
        )
    return FrameOperator(freqs=freqs, n=n, phase=phase, s=s, folded=(u / s) @ _fold(vh, n))


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


def _block_points(ncol: int) -> int:
    """Rows per block: one real (block x ncol) array fills _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * ncol))


def _unit_powers(xs: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """out[l] = e^{2 pi i l x} for l = 0..n and the points xs, by angle doubling.

    out is a complex (n+1, xs.size) array.  Rows h..2h-1 are rows 0..h-1
    times e^{2 pi i h x} for h = 1, 2, 4, ..., so a point costs
    ceil(log2(n+1)) exponentials and one complex product per mode, and row l
    carries one rounding per set bit of l.  h x is exact for a power of two
    h, so the exponential takes its exact fractional part, in [-1/2, 1/2].
    """
    out[0] = 1.0
    h = 1
    while h <= n:
        turns = h * xs
        turns -= np.round(turns)
        top = min(2 * h, n + 1)
        np.multiply(out[:top - h], np.exp(2j * np.pi * turns), out=out[h:top])
        h *= 2
    return out


def filter_reconstruct(recon: FilterReconstruction, xs) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the filtered reconstruction on a 1-d grid xs.

    Returns (values, imag_residual): the real part of the mode sum and the
    magnitude of its imaginary part as a numerical-health diagnostic.

    The synthesis matrix mapping mode coefficients to samples is the
    entrywise conjugate of Omega, so a point with filter weights w has the
    least-squares coefficients c = conj(Omega)^+ (w * values).  With
    Omega = diag(phase) K diag(sign) and both diagonals unitary,
    conj(Omega)^+ = diag(sign) K^+ diag(phase), so
    c = sign * (K^+ (w * psi)) with psi = phase * values, and the mode sum
    at x is sum_j w_j psi_j (A_j + i B_j) with A = F_+ cos(2 pi l x) and
    B = F_- sin(2 pi l x), F_+ and F_- the two halves of the stored fold F.
    The points stream in blocks of _block_points, taken in order of their
    filter order p (one stable argsort; the results are scattered back to
    the caller's order), so each block's sigma series stops at the block's
    own largest p.  Each block contracts the modes first: its cosines and
    sines come from the complex (n+1, block) table of _unit_powers, built
    by angle doubling with no sin or cos per point and mode; A and B are
    two real (block, n+1) x (n+1, 2m+1) products, scaled in place by the
    block's weights W, and then values = (W A) Re psi - (W B) Im psi and the
    imaginary part (W A) Im psi + (W B) Re psi.  The tests check it against
    oracles.frame_filtered_sum, which shares none of this code.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"grid must be 1-d, got shape {xs.shape}")
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("grid must lie within [0,1]")
    op = recon.operator
    n = op.n
    lam = recon.samples.freqs.frequencies
    psi = op.phase * recon.samples.values
    # (2m+1, 2) columns Re psi and Im psi
    psi_parts = np.stack([psi.real, psi.imag], axis=1)
    gammas, ps, _ = adaptive_param_arrays(xs, op.m, recon.jumps)
    # blocks of equal p: each block's sigma series stops at its own largest p
    order = np.argsort(ps, kind="stable")
    plus_t = op.folded[:, :n + 1].T
    minus_t = op.folded[:, n + 1:].T
    values = np.empty(xs.shape)
    imag_residual = np.empty(xs.shape)
    block = _block_points(lam.size)
    # every block reuses these: fresh multi-MiB temporaries per block can
    # cost a page fault per 4 KiB each time once malloc returns them to the OS
    rows_max = min(block, xs.size)
    weights_buf = np.empty((rows_max, lam.size))
    modes_buf = np.empty((2, rows_max, lam.size))
    # the complex (n+1, block) table of e^{2 pi i l x} lives in modes_buf
    # (n <= m) until the products below overwrite it
    table_buf = modes_buf.reshape(-1).view(complex)
    cos_buf = np.empty((n + 1) * rows_max)
    sin_buf = np.empty((n + 1) * rows_max)
    for start in range(0, xs.size, block):
        rows = order[start:start + block]
        k = rows.size
        weights = sigma_weight_matrix(ps[rows], gammas[rows], lam, op.m, out=weights_buf[:k])
        table = _unit_powers(xs[rows], n, table_buf[:(n + 1) * k].reshape(n + 1, k))
        cos = cos_buf[:(n + 1) * k].reshape(n + 1, k)
        sin = sin_buf[:(n + 1) * k].reshape(n + 1, k)
        np.copyto(cos, table.real)
        np.copyto(sin, table.imag)
        modes = modes_buf[:, :k]
        np.matmul(cos.T, plus_t, out=modes[0])
        np.matmul(sin.T, minus_t, out=modes[1])
        modes *= weights
        # [[A Re psi, A Im psi], [B Re psi, B Im psi]] per point
        (a_re, a_im), (b_re, b_im) = np.matmul(modes, psi_parts).transpose(0, 2, 1)
        values[rows] = a_re - b_im
        imag_residual[rows] = np.abs(a_im + b_re)
    return values, imag_residual
