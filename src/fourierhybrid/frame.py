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
(2m+1, 2n+1) transpose (K^+)^T of K's pseudo-inverse.  m and Omega are
rebuilt on request (FrameOperator.m, .omega).

A stable frame section, the generalized-sampling setting of Adcock,
Gataric & Hansen, has full column rank (2n+1 <= 2m+1), so any other frame
is refused: n > m raises ValueError, and a K with s_min < _REL_TOL * s_max
raises RuntimeError naming both singular values.  When s_min / s_max >=
_GRAM_MIN_RATIO (cond(K) <= 100), the SVD is not needed: the singular
values come from the eigenvalues of the (2n+1)^2 Gram matrix G = K^T K, and
(K^+)^T = K G^{-1}.  An ill-conditioned frame takes the SVD of K and
(K^+)^T = (U / s) V^T.  The module takes a frequency set and a mode count n
and nothing else; the rules that choose them live with the caller.

The operator depends on the sampling pattern and n, not on the function
sampled, so assemble_omega keeps the 8 operators it returned most recently
(functools.lru_cache, keyed on the bitwise frequencies and n): two
functions sampled at one jitter draw share one assembly, and a hit returns
the very object a cold assembly built.  An operator whose (K^+)^T,
8 (2m+1)(2n+1) bytes, exceeds 8 MiB (20 MB at m = 1024) is built but not
kept, so the memo pins at most 64 MiB; a refused frame is never kept.

Reconstruction applies the pseudo-inverse of Omega to the filtered sample
vector and sums the resulting 2n+1 Fourier modes.  filter_reconstruct, the
one evaluation path, sorts the points once: one nearest-jump search gives
each point's band, the points of equal filter order p (filters._order), its
place in the band and its band side, left or right of its nearest jump.  A
band's weights are entire in the jump distance d, so it forms them at R
Chebyshev nodes in d (_node_rule; 24 at |lambda| <= m, which reproduces the
paper's filter to roundoff) and folds them with the samples and (K^+)^T
into the cosine and sine coefficients that its points read: a cost of
O(bands R m n + points R n), not O(points m n), and a crowded band side is
interpolated from nodes of its own.  The points stream in fixed-size
blocks, so beside a band, a place and a side per point, memory is
O(block n + R m).  The cosines and sines of 2 pi l x, l = 0..n, come from
e^{2 pi i l x} by angle doubling: ceil(log2(n+1)) exponentials and one
complex product per mode, not a sin and a cos per point and mode.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .filters import ALPHA, KAPPA, _gamma, _order, _series_terms, sigma_weight_matrix
from .piecewise import nearest_jump
from .sampling import FourierSamples, FrequencySet

__all__ = [
    "FrameOperator",
    "FilterReconstruction",
    "assemble_omega",
    "filter_reconstruct",
]

# size of one real block array: it sets how many points filter_reconstruct
# handles per block (_loop_block) and how many rows of K are built at once,
# (rows x 2n+1)
_BLOCK_BYTES = 1 << 20

# filter_reconstruct interpolates a band side that holds more than _CROWD
# times its nodes (_node_rule)
_CROWD = 4

# smallest s_min / s_max of K for which assemble_omega skips the SVD and
# takes the Gram route; that route's error grows like eps cond(K)^2, so
# cond(K) <= 100 keeps it near 1e-12
_GRAM_MIN_RATIO = 1e-2

# assemble_omega keeps the operators it returned most recently, this many,
# and only those whose (K^+)^T, 8 (2m+1)(2n+1) bytes, fits in _MEMO_BYTES:
# so the memo pins at most 64 MiB after its callers drop their operators
_MEMO_SIZE = 8
_MEMO_BYTES = 8 << 20

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
    """Rows [A; B] of a, by modes -n..n, folded into a (rows, n+1, 2) array.

    Its rows are the real (A's) and the imaginary part (B's) of
    sum_l (-1)^l (A_l + i B_l) e^{2 pi i l x}, against cos(2 pi l x) and
    sin(2 pi l x) interleaved: cosine (-1)^l (X_l + X_{-l}) in every row X
    (X_0 once), sine (-1)^l (B_{-l} - B_l) in A's and (-1)^l (A_l - A_{-l}) in B's.
    """
    half = a.shape[0] // 2
    pos = a[:, n:]  # modes 0..n
    neg = a[:, n::-1]  # modes 0..-n
    cos = pos + neg
    cos[:, 0] = pos[:, 0]
    sin = np.concatenate([neg[half:] - pos[half:], pos[:half] - neg[:half]])
    return np.stack([cos, sin], axis=-1) * _parity(np.arange(n + 1, dtype=float))[:, None]


@dataclass(frozen=True)
class FrameOperator:
    """The frame section's pseudo-inverse; immutable and shareable across threads.

    Omega = phase[:, None] * K * (-1)^l with the real kernel K; pinv_t is
    the real (2m+1, 2n+1) matrix (K^+)^T, and s holds the singular values of
    K, which are those of Omega.  m and Omega are not stored: ``m`` reads
    freqs.m and ``omega`` builds Omega from the frequencies on each access.
    The stored arrays are read-only.
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
    """Factor the real kernel K of Omega and keep its pseudo-inverse (K^+)^T.

    K = sinc(lambda_j - l) has the singular values of Omega (see the module
    docstring).  n must lie in [1, m], so that K is tall or square.  Two
    routes give the singular values s and (K^+)^T:

    * Gram route, when s_min / s_max reaches _GRAM_MIN_RATIO: s from the
      eigenvalues of G = K^T K, and (K^+)^T = K G^{-1} with G^{-1} from
      np.linalg.inv of the symmetric positive definite G.
    * SVD route, for every other frame: (K^+)^T = (U / s) V^T.  A K with
      s_min < _REL_TOL * s_max is rank-deficient, its pseudo-inverse
      would amplify roundoff past 1e12, and it raises RuntimeError
      instead.

    A LinAlgError from either route is raised as a RuntimeError that names
    the failed step.  The operator depends on freqs and n alone, so the
    _MEMO_SIZE operators returned most recently are kept: a call with a
    bitwise-equal frequency set and the same n returns the very object an
    earlier call built.  An operator whose (K^+)^T exceeds _MEMO_BYTES is
    built and returned but not kept, nor is a refused frame, which raises
    again on every call.
    """
    if not 1 <= n <= freqs.m:
        raise ValueError(
            f"n must lie in [1, m] = [1, {freqs.m}], since the 2n+1 modes may not "
            f"outnumber the 2m+1 samples; got n = {n}"
        )
    if 8 * freqs.frequencies.size * (2 * n + 1) > _MEMO_BYTES:
        return _assemble.__wrapped__(freqs, n)
    return _assemble(freqs, n)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _assemble(freqs: FrequencySet, n: int) -> FrameOperator:
    """assemble_omega's work, memoized on (freqs, n); n is already checked."""
    modes = np.arange(-n, n + 1, dtype=float)
    phase, kernel, _ = _omega_factors(freqs.frequencies, modes)
    gram = kernel.T @ kernel
    eigenvalues = _linalg_step("eigenvalues of K^T K", np.linalg.eigvalsh, gram)
    s = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    if s[-1] >= _GRAM_MIN_RATIO * s[0]:
        inverse = _linalg_step("inverse of K^T K", np.linalg.inv, gram)
        # freed first, so that K, G, G^{-1} and (K^+)^T are never held at once
        del gram
        return FrameOperator(freqs=freqs, n=n, phase=phase, s=s, pinv_t=kernel @ inverse)
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
    weights are 1.  The jumps form a 1-d array within [0, 1]; a NaN,
    infinite or outside jump raises ValueError, since it has no filter
    order.
    """

    operator: FrameOperator
    samples: FourierSamples
    jumps: np.ndarray

    def __post_init__(self):
        if not np.array_equal(
            self.samples.freqs.frequencies, self.operator.freqs.frequencies
        ):
            raise ValueError("operator and samples must share a frequency set")
        jumps = np.asarray(self.jumps, dtype=float)
        if jumps.ndim != 1:
            raise ValueError(f"jumps must be 1-d, got shape {jumps.shape}")
        bad = jumps[~((jumps >= 0.0) & (jumps <= 1.0))]  # NaN fails too
        if bad.size:
            raise ValueError(f"jumps must lie within [0, 1], got {float(bad[0])}")
        jumps = np.sort(jumps)
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


def _node_rule(lam: np.ndarray, m: int, n: int) -> tuple[int, int, int]:
    """(R, S, q): the Chebyshev nodes of a band, and a band side's sub-intervals and nodes on each.

    In a band, KAPPA d m runs over [p, p+1), so d spans 1/(KAPPA m) and
    z = (lambda/m)^2 gamma^2 / 2 = ALPHA lambda^2 d / (2m) spans at most
    dz = ALPHA max lambda^2 / (2 KAPPA m^2), 7.5 at max |lambda| = m.  There
    a weight is exp(-z) times a polynomial in z, whose Chebyshev
    coefficients in d fall like (dz/4)^k / k!; R is where the series of
    those bounds stops, as the sigma series does (24 at max |lambda| = m).

    A side's sum is the weight series in t times e^{2 pi i l x(t)}, l <= n,
    of phase span omega = pi n / (KAPPA m): Chebyshev coefficients bounded by
    (omega / 2)^k / k! (|J_k(omega)|) and (dz / 4)^k / k!.  On S sub-intervals
    both shrink by S, and q adds their _series_terms counts.
    S = ceil(omega / 8) keeps q near 45 at any n / m.  On f2, uniform m = 64,
    32768 points, omega / 4 (S q = 420 nodes a side) was 7 % faster and
    omega / 16 (186) 12 % slower; the 270 of omega / 8 let smaller sides be
    interpolated.  A side past _CROWD S q points is interpolated, at a cost
    of O(bands R m n + nodes R n + points q): _CROWD = 1 or 2 ran that grid
    at most 5 % faster than 4, and at 4 no side of a 1024-point grid at
    m = 128-512 is crowded, so those grids keep the direct path.
    """
    dz = ALPHA * float(np.max(lam * lam)) / (2.0 * KAPPA * m * m)
    omega = np.pi * n / (KAPPA * m)
    pieces = max(1, int(np.ceil(omega / 8.0)))
    terms = _series_terms(sys.maxsize, dz / (4.0 * pieces))
    return (_series_terms(sys.maxsize, 0.25 * dz), pieces,
            terms + _series_terms(sys.maxsize, omega / (2.0 * pieces)))


def _loop_block(n: int, nodes: int, per_piece: int) -> int:
    """Points per block of filter_reconstruct: 2(n+1) table and 3R or 3q Chebyshev reals each."""
    return _block_points(max(2 * (n + 1) + 3 * nodes, 3 * per_piece))


def _bands(xs: np.ndarray, jumps: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, t, side) per point, from one nearest-jump search: the band p, the
    place t in [-1, 1) with KAPPA d m = p + (1 + t) / 2, and the band side,
    2k left of the nearest jump jumps[k] and 2k + 1 right of it.  The
    no-filter mode (no jumps) is d = 0: band 0, t = -1 and side 0."""
    if jumps.size:
        d, near = nearest_jump(xs, jumps)
        side = 2 * near + (xs > jumps[near])
    else:
        d, side = np.zeros(xs.size), np.zeros(xs.size, dtype=int)
    p = _order(d, m)
    return p, 2.0 * (KAPPA * d * m - p) - 1.0, side


def _chebyshev_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """(t, D): the first-kind Chebyshev nodes t_r = cos(pi (2r + 1) / (2 count))
    and the DCT-II matrix D that maps values at them to the coefficients c = D v
    of their interpolant sum_k c_k T_k(t).

    D[k, r] = (2 / count) cos(pi k (2r + 1) / (2 count)), halved at k = 0,
    with k (2r + 1) reduced modulo 4 count in integers first: an unreduced
    angle of up to pi count is off by up to count ulps, which left errors
    of 7e-15 in the interpolated weights at count = 24, against 2e-15.
    """
    quarter_turns = np.cos(np.pi * np.arange(4 * count) / (2 * count))
    odd = 2 * np.arange(count) + 1
    dct = quarter_turns[np.multiply.outer(np.arange(count), odd) % (4 * count)]
    dct *= 2.0 / count
    dct[0] *= 0.5
    return quarter_turns[odd], dct


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
    at x is sum_l cos(2 pi l x) a_l + i sin(2 pi l x) b_l, l = 0..n, with
    a_l = c_l + c_{-l} and b_l = c_l - c_{-l} (a_0 = c_0): the signed fold
    of K^+ (w * psi) over +-l.

    The weights depend on x only through the filter order p and the jump
    distance d, and in a band of equal p each weight is an entire function
    of d.  So _bands sorts the points, by one nearest-jump search, into
    bands, places t in a band and band sides, and the points are taken band
    by band.  A band's weights are formed at the R first-kind Chebyshev
    nodes of its d interval [p, p+1) / (KAPPA m) by sigma_weight_matrix,
    mapped to Chebyshev coefficients by the DCT-II, and contracted with psi
    and (K^+)^T once (one (2R, 2m+1) x (2m+1, 2n+1) product), which _fold
    turns straight into the Chebyshev coefficients of a_l and b_l.  A point
    then costs the cosines and sines of _unit_powers, one (n+1)-deep
    product against those coefficients and R Chebyshev polynomials T_k(t)
    from numpy's chebvander.  R comes from _node_rule, so the interpolated
    weights reproduce the paper's filter to roundoff; the filter-then-solve
    ordering is unchanged.  One bincount over (band, side) finds the
    crowded band sides, whose points interpolate sums at the side's own
    nodes (_node_rule): a point's value depends on the other points of the
    call only through whether its side is crowded, and the two paths agree
    within 1e-13.  The tests check it against oracles.frame_filtered_sum,
    which shares none of this code.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"grid must be 1-d, got shape {xs.shape}")
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("grid must lie within [0,1]")
    op = recon.operator
    m, n = op.m, op.n
    lam = recon.samples.freqs.frequencies
    jumps = recon.jumps
    psi = op.phase * recon.samples.values
    ps, ts, side = _bands(xs, jumps, m)
    nodes, pieces, per_piece = _node_rule(lam, m, n)
    node_t, dct = _chebyshev_nodes(nodes)
    piece_t, piece_dct = _chebyshev_nodes(per_piece)
    # the t of a side's S q nodes, sub-interval by sub-interval
    side_t = ((2 * np.arange(pieces)[:, None] + 1 + piece_t) / pieces - 1.0).ravel()
    # side s of band p is entry p 2J + s, crowded past _CROWD S q points
    width = 2 * jumps.size
    crowded = np.bincount(ps * width + side) > _CROWD * side_t.size
    values, imag_residual = np.empty(xs.shape), np.empty(xs.shape)
    block = _loop_block(n, nodes, per_piece)
    # the complex cos/sin table of a block, allocated once per call and
    # reused by every block: allocated afresh per block it raised the
    # paper-matrix peak RSS by 1.3 MiB
    table_buf = np.empty((min(block, xs.size), n + 1), dtype=complex)
    for p in np.flatnonzero(np.bincount(ps)):
        node_d = (p + 0.5 * (1.0 + node_t)) / (KAPPA * m)
        weights = dct @ sigma_weight_matrix(np.full(nodes, p), _gamma(node_d, m), lam, m)
        # rows [C Re psi; C Im psi], C the Chebyshev coefficients of the weights
        product = np.concatenate([weights * psi.real, weights * psi.imag]) @ op.pinv_t
        # rows: the coefficients of the real and the imaginary part of the
        # mode sum, against the columns cos(2 pi l x), sin(2 pi l x) interleaved
        coefficients = _fold(product, n).reshape(2 * nodes, -1)
        band = np.flatnonzero(ps == p)
        band_crowded = crowded[p * width:(p + 1) * width]  # holds every side in the band
        sides = np.flatnonzero(band_crowded)
        if sides.size:
            node_x = jumps[sides // 2, None] + (2 * (sides % 2) - 1)[:, None] * (
                (p + 0.5 * (1.0 + side_t)) / (KAPPA * m))
            node_x, node_ts = node_x.ravel(), np.tile(side_t, sides.size)
            sums = np.concatenate([
                _mode_sums(node_x[i:i + block], node_ts[i:i + block], coefficients, n, table_buf)
                for i in range(0, node_x.size, block)
            ], axis=1)
            # (real, imag) x (crowded side, sub-interval) x q coefficients
            series = sums.reshape(2, -1, per_piece) @ piece_dct.T
            slot = (np.cumsum(band_crowded) - 1) * pieces
        for start in range(0, band.size, block):
            rows = band[start:start + block]
            if sides.size:
                inside = band_crowded[side[rows]]
                scaled = pieces * (ts[rows[inside]] + 1.0)
                piece = np.minimum(np.floor(0.5 * scaled), pieces - 1)
                cheb = np.polynomial.chebyshev.chebvander(scaled - 2 * piece - 1, per_piece - 1)
                real, imag = np.einsum(
                    "ik,jik->ji", cheb, series[:, slot[side[rows[inside]]] + piece.astype(int)])
                values[rows[inside]], imag_residual[rows[inside]] = real, np.abs(imag)
                rows = rows[~inside]
            if rows.size:
                real, imag = _mode_sums(xs[rows], ts[rows], coefficients, n, table_buf)
                values[rows], imag_residual[rows] = real, np.abs(imag)
    return values, imag_residual


def _mode_sums(xs, ts, coefficients, n, table_buf):
    """(real, imag): a band's mode sum at up to one block of points xs, at band places ts."""
    nodes = coefficients.shape[0] // 2
    table = table_buf[:xs.size]
    _unit_powers(xs, n, table.T)
    sums = (table.view(float) @ coefficients.T).reshape(xs.size, 2, nodes)
    cheb = np.polynomial.chebyshev.chebvander(ts, nodes - 1)
    return np.einsum("kir,kr->ik", sums, cheb)
