import cmath
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import fourierhybrid as fh
from fourierhybrid import frame
from fourierhybrid.filters import ALPHA, KAPPA
from fourierhybrid.frame import (
    _CROWD, _GRAM_MIN_RATIO, _REL_TOL, _bands, _fold, _loop_block, _node_rule, _omega_factors,
    _omega_matrix, _unit_powers,
)
from fourierhybrid import piecewise
from fourierhybrid.oracles import frame_filtered_sum
from helpers import GRID_1024, far_frequency_recon, frequency_set, pipeline


def omega_entry_by_quadrature(lam: float, l: int) -> complex:
    re, _ = quad(lambda x: math.cos(2 * math.pi * (lam - l) * x), 0, 1,
                 epsabs=1e-14, limit=200)
    im, _ = quad(lambda x: math.sin(2 * math.pi * (lam - l) * x), 0, 1,
                 epsabs=1e-14, limit=200)
    return complex(re, im)


def omega_entry(lam: float, l: float) -> complex:
    return complex(_omega_matrix(np.array([lam]), np.array([l]))[0, 0])


def rule_params(x: float, m: int, jumps) -> tuple[float, int, float]:
    """(gamma, p, d) of the adaptive rule at x, written out in Python floats.

    d = min |x - xi|, gamma = sqrt(ALPHA d m) and p = floor(KAPPA d m); an
    empty jump set gives d = inf with gamma = 0 and p = 0.
    """
    d = min((abs(x - float(xi)) for xi in jumps), default=math.inf)
    if math.isinf(d):
        return 0.0, 0, d
    return math.sqrt(ALPHA * d * m), math.floor(KAPPA * d * m), d


def oracle_value(recon, x: float, p: int | None = None, gamma: float | None = None):
    """(value, imaginary residual) of recon at x by the least-squares oracle.

    p and gamma default to the adaptive rule's parameters at x.
    """
    op = recon.operator
    if p is None:
        gamma, p, _ = rule_params(x, op.m, recon.jumps)
    total = frame_filtered_sum(
        recon.samples.freqs.frequencies, recon.samples.values, op.m, op.n,
        p, gamma, x,
    )
    return total.real, abs(total.imag)


class TestInnerProduct:
    def test_diagonal_is_one(self):
        assert omega_entry(5.0, 5.0) == 1.0
        # uniform frequencies hit every mode exactly: Omega is [0; I; 0]
        op = fh.assemble_omega(fh.uniform_frequencies(6), 4)
        assert np.all(np.diag(op.omega[2:11]) == 1.0)

    def test_integer_offsets_vanish(self):
        for k in (1, -3, 17):
            assert abs(omega_entry(2.0 + k, 2.0)) < 1e-15
        op = fh.assemble_omega(fh.uniform_frequencies(6), 4)
        off_diagonal = ~np.eye(13, 9, k=-2, dtype=bool)
        assert np.max(np.abs(op.omega[off_diagonal])) < 1e-15

    def test_half_integer_offset(self):
        value = omega_entry(2.5, 2.0)
        assert value == pytest.approx(2j / math.pi, abs=1e-15)
        assert abs(value) == pytest.approx(2.0 / math.pi, abs=1e-15)
        # the same entry inside an assembled Omega
        freqs = fh.FrequencySet(m=1, frequencies=np.array([-1.0, 0.5, 1.0]))
        op = fh.assemble_omega(freqs, 1)
        assert op.omega[1, 1] == pytest.approx(2j / math.pi, abs=1e-15)

    def test_series_branch_is_continuous(self):
        # offsets either side of 1e-9 agree smoothly and stay close to 1
        inside, outside = _omega_matrix(np.array([3.0 + 5e-10, 3.0 + 2e-9]), np.array([3.0]))[:, 0]
        assert abs(inside - outside) < 1e-8
        assert inside == pytest.approx(1.0, abs=1e-8)

    def test_small_offsets_match_mpmath(self):
        # the sin/cos form (sin 2 pi t + i (1 - cos 2 pi t)) / (2 pi t) cancels here
        lams = 3.0 + np.array([2e-9, 1e-8, 1e-7, 1e-6])
        values = _omega_matrix(lams, np.array([3.0]))[:, 0]
        with mpmath.workdps(40):
            for lam, value in zip(lams, values):
                u = 2j * mpmath.pi * (mpmath.mpf(float(lam)) - 3)
                assert abs(value - complex(mpmath.expm1(u) / u)) <= 1e-15

    def test_matrix_matches_scalar_path(self):
        # scalar closed form (e^{i theta} - 1) / (i theta), theta = 2 pi (lambda - l)
        rng = np.random.default_rng(8)
        lams = rng.uniform(-20, 20, 50)
        modes = np.arange(-10, 11)
        matrix = _omega_matrix(lams, modes.astype(float))
        for i in (0, 13, 29, 49):
            for j in (0, 7, 20):
                theta = 2.0 * math.pi * (float(lams[i]) - int(modes[j]))
                expect = (cmath.exp(1j * theta) - 1.0) / (1j * theta)
                assert matrix[i, j] == pytest.approx(expect, abs=1e-15)


class TestAssembleOmega:
    def test_uniform_is_identity_structured(self):
        op = fh.assemble_omega(fh.uniform_frequencies(6), 4)
        expect = np.zeros((13, 9))
        expect[2:11, :] = np.eye(9)
        np.testing.assert_allclose(np.abs(op.omega), expect, atol=1e-15)
        np.testing.assert_allclose(op.s, np.ones(9), atol=1e-12)
        assert op.effective_rank == 9

    def test_entries_match_quadrature(self):
        freqs = fh.jittered_frequencies(8, seed=3)
        op = fh.assemble_omega(freqs, 5)
        rng = np.random.default_rng(0)
        for _ in range(40):
            j = int(rng.integers(0, 17))
            l = int(rng.integers(0, 11))
            expect = omega_entry_by_quadrature(float(freqs.frequencies[j]), l - 5)
            assert abs(op.omega[j, l] - expect) <= 1e-12

    def test_entry_magnitudes_bounded_by_one(self):
        op = fh.assemble_omega(fh.jittered_frequencies(16, seed=1), 9)
        assert np.max(np.abs(op.omega)) <= 1.0 + 1e-14

    def test_pinned_conditioning_regression(self):
        op = pipeline("f1", "jittered", 32, n=19).operator
        ratio = float(op.s[-1] / op.s[0])
        assert ratio > 1e-6
        assert ratio == pytest.approx(0.4979458490074062, rel=1e-9)

    @pytest.mark.parametrize("scheme, m", [
        ("jittered", 32), ("jittered", 512), ("log", 128), ("uniform", 16),
    ])
    def test_omega_factors_through_real_kernel(self, scheme, m):
        # full column rank: the stored (K^+)^T is numpy's pseudo-inverse of K, transposed
        freqs = frequency_set(scheme, m)
        op = fh.assemble_omega(freqs, fh.choose_n(scheme, m))
        assert op.effective_rank == 2 * op.n + 1
        assert op.pinv_t.dtype == np.float64
        modes = np.arange(-op.n, op.n + 1)
        kernel = np.sinc(freqs.frequencies[:, None] - modes[None, :])
        sign = (-1.0) ** modes
        assert np.max(np.abs(op.phase[:, None] * sign[None, :] * kernel - op.omega)) <= 1e-14
        assert np.max(np.abs(op.pinv_t - np.linalg.pinv(kernel).T)) <= 1e-13
        s = np.linalg.svd(kernel, compute_uv=False)
        assert np.max(np.abs(op.s - s)) <= 1e-13 * s[0]

    @pytest.mark.parametrize("scheme", ["jittered", "log", "uniform"])
    def test_kernel_is_bitwise_np_sinc(self, scheme):
        # the in-place kernel keeps np.sinc's operation order, including the
        # eps substituted at t = 0, which every uniform row and log's 0 hit
        freqs = frequency_set(scheme, 512)
        modes = np.arange(-307, 308, dtype=float)
        _, kernel, _ = _omega_factors(freqs.frequencies, modes)
        expect = np.sinc(freqs.frequencies[:, None] - modes[None, :])
        np.testing.assert_array_equal(kernel.view(np.uint64), expect.view(np.uint64))

    @staticmethod
    def kernel(freqs, n):
        return np.sinc(freqs.frequencies[:, None] - np.arange(-n, n + 1)[None, :])

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("this route must not be taken")

    @pytest.mark.parametrize("m, scheme, tol", [
        *(pytest.param(m, scheme, 1e-13, id=f"{m}-{scheme}") for m in (32, 128, 512)
          for scheme in ("jittered", "log", "uniform")),
        # the CLI's worst log frame that stays on the Gram route, cond(K) 89.7;
        # the route's error grows like eps cond^2 and reads 6.0e-13 here
        pytest.param(48, "log", 1e-12, id="48-log"),
    ])
    def test_well_conditioned_frame_skips_the_svd(self, scheme, m, tol, monkeypatch):
        # cond(K) <= 100: s and (K^+)^T come from the Gram matrix K^T K
        freqs = frequency_set(scheme, m)
        n = fh.choose_n(scheme, m)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", self.refuse)
            op = fh.assemble_omega(freqs, n)
        assert op.effective_rank == 2 * n + 1
        kernel = self.kernel(freqs, n)
        s = np.linalg.svd(kernel, compute_uv=False)
        assert np.max(np.abs(op.s - s)) <= 1e-14 * s[0]
        assert np.max(np.abs(op.pinv_t - np.linalg.pinv(kernel).T)) <= tol

    def test_ill_conditioned_frame_takes_the_svd(self, monkeypatch):
        # full column rank, but cond(K) is past the Gram route's limit of 100:
        # about 3.9e3 for log m = 32 at n = 20, where (K^+)^T reaches 755;
        # and the CLI's two such frames, log m = 7 (cond 204) and m = 43
        # (cond 118) at choose_n's n
        cases = [
            (fh.log_frequencies(32), 20, (65, 41)),
            (fh.log_frequencies(7), fh.choose_n("log", 7), (15, 13)),
            (fh.log_frequencies(43), fh.choose_n("log", 43), (87, 39)),
        ]
        svd_calls = []
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            svd_calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        for freqs, n, shape in cases:
            svd_calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                op = fh.assemble_omega(freqs, n)
            assert svd_calls == [shape]
            assert op.effective_rank == 2 * n + 1
            assert op.s[0] / op.s[-1] > 100
            kernel = self.kernel(freqs, n)
            assert np.max(np.abs(op.pinv_t - np.linalg.pinv(kernel).T)) <= 1e-12

    def test_pseudo_inverse_consistency(self):
        # Omega = diag(phase) K diag(sign), so Omega^+ = diag(sign) K^+ diag(conj phase)
        op = pipeline("f1", "jittered", 32, n=19).operator
        sign = (-1.0) ** np.arange(-op.n, op.n + 1)
        pinv = sign[:, None] * op.pinv_t.T * np.conj(op.phase)[None, :]
        omega = op.omega
        recon = omega @ pinv @ omega
        defect = np.linalg.norm(recon - omega)
        assert defect <= 10 * _REL_TOL * op.s[0] * math.sqrt(op.effective_rank)

    def test_rank_deficient_frame_is_refused(self):
        # square, with 12 singular values below 1e-12 s_max (the largest 8.5e-14
        # s_max); its pseudo-inverse gave f1 a sup error of 21.4
        freqs, n = fh.log_frequencies(32), 32
        with pytest.raises(RuntimeError, match="rank-deficient Omega") as info:
            fh.assemble_omega(freqs, n)
        # the roundoff-level s_min differs between LAPACK drivers; s_max does not
        found = re.fullmatch(
            r"frame: rank-deficient Omega: s_min = (\S+) < 1e-12 \* s_max, s_max = (\S+)",
            str(info.value),
        )
        s_min, s_max = float(found[1]), float(found[2])
        s = np.linalg.svd(self.kernel(freqs, n), compute_uv=False)
        assert s_max == pytest.approx(s[0], rel=1e-3)
        assert s_min < _REL_TOL * s_max

    @pytest.mark.parametrize("freqs, n, rank", [
        (fh.uniform_frequencies(4), 6, 9),  # underdetermined: 9 samples, 13 modes
    ], ids=["underdetermined"])
    def test_rank_deficient_frame_truncates_pseudo_inverse(self, freqs, n, rank):
        # the name dates from when such a frame was truncated to its rank; now
        # the largest admissible n keeps full rank and any larger n is refused
        n_max = freqs.m
        assert 2 * n_max + 1 == rank < 2 * n + 1
        op = fh.assemble_omega(freqs, n_max)
        assert op.effective_rank == op.s.size == rank
        assert op.s[-1] >= _REL_TOL * op.s[0]
        kernel = self.kernel(freqs, n_max)
        np.testing.assert_allclose(op.pinv_t, np.linalg.pinv(kernel).T, rtol=0, atol=1e-13)
        for too_many in range(n_max + 1, n + 1):
            with pytest.raises(ValueError, match="n must lie in"):
                fh.assemble_omega(freqs, too_many)

    def test_operator_arrays_are_read_only(self):
        op = pipeline("f1", "jittered", 32, n=19).operator
        for name in ("phase", "s", "pinv_t"):
            array = getattr(op, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        # (K^+)^T is the one matrix kept; Omega is built on demand
        stored = [f.name for f in dataclasses.fields(op)]
        assert stored == ["freqs", "n", "phase", "s", "pinv_t"]

    def test_peak_memory_of_operator_and_synthesis(self):
        # the traced peak, 12.5 MiB, is assemble_omega inverting K^T K while
        # it holds K (13.7 when it also folded G^{-1}); filter_reconstruct
        # peaks at 7.2 MiB with the stored (K^+)^T, one band's node rows,
        # its (2R, 2n+1) product and fold, and the block's cos/sin table
        # (7.1 MiB when every band reused preallocated arrays).  Folding
        # (K^+)^T, scaled by the samples, into a (2m+1, 4(n+1)) matrix on
        # every call peaked at 18.3 MiB, building K with np.sinc's
        # temporaries at 19.3, the SVD that the Gram route skips at 22.2,
        # and the stored complex Omega, SVD factors and folded synthesis
        # matrix before it at 46.3
        pipe = pipeline("f1", "jittered", 512)
        assert pipe.n == 307
        # pipeline() may have just built this operator; measure a cold assembly
        frame._assemble.cache_clear()
        tracemalloc.start()
        try:
            op = fh.assemble_omega(pipe.freqs, pipe.n)
            recon = fh.FilterReconstruction(
                operator=op, samples=pipe.samples, jumps=pipe.jumps,
            )
            fh.filter_reconstruct(recon, np.linspace(0.0, 1.0, 257))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20

    def test_underdetermined_warns(self, monkeypatch):
        # the name dates from when n > m only warned and truncated Omega; now
        # 9 samples for 13 modes is an error, not a warning, and nothing is
        # factored
        for solver in ("eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, solver, self.refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"n must lie in \[1, m\] = \[1, 4\].*got n = 6"):
                fh.assemble_omega(fh.uniform_frequencies(4), 6)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            fh.assemble_omega(fh.uniform_frequencies(4), 0)


class TestFrameMemo:
    # the operator depends on the frequencies and n alone, so assemble_omega
    # builds it once per (frequency set, n); conftest empties the memo before
    # each test

    @staticmethod
    def counted(monkeypatch, solver):
        calls = []
        original = getattr(np.linalg, solver)

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, solver, counting)
        return calls

    def test_equal_set_returns_the_same_operator(self, monkeypatch):
        calls = self.counted(monkeypatch, "eigvalsh")
        first = fh.assemble_omega(fh.jittered_frequencies(32, seed=7), 19)
        assert calls == [(39, 39)]
        # a second draw from the same seed: an equal set, not the same object
        again = fh.assemble_omega(fh.jittered_frequencies(32, seed=7), 19)
        assert again is first
        assert calls == [(39, 39)]

    def test_other_n_or_frequencies_assemble_anew(self, monkeypatch):
        calls = self.counted(monkeypatch, "eigvalsh")
        freqs = fh.jittered_frequencies(32, seed=7)
        first = fh.assemble_omega(freqs, 19)
        other_n = fh.assemble_omega(freqs, 18)
        lams = freqs.frequencies.copy()
        lams[5] = np.nextafter(lams[5], -np.inf)
        nudged = fh.assemble_omega(fh.FrequencySet(m=32, frequencies=lams), 19)
        assert calls == [(39, 39), (37, 37), (39, 39)]
        assert other_n is not first and other_n.n == 18
        assert nudged is not first
        assert not np.array_equal(nudged.pinv_t, first.pinv_t)

    def test_refused_frame_raises_again(self, monkeypatch):
        calls = self.counted(monkeypatch, "svd")
        freqs, n = fh.log_frequencies(32), 32
        for _ in range(2):
            with pytest.raises(RuntimeError, match="rank-deficient Omega"):
                fh.assemble_omega(freqs, n)
        assert calls == [(65, 65), (65, 65)]

    def test_solver_failure_is_not_kept(self, monkeypatch):
        freqs = fh.jittered_frequencies(16, seed=2)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", fail)
            with pytest.raises(RuntimeError, match="eigenvalues of K.T K failed"):
                fh.assemble_omega(freqs, 9)
        assert fh.assemble_omega(freqs, 9).s.shape == (19,)

    def test_memo_is_bounded(self, monkeypatch):
        calls = self.counted(monkeypatch, "eigvalsh")
        sets = [fh.uniform_frequencies(m) for m in range(1, 10)]
        first = fh.assemble_omega(sets[0], 1)
        for freqs in sets[1:]:
            fh.assemble_omega(freqs, 1)
        # nine sets through an eight-entry memo: the least recently used,
        # the first, has gone
        assert fh.assemble_omega(sets[0], 1) is not first
        assert len(calls) == 10

    def test_large_operator_is_not_kept(self):
        # a (K^+)^T above 8 MiB is built and returned but not memoized, so
        # the memo cannot pin it once its caller drops it; the largest
        # benchmark frame, jittered m = 512 at 4.8 MiB, is still kept
        large = fh.assemble_omega(fh.jittered_frequencies(1024, seed=3), 614)
        assert large.pinv_t.nbytes > 8 * 2**20
        gone = weakref.ref(large)
        del large
        assert gone() is None
        freqs = fh.jittered_frequencies(512, seed=3)
        small = fh.assemble_omega(freqs, 307)
        assert small.pinv_t.nbytes < 5 * 2**20
        kept = weakref.ref(small)
        del small
        assert kept() is not None
        assert fh.assemble_omega(freqs, 307) is kept()


class TestAdmissibility:
    @staticmethod
    def decay_constant(freqs, n):
        """Smallest c0 with |Omega(j,l)| <= c0 (1 + |j - l|)^(-1) on the section."""
        omega = fh.assemble_omega(freqs, n).omega
        m = freqs.m
        offsets = np.arange(-m, m + 1)[:, None] - np.arange(-n, n + 1)[None, :]
        return float(np.max(np.abs(omega) * (1.0 + np.abs(offsets))))

    def test_uniform_constant_is_one(self):
        assert self.decay_constant(fh.uniform_frequencies(8), 5) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_jittered_pinned_value(self):
        c0 = self.decay_constant(fh.jittered_frequencies(32, 42), 19)
        assert c0 == pytest.approx(0.9997572868409014, rel=1e-12)
        # sinc decay keeps the constant near 4/pi at worst
        assert c0 < 4.0 / math.pi


class TestChooseN:
    def test_scheme_rules(self):
        assert fh.choose_n("jittered", 256) == 153
        assert fh.choose_n("log", 256) == 55
        assert fh.choose_n("uniform", 256) == 256

    @pytest.mark.parametrize("scheme", ["jittered", "log", "uniform"])
    def test_never_more_modes_than_samples(self, scheme):
        # 2 m^0.6 exceeds m at m = 2; the cap keeps the frame determined
        for m in range(2, 65):
            assert fh.choose_n(scheme, m) <= m
        assert fh.choose_n(scheme, 2) == {"jittered": 1, "log": 2, "uniform": 2}[scheme]

    def test_validation(self):
        with pytest.raises(ValueError):
            fh.choose_n("chebyshev", 64)
        with pytest.raises(ValueError):
            fh.choose_n("jittered", 1)


def loop_block(pipe) -> int:
    """Points per block of filter_reconstruct's loop for pipe's operator."""
    nodes, _, per_piece = _node_rule(pipe.freqs.frequencies, pipe.m, pipe.n)
    return _loop_block(pipe.n, nodes, per_piece)


class TestFilterReconstruct:
    def test_constant_function_uniform_no_filter(self):
        f = fh.piecewise_from_expressions([(0.0, 1.0, "1.0")])
        freqs = fh.uniform_frequencies(8)
        samples = fh.fourier_samples(f, freqs)
        op = fh.assemble_omega(freqs, 4)
        recon = fh.FilterReconstruction(
            operator=op, samples=samples, jumps=np.array([]),
        )
        values, imag = fh.filter_reconstruct(recon, np.linspace(0, 1, 101))
        np.testing.assert_allclose(values, 1.0, atol=1e-12)
        assert np.max(imag) < 1e-12

    def test_in_span_target_is_reconstructed_exactly(self):
        f = fh.piecewise_from_expressions([(0.0, 1.0, "sin(2*pi*x)")])
        freqs = fh.jittered_frequencies(64, seed=42)
        samples = fh.fourier_samples(f, freqs)
        op = fh.assemble_omega(freqs, 38)
        recon = fh.FilterReconstruction(
            operator=op, samples=samples, jumps=np.array([]),
        )
        values, _ = fh.filter_reconstruct(recon, GRID_1024)
        truth = np.sin(2 * np.pi * GRID_1024)
        assert np.max(np.abs(values - truth)) <= 1e-8

    def test_batched_equals_per_point_path(self):
        pipe = pipeline("f1", "jittered", 32)
        xs = np.array([0.1, 0.25, 0.499, 0.75, 0.9])
        values, imag = fh.filter_reconstruct(pipe.recon, xs)
        for k, x in enumerate(xs):
            v, r = oracle_value(pipe.recon, float(x))
            assert abs(values[k] - v) <= 1e-12
            assert abs(imag[k] - r) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 3])
    def test_point_params_match_adaptive_params(self, seed):
        # the streamed path takes p from _bands, adaptive_param_arrays gives
        # (gamma, p), both by filters' one rule; the oracle checks from
        # rule_params.  At x = xi +- 15 k / m, KAPPA d m lies within an ulp
        # of the integer k, so a reordered product would floor differently
        # at some of them (at m = 105, 1/7 is one).  The points include the
        # jumps of f2 and a point next to one
        m = 105
        f2_jumps = fh.builtin_f2().breakpoints
        near_integer = np.add.outer(f2_jumps, 15.0 * np.arange(-7, 8) / m).ravel()
        rng = np.random.default_rng(seed)
        xs = np.concatenate([
            np.linspace(0.0, 1.0, 257), rng.uniform(0.0, 1.0, 500), [0.3, 0.7, 0.30000001],
            near_integer[(near_integer >= 0.0) & (near_integer <= 1.0)],
        ])
        for jumps in (f2_jumps, np.array([])):
            gammas, ps, ds = fh.adaptive_param_arrays(xs, m, jumps)
            assert ps.dtype.kind == "i"
            assert np.array_equal(_bands(xs, jumps, m)[0], ps)
            for k, x in enumerate(xs):
                assert (gammas[k], ps[k], ds[k]) == rule_params(float(x), m, jumps)  # bitwise

    def test_streamed_blocks_match_per_point_path(self):
        pipe = pipeline("f1", "jittered", 32)
        block = loop_block(pipe)
        xs = np.linspace(0.0, 1.0, 2 * block + block // 3)
        assert xs.size % block != 0
        values, imag = fh.filter_reconstruct(pipe.recon, xs)
        for k in (0, block - 1, block, 2 * block - 1, 2 * block, xs.size - 1):
            v, r = oracle_value(pipe.recon, float(xs[k]))
            assert abs(values[k] - v) <= 1e-12
            assert abs(imag[k] - r) <= 1e-12
        split = block + 7
        head, head_imag = fh.filter_reconstruct(pipe.recon, xs[:split])
        tail, tail_imag = fh.filter_reconstruct(pipe.recon, xs[split:])
        np.testing.assert_allclose(np.concatenate([head, tail]), values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            np.concatenate([head_imag, tail_imag]), imag, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 307, 614])
    def test_trig_table_matches_mpmath(self, n):
        # n on both sides of a power of two; the bound is the level of
        # np.cos and np.sin called on 2 pi l x directly
        rng = np.random.default_rng(n)
        xs = np.concatenate([[0.0, 0.25, 0.5, 1.0 - 2.0**-53], rng.uniform(0.0, 1.0, 6)])
        table = _unit_powers(xs, n, np.empty((n + 1, xs.size), dtype=complex))
        with mpmath.workdps(60):
            turns = [[2 * l * mpmath.mpf(float(x)) for x in xs] for l in range(n + 1)]
            cos = np.array([[float(mpmath.cospi(t)) for t in row] for row in turns])
            sin = np.array([[float(mpmath.sinpi(t)) for t in row] for row in turns])
        np.testing.assert_allclose(table.real, cos, rtol=0, atol=(n + 1) * 1e-15)
        np.testing.assert_allclose(table.imag, sin, rtol=0, atol=(n + 1) * 1e-15)

    @pytest.mark.parametrize("n", [1, 6])
    def test_fold_gives_the_signed_mode_sum(self, n):
        # for rows [A; B], the (cos, sin)-interleaved table times the folded
        # coefficients is the real (A's rows) and the imaginary part (B's
        # rows) of sum_{|l|<=n} (-1)^l (A_l + i B_l) e^{2 pi i l x}, here
        # summed term by term
        rows = 3
        rng = np.random.default_rng(n)
        a = rng.normal(size=(2 * rows, 2 * n + 1))
        xs = np.concatenate([[0.0, 0.5], rng.uniform(0.0, 1.0, 4)])
        coefficients = _fold(a, n)
        assert coefficients.shape == (2 * rows, n + 1, 2)
        angles = 2 * np.pi * np.outer(xs, np.arange(n + 1))
        table = np.stack([np.cos(angles), np.sin(angles)], axis=-1).reshape(xs.size, -1)
        folded = table @ coefficients.reshape(2 * rows, -1).T
        for i, x in enumerate(xs):
            for r in range(rows):
                terms = [
                    (-1) ** l * complex(a[r, n + l], a[rows + r, n + l])
                    * cmath.exp(2j * math.pi * l * x)
                    for l in range(-n, n + 1)
                ]
                assert folded[i, r] == pytest.approx(
                    math.fsum(z.real for z in terms), abs=1e-13)
                assert folded[i, rows + r] == pytest.approx(
                    math.fsum(z.imag for z in terms), abs=1e-13)

    def test_empty_grid_gives_empty_arrays(self):
        # no point means no band: the loop over the filter orders is empty
        pipe = pipeline("f1", "jittered", 32)
        values, imag = fh.filter_reconstruct(pipe.recon, np.array([]))
        assert values.shape == imag.shape == (0,)

    def test_point_order_does_not_change_values(self):
        # the loop takes the points band by band and writes the results in
        # the caller's order; the points beside f2's jumps and the grid span
        # several p values and blocks
        pipe = pipeline("f2", "jittered", 512)
        beside = np.add.outer(pipe.jumps, [-0.05, -0.01, -1e-3, 1e-3, 0.01, 0.05]).ravel()
        xs = np.concatenate([GRID_1024, beside[(beside >= 0.0) & (beside <= 1.0)]])
        _, ps, _ = fh.adaptive_param_arrays(xs, pipe.m, pipe.jumps)
        assert np.unique(ps).size >= 5
        assert xs.size > 4 * loop_block(pipe)
        values, imag = fh.filter_reconstruct(pipe.recon, xs)
        perm = np.random.default_rng(5).permutation(xs.size)
        perm_values, perm_imag = fh.filter_reconstruct(pipe.recon, xs[perm])
        np.testing.assert_allclose(perm_values, values[perm], rtol=0, atol=1e-13)
        np.testing.assert_allclose(perm_imag, imag[perm], rtol=0, atol=1e-13)

    def test_memory_independent_of_point_count(self):
        # one complex (points x 2m+1) matrix alone would take 128 MiB here;
        # the traced peak is 3.3 MiB (6.6 MiB with a weight row per point):
        # the per-point parameters and results, and about 1 MiB of one
        # block's table and temporaries
        pipe = pipeline("f2", "uniform", 128)
        xs = (np.arange(32768) + 0.5) / 32768
        tracemalloc.start()
        try:
            fh.filter_reconstruct(pipe.recon, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_points_beside_band_edges_match_oracle(self):
        # KAPPA d m within an ulp of an integer k (the construction of
        # test_point_params_match_adaptive_params, with the jumps 0 and 1
        # alone so that d reaches 0.5): such a point sits at one end of band
        # k - 1 or k, where the interpolated weights must still be the
        # filter's
        m = 105
        pipe = pipeline("f2", "jittered", m)
        recon = fh.FilterReconstruction(
            operator=pipe.operator, samples=pipe.samples, jumps=np.array([0.0, 1.0]),
        )
        xs = np.add.outer([0.0, 1.0], 15.0 * np.arange(-7, 8) / m).ravel()
        xs = xs[(xs >= 0.0) & (xs <= 1.0)]
        values, imag = fh.filter_reconstruct(recon, xs)
        _, ps, ds = fh.adaptive_param_arrays(xs, m, recon.jumps)
        assert ps.max() == 3
        assert np.max(np.abs(KAPPA * ds * m - np.round(KAPPA * ds * m))) < 1e-14
        for k, x in enumerate(xs):
            v, r = oracle_value(recon, float(x))
            assert abs(values[k] - v) <= 1e-12
            assert abs(imag[k] - r) <= 1e-12

    @pytest.mark.parametrize("jumps, xs", [
        ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]),  # on a jump: d = 0, identity weights
        ([0.0, 1.0], [0.5, 0.25, 0.75]),  # d = 0.5 and 0.25, the largest p
        ([], [0.0, 0.3, 0.5, 1.0]),  # no jumps: the no-filter mode
    ], ids=["on-jump", "half-distance", "no-jumps"])
    def test_extreme_distances_match_oracle(self, jumps, xs):
        pipe = pipeline("f1", "jittered", 128)
        recon = fh.FilterReconstruction(
            operator=pipe.operator, samples=pipe.samples, jumps=np.array(jumps),
        )
        xs = np.array(xs)
        values, imag = fh.filter_reconstruct(recon, xs)
        for k, x in enumerate(xs):
            v, r = oracle_value(recon, float(x))
            assert abs(values[k] - v) <= 1e-12
            assert abs(imag[k] - r) <= 1e-12

    def test_frequencies_beyond_m_take_more_nodes(self):
        # |lambda| up to 3m: z spans 9 times as much per band, and the node
        # rule grows R from 24 to 74 by itself
        m, n = 32, 16
        lams = np.arange(-m, m + 1, dtype=float)
        lams[[0, 1, -2, -1]] = [-3.0 * m, -2.2 * m, 2.5 * m, 3.0 * m]
        freqs = fh.FrequencySet(m=m, frequencies=lams)
        assert _node_rule(lams, m, n)[0] == 74
        f = fh.builtin_f2()
        recon = fh.FilterReconstruction(
            operator=fh.assemble_omega(freqs, n), samples=fh.fourier_samples(f, freqs),
            jumps=f.breakpoints,
        )
        xs = np.linspace(0.0, 1.0, 41)
        values, imag = fh.filter_reconstruct(recon, xs)
        for k, x in enumerate(xs):
            v, r = oracle_value(recon, float(x))
            assert abs(values[k] - v) <= 1e-12
            assert abs(imag[k] - r) <= 1e-12

    def test_far_frequency_returns_and_matches_oracle(self):
        # one frequency at 20.6 m puts the node rule's z at 798, where
        # z^l / l! overflows in floats: the series-length count then never
        # stopped, so the calls run in a fresh interpreter with a deadline
        xs = np.linspace(0.05, 0.95, 5)
        probe = (
            "import json, numpy as np, fourierhybrid as fh\n"
            "from fourierhybrid.frame import _node_rule\n"
            "from helpers import far_frequency_recon\n"
            "recon = far_frequency_recon()\n"
            f"values, imag = fh.filter_reconstruct(recon, np.array({xs.tolist()}))\n"
            "fh.filter_reconstruct(recon, (np.arange(4096) + 0.5) / 4096)\n"
            "print(json.dumps([_node_rule(recon.samples.freqs.frequencies, 16, 9),"
            " values.tolist(), imag.tolist()]))\n"
        )
        paths = [str(Path(fh.__file__).resolve().parents[1]), str(Path(__file__).parent)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [*paths, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        (nodes, pieces, per_piece), values, imag = json.loads(done.stdout)
        assert nodes == 2201
        # q = 605 nodes per sub-interval: a side would need more points than
        # the whole 4096-point grid to be interpolated, so it is summed directly
        assert _CROWD * pieces * per_piece > 4096
        recon = far_frequency_recon()
        for k, x in enumerate(xs):
            v, r = oracle_value(recon, float(x))
            assert abs(values[k] - v) <= 1e-12
            assert abs(imag[k] - r) <= 1e-12

    @pytest.mark.parametrize("m, n, tol", [
        (7, 6, 1e-12),  # cond(K) 204, worst deviation 7.6e-14
        (32, 20, 1e-11),  # cond(K) 3.9e3, worst deviation 1.8e-12
    ])
    def test_svd_route_frame_matches_oracle(self, m, n, tol):
        # cond(K) past the Gram route's 1 / _GRAM_MIN_RATIO = 100, so
        # (K^+)^T comes from the SVD
        pipe = pipeline("f2", "log", m, n=n)
        assert pipe.operator.s[0] / pipe.operator.s[-1] > 1.0 / _GRAM_MIN_RATIO
        xs = np.linspace(0.0, 1.0, 23)
        values, imag = fh.filter_reconstruct(pipe.recon, xs)
        for k, x in enumerate(xs):
            v, r = oracle_value(pipe.recon, float(x))
            assert abs(values[k] - v) <= tol
            assert abs(imag[k] - r) <= tol

    def test_one_point_calls_match_the_batched_call(self):
        # the band intervals are fixed, so a point's value depends on the
        # other points of the call only through whether its band side is
        # crowded enough to be interpolated, and the two paths agree within
        # 1e-13
        pipe = pipeline("f2", "log", 256)
        xs = np.concatenate([GRID_1024[::37], pipe.jumps, [0.3 + 1e-9, 0.7 - 1e-9]])
        values, imag = fh.filter_reconstruct(pipe.recon, xs)
        for k, x in enumerate(xs):
            one, one_imag = fh.filter_reconstruct(pipe.recon, np.array([x]))
            assert abs(one[0] - values[k]) <= 1e-13
            assert abs(one_imag[0] - imag[k]) <= 1e-13

    @pytest.mark.parametrize("pipe_args, jumps, size, extra", [
        # the 32768-point grid, the jumps, the tie between 0.3 and 0.7 and
        # points where KAPPA d m lies within an ulp of an integer
        (("f2", "uniform", 128), None, 32768,
         np.concatenate([[0.0, 0.3, 0.5, 0.7, 1.0],
                         np.add.outer([0.3, 0.7], 15.0 * np.arange(-4, 5) / 128).ravel()])),
        # one jump: the right side's nodes run past x = 1
        (("f2", "uniform", 32), np.array([0.5]), 4096, np.array([0.5])),
    ], ids=["f2-uniform-128", "one-jump"])
    def test_interpolated_sides_match_direct_calls_and_oracle(self, pipe_args, jumps, size, extra):
        pipe = pipeline(*pipe_args)
        recon = pipe.recon if jumps is None else fh.FilterReconstruction(
            operator=pipe.operator, samples=pipe.samples, jumps=jumps)
        xs = np.concatenate([(np.arange(size) + 0.5) / size, extra[(extra >= 0.0) & (extra <= 1.0)]])
        _, pieces, per_piece = _node_rule(pipe.freqs.frequencies, pipe.m, pipe.n)
        crowd = _CROWD * pieces * per_piece
        # some band side is interpolated in the whole call, none in a chunk
        ps, _, side = _bands(xs, recon.jumps, pipe.m)
        assert np.bincount(ps * 2 * recon.jumps.size + side).max() > crowd
        values, imag = fh.filter_reconstruct(recon, xs)
        chunk = crowd // 2
        direct = [fh.filter_reconstruct(recon, xs[i:i + chunk]) for i in range(0, xs.size, chunk)]
        np.testing.assert_allclose(values, np.concatenate([v for v, _ in direct]), rtol=0, atol=1e-13)
        np.testing.assert_allclose(imag, np.concatenate([r for _, r in direct]), rtol=0, atol=1e-13)
        for k in range(0, size, size // 50):
            v, r = oracle_value(recon, float(xs[k]))
            assert abs(values[k] - v) <= 1e-12
            assert abs(imag[k] - r) <= 1e-12

    @pytest.mark.parametrize("pipe_args, xs", [
        (("f2", "uniform", 128), (np.arange(32768) + 0.5) / 32768),
        (("f1", "jittered", 512), GRID_1024),
    ], ids=["f2-uniform-128-32768", "f1-jittered-512-1024"])
    def test_one_nearest_jump_search_per_call(self, monkeypatch, pipe_args, xs):
        # the bands, band places and band sides all come from one search;
        # the counter also wraps the search behind piecewise.distance_to_set
        pipe = pipeline(*pipe_args)
        search, calls = piecewise.nearest_jump, []

        def counted(x, jumps):
            calls.append(x.size)
            return search(x, jumps)

        monkeypatch.setattr(frame, "nearest_jump", counted)
        monkeypatch.setattr(piecewise, "nearest_jump", counted)
        fh.filter_reconstruct(pipe.recon, xs)
        assert calls == [xs.size]

    @pytest.mark.parametrize("jumps", [np.array([0.5]), np.array([])], ids=["crowded", "no-filter"])
    def test_block_split_does_not_change_values(self, monkeypatch, jumps):
        # blocks of 59 points cut through the band, its two crowded sides
        # (2048 points each, past _CROWD S q = 1080) and their 2 S q = 540
        # node sums; the no-filter mode is one band summed directly
        pipe = pipeline("f2", "uniform", 32)
        recon = fh.FilterReconstruction(operator=pipe.operator, samples=pipe.samples, jumps=jumps)
        xs = (np.arange(4096) + 0.5) / 4096
        values, imag = fh.filter_reconstruct(recon, xs)
        monkeypatch.setattr(frame, "_BLOCK_BYTES", 1 << 16)
        _, pieces, per_piece = _node_rule(pipe.freqs.frequencies, pipe.m, pipe.n)
        assert loop_block(pipe) == 59
        assert 2 * pieces * per_piece % 59 and 2048 % 59
        small, small_imag = fh.filter_reconstruct(recon, xs)
        np.testing.assert_allclose(small, values, rtol=0, atol=1e-13)
        np.testing.assert_allclose(small_imag, imag, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("scheme, rule", [
        ("uniform", {64: (6, 45), 128: (6, 45), 256: (6, 45), 512: (6, 45), 1024: (6, 45)}),
        ("jittered", {64: (4, 46), 128: (4, 46), 256: (4, 46), 512: (4, 46), 1024: (4, 46)}),
        ("log", {64: (3, 44), 128: (2, 48), 256: (2, 45), 512: (1, 56), 1024: (1, 52)}),
    ])
    def test_side_node_rule_is_pinned(self, scheme, rule):
        # (S, q): S = ceil(omega / 8) sub-intervals of q nodes each, with
        # omega = pi n / (KAPPA m) fixed by choose_n's n / m
        for m, expected in rule.items():
            lams = frequency_set(scheme, m).frequencies
            assert _node_rule(lams, m, fh.choose_n(scheme, m))[1:] == expected

    @pytest.mark.parametrize("scheme", ["jittered", "log", "uniform"])
    def test_node_rule_gives_24_nodes_at_max_frequency_m(self, scheme):
        for m in (64, 128, 256, 512, 1024):
            lams = frequency_set(scheme, m).frequencies
            assert _node_rule(lams, m, fh.choose_n(scheme, m))[0] == 24

    def test_non_finite_or_outside_jumps_rejected(self):
        # a NaN jump once gave p = floor(NaN), cast to INT_MIN, and finite
        # garbage with no error
        pipe = pipeline("f1", "jittered", 32)
        for jumps, bad in (([0.0, math.nan, 1.0], "nan"), ([0.0, math.inf], "inf"),
                           ([-0.5, 1.0], "-0.5"), ([0.0, 1.5], "1.5")):
            with pytest.raises(ValueError, match=re.escape(f"jumps must lie within [0, 1], got {bad}")):
                fh.FilterReconstruction(
                    operator=pipe.operator, samples=pipe.samples, jumps=np.array(jumps),
                )
        with pytest.raises(ValueError, match=re.escape("jumps must be 1-d, got shape (1, 3)")):
            fh.FilterReconstruction(
                operator=pipe.operator, samples=pipe.samples, jumps=np.array([[0.0, 0.5, 1.0]]),
            )

    def test_f1_midpoint_error_pinned(self):
        pipe = pipeline("f1", "jittered", 128)
        values, _ = fh.filter_reconstruct(pipe.recon, np.array([0.25]))
        err = abs(values[0] - fh.evaluate(pipe.f, 0.25))
        assert err <= 1e-3
        assert err == pytest.approx(0.0005621037412140266, rel=1e-6)

    def test_no_filter_mode_equals_gamma_zero(self):
        pipe = pipeline("f1", "jittered", 32)
        no_jump = fh.FilterReconstruction(
            operator=pipe.operator, samples=pipe.samples,
            jumps=np.array([]),
        )
        xs = np.linspace(0.05, 0.95, 7)
        a, _ = fh.filter_reconstruct(no_jump, xs)
        # the oracle with explicit identity weights
        for k, x in enumerate(xs):
            direct, _ = oracle_value(pipe.recon, float(x), p=0, gamma=0.0)
            assert abs(a[k] - direct) <= 1e-12

    def test_filtering_changes_the_result(self):
        pipe = pipeline("f1", "jittered", 32)
        no_jump = fh.FilterReconstruction(
            operator=pipe.operator, samples=pipe.samples,
            jumps=np.array([]),
        )
        filtered, _ = fh.filter_reconstruct(pipe.recon, np.array([0.25]))
        plain, _ = fh.filter_reconstruct(no_jump, np.array([0.25]))
        assert filtered[0] != plain[0]

    def test_imaginary_residual_stays_small(self):
        pipe = pipeline("f1", "jittered", 128)
        _, imag = fh.filter_reconstruct(pipe.recon, GRID_1024)
        assert float(np.max(imag)) < 2e-3  # pinned diagnostic level

    def test_operator_sample_mismatch_rejected(self):
        pipe = pipeline("f1", "jittered", 32)
        other = fh.fourier_samples(pipe.f, fh.jittered_frequencies(32, seed=7))
        with pytest.raises(ValueError, match="frequency set"):
            fh.FilterReconstruction(
                operator=pipe.operator, samples=other,
                jumps=pipe.jumps,
            )

    def test_grid_domain_validation(self):
        pipe = pipeline("f1", "jittered", 32)
        with pytest.raises(ValueError):
            fh.filter_reconstruct(pipe.recon, np.array([-0.1, 0.5]))
        # a grid that is not 1-d is named by its shape, not met deep inside
        # an index or a broadcast
        for grid, shape in ((0.5, "()"), (np.full((2, 2), 0.5), "(2, 2)")):
            with pytest.raises(ValueError, match=re.escape(f"grid must be 1-d, got shape {shape}")):
                fh.filter_reconstruct(pipe.recon, grid)
            with pytest.raises(ValueError, match=re.escape(f"grid must be 1-d, got shape {shape}")):
                fh.hybrid_reconstruct(pipe.recon, grid, 1 / 40)
