import cmath
import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import fourierhybrid as fh
from fourierhybrid.frame import _REL_TOL, _block_points, _omega_factors, _omega_matrix
from fourierhybrid.oracles import frame_filtered_sum
from helpers import GRID_1024, frequency_set, pipeline


def omega_entry_by_quadrature(lam: float, l: int) -> complex:
    re, _ = quad(lambda x: math.cos(2 * math.pi * (lam - l) * x), 0, 1,
                 epsabs=1e-14, limit=200)
    im, _ = quad(lambda x: math.sin(2 * math.pi * (lam - l) * x), 0, 1,
                 epsabs=1e-14, limit=200)
    return complex(re, im)


def omega_entry(lam: float, l: float) -> complex:
    return complex(_omega_matrix(np.array([lam]), np.array([l]))[0, 0])


def rule_params(x: float, m: int, cfg, jumps) -> tuple[float, int, float]:
    """(gamma, p, d) of the adaptive rule at x, written out in Python floats.

    d = min |x - xi|, gamma = sqrt(alpha d m) and p = floor(kappa d m); an
    empty jump set gives d = inf with gamma = 0 and p = 0.
    """
    d = min((abs(x - float(xi)) for xi in jumps), default=math.inf)
    if math.isinf(d):
        return 0.0, 0, d
    return math.sqrt(cfg.alpha * d * m), math.floor(cfg.kappa * d * m), d


def oracle_value(recon, x: float, p: int | None = None, gamma: float | None = None):
    """(value, imaginary residual) of recon at x by the least-squares oracle.

    p and gamma default to the adaptive rule's parameters at x.
    """
    op = recon.operator
    if p is None:
        gamma, p, _ = rule_params(x, op.m, recon.filter_cfg, recon.jumps)
    total = frame_filtered_sum(
        recon.samples.freqs.frequencies, recon.samples.values, op.m, op.n,
        p, gamma, x, _REL_TOL,
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
        # full column rank: the stored (K^+)^T is numpy's pseudo-inverse of K
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

    @pytest.mark.parametrize("scheme", ["jittered", "log", "uniform"])
    @pytest.mark.parametrize("m", [32, 128, 512])
    def test_well_conditioned_frame_skips_the_svd(self, scheme, m, monkeypatch):
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
        assert np.max(np.abs(op.pinv_t - np.linalg.pinv(kernel).T)) <= 1e-13

    def test_ill_conditioned_frame_takes_the_svd(self, monkeypatch):
        # full column rank, but cond(K) is about 3.9e3, past the Gram route's limit
        freqs, n = fh.log_frequencies(32), 20
        svd_calls = []
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            svd_calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = fh.assemble_omega(freqs, n)
        assert svd_calls == [(65, 41)]
        assert op.effective_rank == 2 * n + 1
        assert op.s[0] / op.s[-1] > 1e3
        kernel = self.kernel(freqs, n)
        # entries of (K^+)^T reach 755 here
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

    @pytest.mark.parametrize("freqs, n, rank", [
        (fh.uniform_frequencies(4), 6, 9),  # underdetermined: 9 samples, 13 modes
        # square, with 12 singular values below 1e-12 s_max (the largest 8.5e-14
        # s_max) and the smallest kept one at 4.9e-12 s_max
        (fh.log_frequencies(32), 32, 53),
    ], ids=["underdetermined", "truncated"])
    def test_rank_deficient_frame_truncates_pseudo_inverse(self, freqs, n, rank):
        with pytest.warns(UserWarning) as record:
            op = fh.assemble_omega(freqs, n)
        assert f"effective rank {rank} < {2 * n + 1}" in " ".join(str(w.message) for w in record)
        assert op.effective_rank == rank
        kernel = self.kernel(freqs, n)
        truncated = np.linalg.pinv(kernel, rtol=_REL_TOL)
        assert np.max(np.abs(op.pinv_t - truncated.T)) <= 1e-13 * np.max(np.abs(truncated))
        s = np.linalg.svd(kernel, compute_uv=False)
        np.testing.assert_allclose(op.s, s, rtol=0, atol=1e-14 * s[0])

    def test_operator_arrays_are_read_only(self):
        op = pipeline("f1", "jittered", 32, n=19).operator
        for name in ("phase", "s", "pinv_t"):
            array = getattr(op, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        # Omega is built on demand, not kept on the operator
        assert "omega" not in {f.name for f in dataclasses.fields(op)}

    def test_peak_memory_of_operator_and_synthesis(self):
        # the traced peak, 18.3 MiB, is filter_reconstruct holding (K^+)^T, its
        # folded matrix and one block; assemble_omega peaks at 12.5 MiB (K,
        # K^T K and (K^+)^T on the Gram route).  Building K with np.sinc's
        # temporaries peaked at 19.3 MiB here, the truncated SVD that the Gram
        # route skips at 22.2, and the stored complex Omega, SVD factors and
        # folded synthesis matrix before it at 46.3
        pipe = pipeline("f1", "jittered", 512)
        assert pipe.n == 307
        tracemalloc.start()
        try:
            op = fh.assemble_omega(pipe.freqs, pipe.n)
            recon = fh.FilterReconstruction(
                operator=op, samples=pipe.samples, filter_cfg=fh.FilterConfig(),
                jumps=pipe.jumps,
            )
            fh.filter_reconstruct(recon, np.linspace(0.0, 1.0, 257))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_underdetermined_warns(self):
        # the 9 samples also leave Omega's rank below 2n+1 = 13
        with pytest.warns(UserWarning, match="effective rank 9 < 13"):
            with pytest.warns(UserWarning, match="underdetermined"):
                fh.assemble_omega(fh.uniform_frequencies(4), 6)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            fh.assemble_omega(fh.uniform_frequencies(4), 0)


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


class TestFilterReconstruct:
    def test_constant_function_uniform_no_filter(self):
        f = fh.piecewise_from_expressions([(0.0, 1.0, "1.0")])
        freqs = fh.uniform_frequencies(8)
        samples = fh.fourier_samples(f, freqs)
        op = fh.assemble_omega(freqs, 4)
        recon = fh.FilterReconstruction(
            operator=op, samples=samples, filter_cfg=fh.FilterConfig(),
            jumps=np.array([]),
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
            operator=op, samples=samples, filter_cfg=fh.FilterConfig(),
            jumps=np.array([]),
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
        # the streamed path takes (gamma, p) from adaptive_param_arrays, the
        # oracle checks from rule_params; alpha != 1 and m = 48 (not a power
        # of two) make every product round, so a reordered expression would
        # show.  The points include the jumps of f2 and a point next to one
        pipe = pipeline("f2", "jittered", 48)
        rng = np.random.default_rng(seed)
        xs = np.concatenate([
            np.linspace(0.0, 1.0, 257), rng.uniform(0.0, 1.0, 500), [0.3, 0.7, 0.30000001],
        ])
        for jumps in (pipe.jumps, np.array([])):
            recon = fh.FilterReconstruction(
                operator=pipe.operator, samples=pipe.samples,
                filter_cfg=fh.FilterConfig(alpha=0.7, kappa=0.09), jumps=jumps,
            )
            gammas, ps, ds = fh.adaptive_param_arrays(xs, pipe.m, recon.filter_cfg, recon.jumps)
            assert ps.dtype.kind == "i"
            for k, x in enumerate(xs):
                ref = rule_params(float(x), pipe.m, recon.filter_cfg, recon.jumps)
                assert (gammas[k], ps[k], ds[k]) == ref  # bitwise

    def test_streamed_blocks_match_per_point_path(self):
        pipe = pipeline("f1", "jittered", 32)
        block = _block_points(2 * pipe.m + 1)
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

    def test_memory_independent_of_point_count(self):
        # one complex (points x 2m+1) matrix alone would take 128 MiB here
        pipe = pipeline("f2", "uniform", 128)
        xs = (np.arange(32768) + 0.5) / 32768
        tracemalloc.start()
        try:
            fh.filter_reconstruct(pipe.recon, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

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
            filter_cfg=fh.FilterConfig(), jumps=np.array([]),
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
            filter_cfg=fh.FilterConfig(), jumps=np.array([]),
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
                filter_cfg=fh.FilterConfig(), jumps=pipe.jumps,
            )

    def test_grid_domain_validation(self):
        pipe = pipeline("f1", "jittered", 32)
        with pytest.raises(ValueError):
            fh.filter_reconstruct(pipe.recon, np.array([-0.1, 0.5]))
