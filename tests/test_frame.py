import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import fourierhybrid as fh
from fourierhybrid.frame import _block_points, _omega_matrix, _point_params
from helpers import GRID_1024, pipeline


def omega_entry_by_quadrature(lam: float, l: int) -> complex:
    re, _ = quad(lambda x: math.cos(2 * math.pi * (lam - l) * x), 0, 1,
                 epsabs=1e-14, limit=200)
    im, _ = quad(lambda x: math.sin(2 * math.pi * (lam - l) * x), 0, 1,
                 epsabs=1e-14, limit=200)
    return complex(re, im)


class TestInnerProduct:
    def test_diagonal_is_one(self):
        assert fh.inner_product_exp(5.0, 5) == 1.0

    def test_integer_offsets_vanish(self):
        for k in (1, -3, 17):
            assert abs(fh.inner_product_exp(2.0 + k, 2)) < 1e-15

    def test_half_integer_offset(self):
        value = fh.inner_product_exp(2.5, 2)
        assert value == pytest.approx(2j / math.pi, abs=1e-15)
        assert abs(value) == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_series_branch_is_continuous(self):
        # values just inside and outside the series cutoff agree smoothly
        inside = fh.inner_product_exp(3.0 + 5e-10, 3)
        outside = fh.inner_product_exp(3.0 + 2e-9, 3)
        assert abs(inside - outside) < 1e-8
        assert inside == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("freqs", [
        fh.jittered_frequencies(64, seed=5),
        fh.uniform_frequencies(48),
        fh.log_frequencies(32),
    ], ids=["jittered", "uniform", "log"])
    def test_matrix_series_branch_bitwise(self, freqs):
        # the series is evaluated only on the masked entries; the result must
        # equal evaluating it everywhere and selecting with np.where
        modes = np.arange(-40, 41, dtype=float)
        theta = 2.0 * np.pi * (freqs.frequencies[:, None] - modes[None, :])
        small = np.abs(theta) < 2.0 * np.pi * 1e-9
        theta_safe = np.where(small, 1.0, theta)
        exact = np.sin(theta_safe) / theta_safe + 1j * (1.0 - np.cos(theta_safe)) / theta_safe
        u = 1j * theta
        series = 1.0 + u / 2.0 + u**2 / 6.0 + u**3 / 24.0
        expect = np.where(small, series, exact)
        assert np.array_equal(_omega_matrix(freqs.frequencies, modes), expect)

    def test_matrix_matches_scalar_path(self):
        rng = np.random.default_rng(8)
        lams = rng.uniform(-20, 20, 50)
        modes = np.arange(-10, 11)
        matrix = _omega_matrix(lams, modes.astype(float))
        for i in (0, 13, 29, 49):
            for j in (0, 7, 20):
                expect = fh.inner_product_exp(float(lams[i]), int(modes[j]))
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

    def test_pseudo_inverse_consistency(self):
        op = pipeline("f1", "jittered", 32, n=19).operator
        recon = op.omega @ op.pinv_apply(op.omega)
        defect = np.linalg.norm(recon - op.omega)
        assert defect <= 10 * op.rel_tol * op.s[0] * math.sqrt(op.effective_rank)

    def test_underdetermined_warns(self):
        with pytest.warns(UserWarning, match="underdetermined"):
            fh.assemble_omega(fh.uniform_frequencies(4), 6)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            fh.assemble_omega(fh.uniform_frequencies(4), 0)


class TestAdmissibility:
    def test_uniform_constant_is_one(self):
        assert fh.admissibility_constant(fh.uniform_frequencies(8), 5) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_jittered_pinned_value(self):
        c0 = fh.admissibility_constant(fh.jittered_frequencies(32, 42), 19)
        assert c0 == pytest.approx(0.9997572868409014, rel=1e-12)
        # sinc decay keeps the constant near 4/pi at worst
        assert c0 < 4.0 / math.pi


class TestChooseN:
    def test_scheme_rules(self):
        assert fh.choose_n("jittered", 256) == 153
        assert fh.choose_n("log", 256) == 55
        assert fh.choose_n("uniform", 256) == 256

    def test_theoretical_rule(self):
        assert fh.choose_n_theoretical(1.0, 1.0, 300) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            fh.choose_n("chebyshev", 64)
        with pytest.raises(ValueError):
            fh.choose_n("jittered", 1)
        with pytest.raises(ValueError):
            fh.choose_n_theoretical(0.0, 1.0, 64)


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
            v, r = fh.filter_reconstruct_point(pipe.recon, float(x))
            assert abs(values[k] - v) <= 1e-12
            assert abs(imag[k] - r) <= 1e-12

    @pytest.mark.parametrize("p_floor", [0, 3])
    def test_point_params_match_adaptive_params(self, p_floor):
        # alpha != 1 and m = 48 (not a power of two) make every product
        # round, so a reordered expression would show
        pipe = pipeline("f2", "jittered", 48)
        rng = np.random.default_rng(3)
        xs = np.concatenate([
            np.linspace(0.0, 1.0, 257), rng.uniform(0.0, 1.0, 500), [0.3, 0.7, 0.30000001],
        ])
        for jumps in (pipe.jumps, np.array([])):
            recon = fh.FilterReconstruction(
                operator=pipe.operator, samples=pipe.samples,
                filter_cfg=fh.FilterConfig(alpha=0.7, kappa=0.09, p_floor=p_floor),
                jumps=jumps,
            )
            gammas, ps = _point_params(recon, xs)
            for k, x in enumerate(xs):
                ref = fh.adaptive_params(float(x), pipe.m, recon.filter_cfg, recon.jumps)
                assert gammas[k] == ref.gamma  # bitwise, not approximately
                assert ps[k] == ref.p

    def test_streamed_blocks_match_per_point_path(self):
        pipe = pipeline("f1", "jittered", 32)
        block = _block_points(2 * pipe.m + 1)
        xs = np.linspace(0.0, 1.0, 2 * block + block // 3)
        assert xs.size % block != 0
        values, imag = fh.filter_reconstruct(pipe.recon, xs)
        for k in (0, block - 1, block, 2 * block - 1, 2 * block, xs.size - 1):
            v, r = fh.filter_reconstruct_point(pipe.recon, float(xs[k]))
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
        value, _ = fh.filter_reconstruct_point(pipe.recon, 0.25)
        err = abs(value - fh.evaluate(pipe.f, 0.25))
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
        # per-point solve with explicit identity weights
        for k, x in enumerate(xs):
            eta = pipe.samples.values.copy()
            c = np.conj(pipe.operator.pinv_apply(np.conj(eta)))
            modes = np.arange(-pipe.n, pipe.n + 1)
            direct = float(np.sum(c * np.exp(2j * np.pi * modes * x)).real)
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
