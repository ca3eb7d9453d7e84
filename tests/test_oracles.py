import ast
import math
from pathlib import Path

import numpy as np
import pytest

import fourierhybrid as fh
from fourierhybrid import oracles
from fourierhybrid.oracles import (
    ErrorSummary,
    classical_filtered_sum,
    frame_filtered_sum,
    ground_truth_error,
    mollified_tail_energy,
    projection_coefficient,
    projection_coefficients,
    sigma_reference,
)
from helpers import GRID_1024, hybrid_run


class TestProjectionCoefficients:
    def test_pure_sine_modes(self):
        f = fh.piecewise_from_expressions([(0.0, 1.0, "sin(2*pi*x)")])
        assert projection_coefficient(f, 1) == pytest.approx(-0.5j, abs=1e-13)
        assert projection_coefficient(f, -1) == pytest.approx(0.5j, abs=1e-13)
        assert abs(projection_coefficient(f, 3)) < 1e-13

    def test_constant_function(self):
        f = fh.piecewise_from_expressions([(0.0, 1.0, "1.0")])
        coeffs = projection_coefficients(f, 3)
        assert coeffs[3] == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(np.delete(coeffs, 3))) < 1e-13

    def test_f1_zeroth_coefficient(self):
        assert projection_coefficient(fh.builtin_f1(), 0) == pytest.approx(
            -1.0 / math.pi, abs=1e-13
        )

    def test_agrees_with_pipeline_quadrature(self):
        f1 = fh.builtin_f1()
        for l in (-7, -1, 0, 2, 19, 64):
            one = fh.FrequencySet(m=0, frequencies=np.array([float(l)]))
            sample = fh.fourier_samples(f1, one).values[0]
            assert abs(projection_coefficient(f1, l) - sample) <= 1e-12

    def test_array_alignment(self):
        f1 = fh.builtin_f1()
        coeffs = projection_coefficients(f1, 4)
        assert len(coeffs) == 9
        assert coeffs[4 + 2] == projection_coefficient(f1, 2)
        assert coeffs[4 - 2] == projection_coefficient(f1, -2)


def test_sigma_reference_matches_filter_sigma():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = int(rng.integers(0, 40))
        gamma = float(rng.uniform(0.1, 10.0))
        w = float(rng.uniform(0.0, 3.0))
        assert sigma_reference(p, gamma, w) == pytest.approx(
            fh.filter_sigma(p, gamma, w), rel=1e-13
        )
    assert sigma_reference(3, 2.0, 0.0) == 1.0


class TestClassicalFilteredSum:
    def test_gamma_zero_is_partial_sum(self):
        f1 = fh.builtin_f1()
        n = 8
        coeffs = projection_coefficients(f1, n)
        ls = np.arange(-n, n + 1)
        for x in (0.1, 0.35, 0.8):
            expect = float(np.sum(coeffs * np.exp(2j * np.pi * ls * x)).real)
            got = classical_filtered_sum(coeffs, 0, 0.0, 16, n, x)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_constant_mode_invariant_under_filtering(self):
        f = fh.piecewise_from_expressions([(0.0, 1.0, "1.0")])
        coeffs = projection_coefficients(f, 4)
        assert classical_filtered_sum(coeffs, 3, 5.0, 8, 4, 0.37) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_requires_enough_coefficients(self):
        with pytest.raises(ValueError, match="l"):
            classical_filtered_sum(np.zeros(5, dtype=complex), 1, 1.0, 8, 4, 0.5)


class TestFrameFilteredSum:
    def test_uniform_frame_is_classical_sum(self):
        # on integer frequencies Omega is [0; I; 0], so the least-squares
        # coefficients are the filtered samples of modes |l| <= n
        m, n = 8, 5
        rng = np.random.default_rng(4)
        values = rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1)
        lams = np.arange(-m, m + 1, dtype=float)
        for p, gamma, x in ((0, 0.0, 0.3), (2, 3.0, 0.71), (5, 1.5, 0.05)):
            total = frame_filtered_sum(lams, values, m, n, p, gamma, x)
            expect = classical_filtered_sum(values, p, gamma, m, n, x)
            assert total.real == pytest.approx(expect, abs=1e-14)

    def test_drops_singular_values_below_rel_tol(self):
        # three copies of lambda = 1/2 make Omega's rows equal, so two of its
        # singular values vanish.  The row is e^{i pi t} sinc(t) at
        # t = 3/2, 1/2, -1/2, that is (2i/pi) (1/3, 1, -1), and with every
        # sample 2 the minimum-norm solution is c = 2 row / |row|^2 =
        # (9 pi i / 19) (1/3, 1, -1), whose mode sum at x = 0 is 3 pi i / 19
        lams = np.full(3, 0.5)
        total = frame_filtered_sum(lams, np.full(3, 2.0), 1, 1, 0, 0.0, 0.0)
        assert total == pytest.approx(3j * math.pi / 19, abs=1e-14)


def test_oracles_import_only_piecewise_from_the_package():
    # an oracle that shared code with the pipeline would pass with its bugs
    tree = ast.parse(Path(oracles.__file__).read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
            elif (node.module or "").split(".")[0] == "fourierhybrid":
                names = [node.module.partition(".")[2] or a.name for a in node.names]
            else:
                names = []
        elif isinstance(node, ast.Import):
            names = [a.name.partition(".")[2] or a.name for a in node.names
                     if a.name.split(".")[0] == "fourierhybrid"]
        else:
            names = []
        package.update(names)
    assert package == {"piecewise"}


class TestMollifiedTailEnergy:
    def test_band_limited_function_has_no_tail(self):
        f = fh.piecewise_from_expressions([(0.0, 1.0, "sin(2*pi*x)")])
        assert mollified_tail_energy(f, 2, 3.0, 16, 8, 40) <= 1e-12

    def test_bounded_by_tail_bound(self):
        f1 = fh.builtin_f1()
        n, m, p, gamma = 77, 128, 2, math.sqrt(32.0)
        energy = mollified_tail_energy(f1, p, gamma, m, n, 400)
        assert energy <= fh.tail_bound_l2(n, m, p, gamma, 1.0)

    def test_cutoff_stable(self):
        f1 = fh.builtin_f1()
        a = mollified_tail_energy(f1, 2, math.sqrt(32.0), 128, 77, 400)
        b = mollified_tail_energy(f1, 2, math.sqrt(32.0), 128, 77, 800)
        assert b == pytest.approx(a, rel=1e-14)

    def test_precomputed_coefficients_path(self):
        f1 = fh.builtin_f1()
        f_hat = projection_coefficients(f1, 400)
        a = mollified_tail_energy(f1, 2, math.sqrt(32.0), 128, 77, 400, f_hat=f_hat)
        b = mollified_tail_energy(f1, 2, math.sqrt(32.0), 128, 77, 400)
        assert a == pytest.approx(b, rel=1e-13)

    def test_validation(self):
        f1 = fh.builtin_f1()
        with pytest.raises(ValueError, match="cutoff"):
            mollified_tail_energy(f1, 2, 1.0, 16, 8, 8)
        with pytest.raises(ValueError, match="cover"):
            mollified_tail_energy(f1, 2, 1.0, 16, 8, 40, f_hat=np.zeros(21))

    def test_insufficient_cutoff_detected(self):
        # an identity filter leaves a 1/j^2-decaying tail: J barely above n
        # cannot satisfy the relative-cutoff check
        f1 = fh.builtin_f1()
        with pytest.raises(RuntimeError, match="cutoff"):
            mollified_tail_energy(f1, 0, 0.0, 16, 8, 12)


class TestGroundTruthError:
    def test_exact_reconstruction_gives_zero(self):
        f1 = fh.builtin_f1()
        truth = fh.evaluate(f1, GRID_1024)
        summary = ground_truth_error(GRID_1024, truth, f1)
        assert summary.sup == 0.0
        assert np.mean(summary.pointwise) == 0.0

    def test_constant_offset(self):
        f1 = fh.builtin_f1()
        truth = fh.evaluate(f1, GRID_1024)
        summary = ground_truth_error(GRID_1024, truth + 1e-3, f1)
        assert summary.sup == pytest.approx(1e-3, rel=1e-12)
        assert np.mean(summary.pointwise) == pytest.approx(1e-3, rel=1e-12)

    def test_points_at_jumps_excluded_from_summaries(self):
        f2 = fh.builtin_f2()
        grid = np.array([0.15, 0.3, 0.5])  # 0.3 sits exactly on a jump
        values = fh.evaluate(f2, grid)
        values[1] += 100.0  # ambiguous point must not drive the sup
        summary = ground_truth_error(grid, values, f2)
        assert summary.sup == 0.0

    def test_interior_sup_with_delta(self):
        f1 = fh.builtin_f1()
        truth = fh.evaluate(f1, GRID_1024)
        d = fh.distance_to_set(GRID_1024, f1.breakpoints)
        noise = np.where(d < 0.1, 1.0, 1e-6)
        summary = ground_truth_error(GRID_1024, truth + noise, f1, delta=0.1)
        assert summary.sup == pytest.approx(1.0)
        assert summary.sup_interior == pytest.approx(1e-6, rel=1e-9)

    def test_summary_is_immutable_dataclass(self):
        summary = ErrorSummary(pointwise=np.zeros(3), sup=0.0)
        with pytest.raises(AttributeError):
            summary.sup = 1.0


def test_end_to_end_regression_f1_hybrid_m512():
    run = hybrid_run("f1", "jittered", 512)
    summary = ground_truth_error(GRID_1024, run.hyb.values, run.pipe.f, delta=1.0 / 40.0)
    assert summary.sup == pytest.approx(0.006870697899337463, rel=1e-6)
    # no midpoint of the grid lies on a jump, so every point counts
    assert np.mean(summary.pointwise) == pytest.approx(0.000145485457594419, rel=1e-6)
