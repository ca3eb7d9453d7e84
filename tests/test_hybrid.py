import math
from dataclasses import replace

import numpy as np
import pytest

import fourierhybrid as fh
from fourierhybrid.hybrid import delta_objective
from helpers import DELTA, GRID_1024, hybrid_run, pipeline


class TestAssembly:
    def test_interior_points_keep_filter_values_bitwise(self):
        run = hybrid_run("f1", "jittered", 128)
        interior = ~run.hyb.extrapolated
        np.testing.assert_array_equal(
            run.hyb.values[interior], run.hyb.filter_values[interior]
        )

    def test_buffer_points_take_fit_values(self):
        run = hybrid_run("f1", "jittered", 128)
        hyb = run.hyb
        jumps = run.pipe.jumps
        for k, (left, right) in enumerate(zip(jumps[:-1], jumps[1:])):
            in_sub = (GRID_1024 >= left) & ((GRID_1024 < right) | (right == 1.0))
            buffer = in_sub & (
                np.minimum(GRID_1024 - left, right - GRID_1024) < DELTA
            )
            if np.any(buffer):
                expect = fh.evaluate_fit(hyb.fits[k], GRID_1024[buffer])
                np.testing.assert_array_equal(hyb.values[buffer], expect)

    def test_fits_match_per_subinterval_evaluation(self):
        # each fit is the degree-M least-squares fit to the filter values at
        # N + 1 equispaced nodes on [left + delta, right - delta]
        run = hybrid_run("f2", "jittered", 128)
        hyb = run.hyb
        jumps = run.pipe.jumps
        assert len(hyb.fits) == jumps.size - 1 == 3
        for fit, left, right in zip(hyb.fits, jumps[:-1], jumps[1:]):
            nodes = np.linspace(left + DELTA, right - DELTA, hyb.fit_sample_count)
            node_values, _ = fh.filter_reconstruct(run.pipe.recon, nodes)
            expect = fh.chebyshev_fit(nodes, node_values, hyb.degree)
            assert (fit.a, fit.b) == (expect.a, expect.b)
            assert np.max(np.abs(fit.coefficients - expect.coefficients)) <= 1e-12

    def test_tags_partition_by_distance_rule(self):
        run = hybrid_run("f2", "jittered", 128)
        d = run.dist
        # the grid CSV's tag column is written from this mask
        # (test_experiments.py::test_grid_csv_matches_per_row_format)
        np.testing.assert_array_equal(run.hyb.extrapolated, d < DELTA)

    def test_default_rules_applied(self):
        # the practical rule M = round(4 + m delta), N = 4 M^2 at the
        # benchmark's m values; a loop, not parametrize, keeps the test's id
        for m, n, degree, fit_samples in ((128, 76, 7, 197), (256, 153, 10, 401),
                                          (512, 307, 17, 1157)):
            run = hybrid_run("f1", "jittered", m)
            assert run.pipe.operator.n == n
            assert run.hyb.degree == degree
            assert run.hyb.fit_sample_count == fit_samples
            assert [fit.degree for fit in run.hyb.fits] == [degree, degree]

    def test_hybrid_beats_filter_globally_f1_m256(self):
        run = hybrid_run("f1", "jittered", 256)
        assert np.max(run.err_hybrid) < np.max(run.err_filter)

    def test_buffer_error_halves_when_m_doubles(self):
        e128 = hybrid_run("f1", "jittered", 128)
        e256 = hybrid_run("f1", "jittered", 256)
        buf128 = float(np.max(e128.err_hybrid[e128.hyb.extrapolated]))
        buf256 = float(np.max(e256.err_hybrid[e256.hyb.extrapolated]))
        assert buf256 <= 0.5 * buf128

    def test_seam_continuity(self):
        # adjacent grid points across each filter/extrapolation seam stay
        # within the local error level of the fixture runs
        run = hybrid_run("f1", "jittered", 256)
        switches = np.nonzero(np.diff(run.hyb.extrapolated.astype(int)))[0]
        assert switches.size == 4  # two buffers per jump at 0.5 plus endpoints
        for k in switches:
            assert abs(run.hyb.values[k + 1] - run.hyb.values[k]) < 0.05


class TestValidation:
    def test_delta_must_be_positive(self):
        recon = pipeline("f1", "jittered", 32).recon
        for delta in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="delta must be positive"):
                fh.hybrid_reconstruct(recon, GRID_1024, delta)

    @staticmethod
    def recon_with_jumps(jumps):
        return replace(pipeline("f1", "jittered", 32).recon, jumps=jumps)

    def test_jumps_must_contain_endpoints(self):
        recon = self.recon_with_jumps([0.5])
        with pytest.raises(ValueError, match="endpoints"):
            fh.hybrid_reconstruct(recon, GRID_1024, DELTA)

    def test_narrow_subinterval_named_in_error(self):
        recon = self.recon_with_jumps([0.0, 0.48, 0.5, 1.0])
        with pytest.raises(ValueError, match=r"\[0\.48, 0\.5\]"):
            fh.hybrid_reconstruct(recon, GRID_1024, DELTA)


class TestDeltaObjective:
    @staticmethod
    def reference_objective(delta, xi, m, rho, eta, C):
        r_star = (xi + delta + 2 * math.sqrt(xi * delta)) / (2 * rho)
        alpha = -math.log(r_star) / (math.log(rho) - math.log((xi - delta) / 2))
        return alpha * (math.log(C) + 2.25 * math.log(m) - eta * m * delta)

    def test_matches_independent_evaluation(self):
        for delta in (0.01, 0.1, 0.3):
            got = delta_objective(delta, 0.5, 128, 4.0, 1.0, 10.0)
            expect = self.reference_objective(delta, 0.5, 128, 4.0, 1.0, 10.0)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_infinite_outside_domain(self):
        assert delta_objective(0.45, 0.5, 64, 0.9, 1.0, 1.0) == math.inf


class TestOptimizeDelta:
    def test_agrees_with_brute_force_scan(self):
        for xi, rho, eta, C in ((0.5, 4.0, 1.0, 10.0), (0.3, 4.0, 1.0, 50.0)):
            got = fh.optimize_delta(xi=xi, m=128, rho=rho, eta=eta, C=C)
            grid = np.arange(1e-4, xi - 1e-4, 1e-5)
            vals = [delta_objective(d, xi, 128, rho, eta, C) for d in grid]
            brute = float(grid[int(np.argmin(vals))])
            assert abs(got - brute) <= 1e-4

    def test_monotone_in_m_on_fixture_sweep(self):
        deltas = [
            fh.optimize_delta(xi=0.5, m=m, rho=4.0, eta=1.0, C=10.0)
            for m in (64, 128, 256, 512, 1024)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(deltas, deltas[1:]))
        # pinned first/last values of the sweep
        assert deltas[0] == pytest.approx(0.43493, abs=1e-4)
        assert deltas[-1] == pytest.approx(0.37829, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            fh.optimize_delta(xi=1.5, m=64, rho=2.0, eta=1.0, C=1.0)
        with pytest.raises(ValueError):
            fh.optimize_delta(xi=0.5, m=64, rho=2.0, eta=0.0, C=1.0)
        with pytest.raises(ValueError, match="undefined"):
            fh.optimize_delta(xi=0.5, m=64, rho=0.25, eta=1.0, C=1.0)
        # NaN constants are named, not reported as an undefined objective
        for name in ("rho", "eta", "C"):
            args = {**dict(xi=0.5, m=64, rho=2.0, eta=1.0, C=1.0), name: math.nan}
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                fh.optimize_delta(**args)
