import math
from dataclasses import replace

import numpy as np
import pytest

import fourierhybrid as fh
from fourierhybrid.chebfit import A_MAX, extrapolation_amplification, extrapolation_params_bounded
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

    def test_empty_grid_gives_empty_arrays(self):
        # the fits still take their nodes, but no grid point is evaluated
        hyb = fh.hybrid_reconstruct(pipeline("f1", "jittered", 32).recon, np.array([]), DELTA)
        for array in (hyb.values, hyb.extrapolated, hyb.filter_values, hyb.imag_residual):
            assert array.shape == (0,)

    def test_tags_partition_by_distance_rule(self):
        run = hybrid_run("f2", "jittered", 128)
        d = run.dist
        # the grid CSV's tag column is written from this mask
        # (test_experiments.py::test_grid_csv_matches_per_row_format)
        np.testing.assert_array_equal(run.hyb.extrapolated, d < DELTA)

    def test_default_rules_applied(self):
        # the degree rule at the benchmark's m values: the practical
        # round(4 + m delta) caps M (7 at m=128), and A(M) <= 100 stops it at
        # 10 on f1's halves and at 7 on f2's narrowest thirds; N = 4 M^2.
        # A loop, not parametrize, keeps the test's id
        for function, m, n, degree, fit_samples in (
            ("f1", 128, 76, 7, 197), ("f1", 256, 153, 10, 401), ("f1", 512, 307, 10, 401),
            ("f2", 256, 153, 7, 197), ("f2", 512, 307, 7, 197),
        ):
            run = hybrid_run(function, "jittered", m)
            assert run.pipe.operator.n == n
            assert run.hyb.degree == degree
            assert run.hyb.fit_sample_count == fit_samples
            assert [fit.degree for fit in run.hyb.fits] == [degree] * (run.pipe.jumps.size - 1)

    @staticmethod
    def amplification(fit, left, right, degree, fit_samples):
        """The inf-norm of node values -> fit values at left and right, by lstsq."""
        nodes = np.linspace(left + DELTA, right - DELTA, fit_samples)
        vander = np.polynomial.chebyshev.chebvander(fit.map_to_t(nodes), degree)
        node_map = np.linalg.lstsq(vander, np.eye(fit_samples), rcond=None)[0]
        ends = np.polynomial.chebyshev.chebvander(fit.map_to_t([left, right]), degree)
        return float(np.max(np.abs(ends @ node_map).sum(axis=1)))

    @pytest.mark.parametrize("function, m, expect", [
        ("f1", 128, 23.7), ("f1", 512, 96.7), ("f2", 256, 64.0), ("f2", 512, 64.0),
    ])
    def test_amplification_recomputed_from_the_chosen_degree(self, function, m, expect):
        run = hybrid_run(function, "jittered", m)
        hyb = run.hyb
        jumps = run.pipe.jumps
        per_fit = [
            self.amplification(fit, left, right, hyb.degree, hyb.fit_sample_count)
            for fit, left, right in zip(hyb.fits, jumps[:-1], jumps[1:])
        ]
        assert hyb.amplification == pytest.approx(max(per_fit), rel=1e-9)
        assert hyb.amplification == pytest.approx(expect, abs=0.05)
        assert hyb.amplification <= A_MAX
        # the degree is the largest below the practical cap that keeps A <= A_MAX
        cap, _ = fh.extrapolation_params_practical(m, DELTA)
        if hyb.degree < cap:
            above = hyb.degree + 1
            assert max(
                extrapolation_amplification(right - left, DELTA, above)
                for left, right in zip(jumps[:-1], jumps[1:])
            ) > A_MAX

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


class TestLargeM:
    @pytest.mark.parametrize("function", ["f1", "f2"])
    def test_hybrid_does_not_diverge_at_m1024(self, function):
        # with M = round(4 + m delta) = 30 the buffer errors were 0.74 (f1)
        # and 2.0e4 (f2); the degree rule keeps M at 10 and 7, and the
        # hybrid reads 2.2e-4 and 2.1e-2 against the filter's 4.7e-4 and 0.26
        f = fh.builtin_function(function)
        freqs = fh.jittered_frequencies(1024, seed=42)
        operator = fh.assemble_omega(freqs, fh.choose_n("jittered", 1024))
        recon = fh.FilterReconstruction(
            operator=operator, samples=fh.fourier_samples(f, freqs), jumps=f.breakpoints,
        )
        hyb = fh.hybrid_reconstruct(recon, GRID_1024, DELTA)
        truth = fh.evaluate(f, GRID_1024)
        buffer = hyb.extrapolated
        err_hybrid = float(np.max(np.abs(hyb.values - truth)[buffer]))
        err_filter = float(np.max(np.abs(hyb.filter_values - truth)[buffer]))
        assert math.isfinite(err_hybrid)
        assert err_hybrid < err_filter


class TestValidation:
    def test_delta_must_be_positive(self):
        recon = pipeline("f1", "jittered", 32).recon
        for delta in (0.0, -0.1):
            with pytest.raises(ValueError, match="delta must be positive"):
                fh.hybrid_reconstruct(recon, GRID_1024, delta)
        # NaN is not finite; that test comes first
        with pytest.raises(ValueError, match="^delta must be finite, got nan$"):
            fh.hybrid_reconstruct(recon, GRID_1024, math.nan)

    @staticmethod
    def recon_with_jumps(jumps):
        return replace(pipeline("f1", "jittered", 32).recon, jumps=jumps)

    def test_jumps_must_contain_endpoints(self):
        recon = self.recon_with_jumps([0.5])
        with pytest.raises(ValueError, match="endpoints"):
            fh.hybrid_reconstruct(recon, GRID_1024, DELTA)

    def test_barely_wide_subinterval_gets_a_low_degree(self):
        # [0.449, 0.5] is 1.02 * 2 delta wide: A(1) = 61 and A(2) = 6.7e3 there,
        # so every fit drops to degree 1 and the values stay finite
        recon = self.recon_with_jumps([0.0, 0.449, 0.5, 1.0])
        hyb = fh.hybrid_reconstruct(recon, GRID_1024, DELTA)
        assert hyb.degree == 1
        assert hyb.fit_sample_count == 5
        assert [fit.degree for fit in hyb.fits] == [1, 1, 1]
        assert hyb.amplification <= A_MAX
        assert np.all(np.isfinite(hyb.values))
        assert np.any(hyb.extrapolated[(GRID_1024 > 0.449) & (GRID_1024 < 0.5)])

    def test_fit_interval_a_few_ulps_wide_lowers_the_degree(self):
        # [0.5, 0.5 + 4 ulp] less delta = ulp / 10 at each end rounds back to
        # itself: five floats, which hold the 5 nodes of M = 1 but not the 17
        # of M = 2, so the plan stops at M = 1 although A alone admits the
        # practical cap M = 4; every fit then takes M = 1
        u = math.ulp(0.5)
        jumps = np.array([0.0, 0.5, 0.5 + 4 * u, 1.0])
        assert max(extrapolation_amplification(w, u / 10, 4) for w in np.diff(jumps)) <= A_MAX
        degree, nodes, _ = extrapolation_params_bounded(32, u / 10, jumps)
        assert (degree, nodes.shape) == (1, (3, 5))
        hyb = fh.hybrid_reconstruct(self.recon_with_jumps(jumps), GRID_1024, u / 10)
        assert (hyb.degree, hyb.fit_sample_count) == (1, 5)
        assert (hyb.fits[1].a, hyb.fits[1].b) == (0.5, 0.5 + 4 * u)
        assert hyb.amplification == max(
            extrapolation_amplification(w, u / 10, 1) for w in np.diff(jumps))
        assert np.all(np.isfinite(hyb.values))

    @pytest.mark.parametrize("jumps, delta, degree, rows_built", [
        # wide fit intervals: only the returned degree's rows are built
        ([0.0, 0.3, 0.7, 1.0], DELTA, 7, 1),
        # trials M = 1, 2 look at the rows of [0.5, 0.5 + 4 ulp], then M = 1's
        ([0.0, 0.5, 0.5 + 4 * math.ulp(0.5), 1.0], math.ulp(0.5) / 10, 1, 3),
    ])
    def test_plan_builds_node_rows_only_where_they_could_repeat(
            self, monkeypatch, jumps, delta, degree, rows_built):
        expect = extrapolation_params_bounded(512, delta, jumps)
        calls = []
        linspace = np.linspace
        monkeypatch.setattr(np, "linspace", lambda *a, **k: calls.append(a) or linspace(*a, **k))
        plan = extrapolation_params_bounded(512, delta, jumps)
        assert (plan[0], plan[2]) == (expect[0], expect[2])
        assert plan[1].tobytes() == expect[1].tobytes()
        assert (plan[0], len(calls)) == (degree, rows_built)

    def test_fit_interval_of_four_floats_takes_degree_0_with_amplification_1(self):
        # [0.5, 0.5 + 3 ulp] holds 4 floats, too few for M = 1's 5 nodes, so
        # M = 0 fits through the interval's two ends, whose A is 1 exactly;
        # once reported as 0.9999999999999997 by a second route to A(0)
        u = math.ulp(0.5)
        pipe = pipeline("f2", "uniform", 32)
        recon = fh.FilterReconstruction(operator=pipe.operator, samples=pipe.samples,
                                        jumps=np.array([0.0, 0.5, 0.5 + 3 * u, 1.0]))
        hyb = fh.hybrid_reconstruct(recon, np.linspace(0.0, 1.0, 17), u / 10)
        assert (hyb.degree, hyb.fit_sample_count) == (0, 2)
        assert hyb.amplification == 1.0

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
        # xi below twice the search's margin from 0 and from xi
        with pytest.raises(ValueError, match="search interval is empty"):
            fh.optimize_delta(xi=1.5e-4, m=64, rho=2.0, eta=1.0, C=1.0)
        # NaN constants are named, not reported as an undefined objective
        for name in ("rho", "eta", "C"):
            args = {**dict(xi=0.5, m=64, rho=2.0, eta=1.0, C=1.0), name: math.nan}
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                fh.optimize_delta(**args)
