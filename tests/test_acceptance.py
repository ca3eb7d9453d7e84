"""Acceptance gate: end-to-end criteria with stated tolerances.

Each test prints one PASS/FAIL line (bypassing capture so the verdicts are
visible in any pytest run) and then asserts the criterion.
"""

import filecmp
import math
import time

import numpy as np
from scipy.integrate import quad

import fourierhybrid as fh
from fourierhybrid.experiments import ExperimentConfig, run_experiment
from fourierhybrid.filters import sigma_weight_matrix
from fourierhybrid.oracles import (
    classical_filtered_sum,
    mollified_tail_energy,
    projection_coefficients,
)
from helpers import GRID_1024, hybrid_run, pipeline


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\nacceptance criterion {number:2d} [{name}]: {verdict} ({detail})")
    return ok


def test_criterion_01_uniform_degeneration(capsys):
    started = time.perf_counter()
    pipe = pipeline("f1", "uniform", 64)
    values, _ = fh.filter_reconstruct(pipe.recon, GRID_1024)
    f_hat = projection_coefficients(pipe.f, 64)
    gammas, ps, _ = fh.adaptive_param_arrays(GRID_1024, 64, fh.FilterConfig(), pipe.jumps)
    worst = 0.0
    for k, x in enumerate(GRID_1024):
        oracle = classical_filtered_sum(f_hat, int(ps[k]), float(gammas[k]), 64, 64, float(x))
        worst = max(worst, abs(values[k] - oracle))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    assert report(
        capsys, 1, "uniform degeneration",
        ok, f"max |frame - classical| = {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_in_span_exactness(capsys):
    started = time.perf_counter()
    f = fh.piecewise_from_expressions([(0.0, 1.0, "sin(2*pi*x)")])
    freqs = fh.jittered_frequencies(64, seed=42)
    samples = fh.fourier_samples(f, freqs)
    op = fh.assemble_omega(freqs, 38)
    recon = fh.FilterReconstruction(
        operator=op, samples=samples, filter_cfg=fh.FilterConfig(), jumps=np.array([])
    )
    values, _ = fh.filter_reconstruct(recon, GRID_1024)
    sup = float(np.max(np.abs(values - np.sin(2 * np.pi * GRID_1024))))
    elapsed = time.perf_counter() - started
    ok = sup <= 1e-8 and elapsed < 10.0
    assert report(capsys, 2, "in-span exactness", ok,
                  f"sup grid error = {sup:.3e}, {elapsed:.1f}s")


def test_criterion_03_omega_closed_form(capsys):
    freqs = fh.jittered_frequencies(64, seed=11)
    op = fh.assemble_omega(freqs, 30)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        row = int(rng.integers(0, 129))
        col = int(rng.integers(0, 61))
        lam = float(freqs.frequencies[row])
        l = col - 30
        re, _ = quad(lambda x: math.cos(2 * math.pi * (lam - l) * x), 0, 1,
                     epsabs=1e-14, limit=200)
        im, _ = quad(lambda x: math.sin(2 * math.pi * (lam - l) * x), 0, 1,
                     epsabs=1e-14, limit=200)
        worst = max(worst, abs(op.omega[row, col] - complex(re, im)))
    ok = worst <= 1e-12
    assert report(capsys, 3, "closed-form Omega", ok, f"max entry diff = {worst:.3e}")


def test_criterion_04_tail_bound_dominance(capsys):
    started = time.perf_counter()
    f1 = fh.builtin_f1()
    j_max = 1600
    f_hat = projection_coefficients(f1, j_max)
    checked = 0
    violations = []
    for m in (64, 128, 256, 512):
        for n in (40, 50, 60, 77, 100, 120, 150, 200, 250, 300):
            for d in (0.1, 0.175, 0.25, 0.35, 0.5):
                gamma = math.sqrt(d * m)
                p = math.floor(d * m / 15.0)
                z = (n * gamma) ** 2 / (2.0 * m**2)
                if z < p or p == 0:
                    continue
                bound = fh.tail_bound_l2(n, m, p, gamma, 1.0)
                J = max(2 * n, m)
                while True:
                    try:
                        energy = mollified_tail_energy(f1, p, gamma, m, n, J, f_hat=f_hat)
                        break
                    except RuntimeError:
                        J *= 2
                        if J > j_max:
                            raise
                checked += 1
                if energy > bound:
                    violations.append((n, m, d, energy, bound))
    elapsed = time.perf_counter() - started
    ok = checked >= 50 and not violations and elapsed < 120.0
    assert report(
        capsys, 4, "tail-bound dominance", ok,
        f"{checked} combinations, {len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_05_interior_convergence_rate(capsys):
    sups = {}
    for m in (128, 256, 512):
        run = hybrid_run("f1", "jittered", m)
        interior = run.dist >= 0.2
        sups[m] = float(np.max(run.err_filter[interior]))
    ratio_1 = sups[256] / sups[128]
    ratio_2 = sups[512] / sups[256]
    ok = ratio_1 <= 0.2 and ratio_2 <= 0.2
    assert report(
        capsys, 5, "interior convergence rate", ok,
        f"sup errors {sups[128]:.3e}/{sups[256]:.3e}/{sups[512]:.3e}, "
        f"ratios {ratio_1:.3f} and {ratio_2:.3f} vs required <= 0.2",
    )


def test_criterion_06_hybrid_uniform_improvement(capsys):
    failures = []
    details = []
    for function in ("f1", "f2"):
        for scheme in ("jittered", "log"):
            run = hybrid_run(function, scheme, 256)
            buffers = run.hyb.extrapolated
            buf_filter = float(np.max(run.err_filter[buffers]))
            buf_hybrid = float(np.max(run.err_hybrid[buffers]))
            glob_filter = float(np.max(run.err_filter))
            glob_hybrid = float(np.max(run.err_hybrid))
            ratio = buf_hybrid / buf_filter
            details.append(f"{function}/{scheme}: buffer ratio {ratio:.2f}")
            if buf_hybrid > 0.1 * buf_filter or glob_hybrid > glob_filter:
                failures.append((function, scheme))
    ok = not failures
    assert report(
        capsys, 6, "hybrid uniform improvement", ok,
        "; ".join(details) + " vs required <= 0.10",
    )


def test_criterion_07_extrapolation_oracle(capsys):
    xs = np.linspace(0.0, 0.475, 401)
    fit = fh.chebyshev_fit(xs, np.exp(xs), 10)
    exp_err = abs(fh.evaluate_fit(fit, 0.5) - math.exp(0.5))

    rng = np.random.default_rng(77)
    coeffs = rng.uniform(-1, 1, 11)
    t = 2 * (xs - xs.min()) / (xs.max() - xs.min()) - 1
    poly = np.polynomial.chebyshev.chebval(t, coeffs)
    poly_fit = fh.chebyshev_fit(xs, poly, 10)
    coeff_err = float(np.max(np.abs(poly_fit.coefficients - coeffs)))

    ok = exp_err <= 1e-6 and coeff_err <= 1e-10
    assert report(
        capsys, 7, "extrapolation oracle", ok,
        f"exp error at 0.5 = {exp_err:.3e}, poly coefficient error = {coeff_err:.3e}",
    )


def test_criterion_08_delta_optimizer_brute_force(capsys):
    from fourierhybrid.hybrid import delta_objective

    fixtures = [
        (0.5, 128, 4.0, 1.0, 10.0),
        (0.5, 256, 3.0, 0.5, 100.0),
        (0.3, 128, 4.0, 1.0, 50.0),
        (0.5, 512, 8.0, 0.2, 1.0),
        (0.3, 1024, 6.0, 0.3, 20.0),
    ]
    worst = 0.0
    for xi, m, rho, eta, C in fixtures:
        got = fh.optimize_delta(xi=xi, m=m, rho=rho, eta=eta, C=C)
        grid = np.arange(1e-4, xi - 1e-4 + 5e-6, 1e-5)
        vals = np.array([delta_objective(d, xi, m, rho, eta, C) for d in grid])
        brute = float(grid[int(np.argmin(vals))])
        worst = max(worst, abs(got - brute))
    ok = worst <= 1e-4
    assert report(capsys, 8, "delta optimizer vs brute force", ok,
                  f"max |delta* difference| = {worst:.2e}")


def test_criterion_09_full_reproduction(capsys, tmp_path):
    started = time.perf_counter()
    out_dirs = []
    for label in ("first", "second"):
        for function in ("f1", "f2"):
            for scheme in ("jittered", "log"):
                out = tmp_path / label / f"{function}_{scheme}"
                cfg = ExperimentConfig(
                    function=function, scheme=scheme, output_dir=str(out)
                )
                report_obj = run_experiment(cfg)
                assert len(report_obj.records) == 3
                out_dirs.append(out)
    elapsed = time.perf_counter() - started

    identical = True
    file_count = 0
    for first in out_dirs[:4]:
        second = tmp_path / "second" / first.name
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
        file_count += len(names)
        if mismatch or errors:
            identical = False
    ok = elapsed < 300.0 and identical and file_count == 4 * (3 * 3 + 2)
    assert report(
        capsys, 9, "full reproduction", ok,
        f"{file_count} files, byte-identical={identical}, {elapsed:.0f}s",
    )


def test_criterion_10_monotone_filter_properties(capsys):
    monotone_w = True
    monotone_p = True
    for p in range(20):
        # z sampled around p so the decrement is numerically representable
        zs = np.linspace(0.5 * p + 0.25, p + 15.0, 100)
        ws = np.sqrt(2.0 * zs) / 2.0
        vals = np.array([fh.filter_sigma(p, 2.0, w) for w in ws])
        if not np.all(np.diff(vals) < 0):
            monotone_w = False
        vals_up = np.array([fh.filter_sigma(p + 1, 2.0, w) for w in ws])
        if not np.all(vals_up >= vals - 1e-14):
            monotone_p = False

    # one row of weights per jump distance d
    gammas, ps, _ = fh.adaptive_param_arrays(
        np.array([0.0, 0.05, 0.25, 0.5]), 64, fh.FilterConfig(), [0.0, 1.0]
    )
    weights_ok = True
    for freqs in (
        fh.uniform_frequencies(64),
        fh.jittered_frequencies(64, seed=42),
        fh.log_frequencies(64),
    ):
        w = sigma_weight_matrix(ps, gammas, freqs.frequencies, 64)
        if not (np.all(w > 0.0) and np.all(w <= 1.0)):
            weights_ok = False
    ok = monotone_w and monotone_p and weights_ok
    assert report(
        capsys, 10, "monotone filter properties", ok,
        f"decreasing in |w|: {monotone_w}, nondecreasing in p: {monotone_p}, "
        f"weights in (0,1]: {weights_ok}",
    )
