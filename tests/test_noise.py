"""Noise gate: seeded complex Gaussian noise of absolute size eps on every sample.

GAINS holds, per m, the largest noise gain (err(eps) - err(0)) / eps over
noise seeds 0-3 at eps = 1e-5, for f1/jittered (frequency seed 42) on the
1024-point grid: first for the filter's interior error (d >= 0.2), then for
the hybrid's buffer error.  A change that more than doubles either gain, at
eps = 1e-8 or 1e-5, fails here.
"""

import dataclasses

import numpy as np
import pytest

import fourierhybrid as fh
from helpers import DELTA, GRID_1024, hybrid_run, noisy

GAINS = {128: (6.35, 26.6), 512: (36.7, 241.0)}


def interior_and_buffer_errors(hyb, run):
    interior = np.max(np.abs(hyb.filter_values - run.truth)[run.dist >= 0.2])
    buffer = np.max(np.abs(hyb.values - run.truth)[hyb.extrapolated])
    return interior, buffer


@pytest.mark.parametrize("m", sorted(GAINS))
def test_noise_gain_at_most_twice_the_measured(m):
    run = hybrid_run("f1", "jittered", m)
    clean = interior_and_buffer_errors(run.hyb, run)
    for eps in (1e-8, 1e-5):
        for seed in range(4):
            # the clean run's operator: noise changes only the samples
            recon = dataclasses.replace(
                run.pipe.recon, samples=noisy(run.pipe.samples, eps, seed)
            )
            hyb = fh.hybrid_reconstruct(recon, GRID_1024, DELTA)
            for err, err0, gain in zip(interior_and_buffer_errors(hyb, run), clean, GAINS[m]):
                assert err <= err0 + 2 * gain * eps
