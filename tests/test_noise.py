"""Noise gate: seeded complex Gaussian noise of absolute size eps on every sample.

RESPONSES holds, per m, the largest noise response sup|v(eps) - v(0)| / eps
over noise seeds 0-3 at eps = 1e-8 and 1e-5, for f1/jittered (frequency
seed 42) on the 1024-point grid: first for the filter's values in the
interior (d >= 0.2), then for the hybrid's values in the buffers.  The
response compares the noisy run with the clean one, not either with the
truth, so it measures how noise propagates whatever the clean error is.
For a fixed operator, jumps, grid and delta the pipeline is linear in the
samples, so both eps give the same response.  A change that more than
doubles either response fails here.
"""

import dataclasses

import numpy as np
import pytest

import fourierhybrid as fh
from helpers import DELTA, GRID_1024, hybrid_run, noisy

RESPONSES = {128: (22.6, 53.3), 512: (49.5, 251.1)}


def noise_responses(m, scale=1.0):
    """Largest (interior, buffer) response over both eps and noise seeds 0-3.

    scale multiplies the injected noise but not the eps it is divided by.
    """
    run = hybrid_run("f1", "jittered", m)
    interior = run.dist >= 0.2
    worst = np.zeros(2)
    for eps in (1e-8, 1e-5):
        for seed in range(4):
            # the clean run's operator: noise changes only the samples
            recon = dataclasses.replace(
                run.pipe.recon, samples=noisy(run.pipe.samples, scale * eps, seed)
            )
            hyb = fh.hybrid_reconstruct(recon, GRID_1024, DELTA)
            response = (
                np.max(np.abs(hyb.filter_values - run.hyb.filter_values)[interior]),
                np.max(np.abs(hyb.values - run.hyb.values)[run.hyb.extrapolated]),
            )
            worst = np.maximum(worst, np.divide(response, eps))
    return worst


@pytest.mark.parametrize("m", sorted(RESPONSES))
def test_noise_gain_at_most_twice_the_measured(m):
    assert np.all(noise_responses(m) <= 2 * np.array(RESPONSES[m]))


@pytest.mark.parametrize("m", sorted(RESPONSES))
def test_gate_fails_on_tripled_noise(m):
    # every leg sees the noise: three times as much breaks both bounds
    assert np.all(noise_responses(m, scale=3.0) > 2 * np.array(RESPONSES[m]))
