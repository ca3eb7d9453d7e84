"""Shared test pipeline builders, cached so expensive artifacts are reused."""

from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import fourierhybrid as fh
from fourierhybrid.experiments import _SCHEMES, ExperimentConfig

DATA_DIR = Path(__file__).parent / "data"

GRID_1024 = (np.arange(1024) + 0.5) / 1024

# the pipeline's default buffer width
DELTA = ExperimentConfig().delta


def load_sample_table(path):
    """(lambda, hat f) columns of a frozen (j, lambda, re, im) sample table."""
    _, lams, re, im = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    return lams, re + 1j * im


def frequency_set(scheme: str, m: int, seed: int = 42):
    return _SCHEMES[scheme].frequencies(m, seed)


def noisy(samples, eps: float, seed: int):
    """samples with eps z added, z complex Gaussian with E|z|^2 = 1 from seed."""
    rng = np.random.default_rng(seed)
    size = samples.values.size
    z = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)
    return fh.FourierSamples(samples.freqs, samples.values + eps * z)


@lru_cache(maxsize=None)
def pipeline(function: str = "f1", scheme: str = "jittered", m: int = 128,
             seed: int = 42, n: int | None = None):
    """Build (and memoize) the full filter pipeline for one configuration."""
    f = fh.builtin_function(function)
    jumps = f.breakpoints
    freqs = frequency_set(scheme, m, seed)
    samples = fh.fourier_samples(f, freqs)
    if n is None:
        n = fh.choose_n(scheme, m)
    operator = fh.assemble_omega(freqs, n)
    recon = fh.FilterReconstruction(operator=operator, samples=samples, jumps=jumps)
    return SimpleNamespace(
        f=f, jumps=jumps, freqs=freqs, samples=samples, operator=operator,
        recon=recon, m=m, n=n,
    )


def far_frequency_recon():
    """f2 on jittered m = 16, seed 1, with the last frequency moved to 330 = 20.6 m; n = 9."""
    lams = frequency_set("jittered", 16, seed=1).frequencies.copy()
    lams[-1] = 330.0
    freqs = fh.FrequencySet(m=16, frequencies=lams)
    f = fh.builtin_f2()
    return fh.FilterReconstruction(
        operator=fh.assemble_omega(freqs, 9), samples=fh.fourier_samples(f, freqs),
        jumps=f.breakpoints,
    )


@lru_cache(maxsize=None)
def hybrid_run(function: str = "f1", scheme: str = "jittered", m: int = 128,
               seed: int = 42):
    """Hybrid reconstruction on the standard 1024-point grid, memoized."""
    pipe = pipeline(function, scheme, m, seed)
    hyb = fh.hybrid_reconstruct(pipe.recon, GRID_1024, DELTA)
    truth = fh.evaluate(pipe.f, GRID_1024)
    return SimpleNamespace(
        pipe=pipe,
        hyb=hyb,
        truth=truth,
        err_filter=np.abs(hyb.filter_values - truth),
        err_hybrid=np.abs(hyb.values - truth),
        dist=fh.distance_to_set(GRID_1024, pipe.jumps),
    )
