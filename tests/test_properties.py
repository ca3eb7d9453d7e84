"""Property tests of the grid formatter, the filtered reconstruction and the buffer rule.

The settings profile (derandomized, no example database, no deadline, a
fixed example count) is registered in conftest.py, so these tests draw the
same examples on every run.
"""

import math

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

import fourierhybrid as fh
from fourierhybrid.experiments import _e17_text
from fourierhybrid.hybrid import check_buffer
from helpers import frequency_set, pipeline

EPS = np.finfo(float).eps


@given(st.lists(st.floats(), min_size=1, max_size=64))
@example([float("nan"), float("inf"), -float("inf"), 0.0, -0.0])
@example([5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -1.5e-320])
def test_e17_text_is_percent_17e(values):
    rows = _e17_text(np.array(values, dtype=float))
    assert [row.tobytes().replace(b"\0", b"").decode() for row in rows] == [
        "%.17e" % v for v in values
    ]


@st.composite
def reconstructions(draw):
    """A frame of the CLI's schemes, jumps, two sample vectors, points and a shuffle."""
    scheme = draw(st.sampled_from(["jittered", "log", "uniform"]))
    m = draw(st.integers(8, 64))
    freqs = frequency_set(scheme, m, draw(st.integers(0, 2**16)))
    operator = fh.assemble_omega(freqs, fh.choose_n(scheme, m))
    jumps = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = freqs.frequencies.size
    s1, s2 = rng.standard_normal((2, size, 2)) @ np.array([1.0, 1j])
    xs = rng.random(draw(st.integers(1, 200)))
    return operator, jumps, s1, s2, xs, rng.permutation(xs.size)


def filter_values(operator, jumps, values, xs):
    samples = fh.FourierSamples(operator.freqs, values)
    recon = fh.FilterReconstruction(operator=operator, samples=samples, jumps=jumps)
    return fh.filter_reconstruct(recon, xs)[0]


@given(reconstructions(), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_filter_is_linear_and_ignores_point_order(case, a, b):
    operator, jumps, s1, s2, xs, order = case
    cond = operator.s[0] / operator.s[-1]
    tol = 100 * cond * EPS * (abs(a) * np.sum(np.abs(s1)) + abs(b) * np.sum(np.abs(s2)))
    v1 = filter_values(operator, jumps, s1, xs)
    v2 = filter_values(operator, jumps, s2, xs)
    combined = filter_values(operator, jumps, a * s1 + b * s2, xs)
    assert np.max(np.abs(combined - (a * v1 + b * v2))) <= tol
    shuffled = filter_values(operator, jumps, a * s1 + b * s2, xs[order])
    assert np.max(np.abs(shuffled - combined[order])) <= tol


@st.composite
def buffers(draw):
    """A jump set holding 0 and 1, some jumps a few ulps past another, and a
    delta: up to half the narrowest subinterval, a few ulps below it, or any."""
    interior = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    twins = [min(x + k * math.ulp(x), 1.0)
             for x, k in zip(interior, draw(st.lists(st.integers(1, 64), max_size=2)))]
    jumps = np.unique([0.0, 1.0, *interior, *twins])
    half = float(np.min(np.diff(jumps))) / 2
    delta = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True).map(lambda u: u * half),
        st.integers(1, 4).map(lambda k: half - k * math.ulp(half)),
        st.floats(0.0, 0.5, exclude_min=True),
    ))
    return jumps, delta


@given(buffers())
@example((np.array([0.0, 0.5, 1.0]), math.nextafter(0.25, 0.0)))
@example((np.array([0.0, 0.3, 0.7, 1.0]), 0.15 - math.ulp(0.15)))
@example((np.array([0.0, 0.5, 0.5 + 3 * math.ulp(0.5), 1.0]), 0.1 * math.ulp(0.5)))
def test_hybrid_accepts_every_buffer_check_buffer_accepts(case):
    # at m = 8, any refusal after check_buffer fails, such as chebyshev_fit's
    # "sample points must be distinct" on a fit interval a few ulps wide
    jumps, delta = case
    try:
        check_buffer(jumps, delta)
    except ValueError:
        assume(False)
    pipe = pipeline("f2", "uniform", 8)
    recon = fh.FilterReconstruction(operator=pipe.operator, samples=pipe.samples, jumps=jumps)
    hyb = fh.hybrid_reconstruct(recon, np.linspace(0.0, 1.0, 17), delta)
    assert np.all(np.isfinite(hyb.values))
