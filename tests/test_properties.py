"""Property tests of the grid formatter and the filtered reconstruction.

The settings profile (derandomized, no example database, no deadline, a
fixed example count) is registered in conftest.py, so these tests draw the
same examples on every run.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import fourierhybrid as fh
from fourierhybrid.experiments import _e17_text
from helpers import frequency_set

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
