"""Property tests of the grid formatter, the frame and its filtered
reconstruction, the buffer rule, the public API's refusals and the
expression grammar, and a check that a failing property fails alone.

The settings profile (derandomized, no example database, no deadline, a
fixed example count) is registered in conftest.py, so these tests draw the
same examples on every run.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import fourierhybrid as fh
from fourierhybrid import frame
from fourierhybrid.experiments import _e17_text
from fourierhybrid.filters import ALPHA, KAPPA
from fourierhybrid.hybrid import check_buffer
from fourierhybrid.oracles import frame_filtered_sum
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


SCHEMES = ["jittered", "log", "uniform"]


@st.composite
def reconstructions(draw, max_m=64, max_points=200):
    """A frame of the CLI's schemes, jumps, two sample vectors, points and a shuffle."""
    scheme = draw(st.sampled_from(SCHEMES))
    m = draw(st.integers(8, max_m))
    freqs = frequency_set(scheme, m, draw(st.integers(0, 2**16)))
    operator = fh.assemble_omega(freqs, fh.choose_n(scheme, m))
    jumps = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = freqs.frequencies.size
    s1, s2 = rng.standard_normal((2, size, 2)) @ np.array([1.0, 1j])
    xs = rng.random(draw(st.integers(1, max_points)))
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


@given(st.sampled_from(SCHEMES), st.integers(2, 64), st.integers(0, 2**16))
def test_memo_hit_is_bitwise_a_cold_assembly(scheme, m, seed):
    freqs = frequency_set(scheme, m, seed)
    n = fh.choose_n(scheme, m)
    first = fh.assemble_omega(freqs, n)
    # a bitwise-equal copy of the frequency set hits the memo
    copy = fh.FrequencySet(m=m, frequencies=freqs.frequencies.copy())
    hit = fh.assemble_omega(copy, n)
    assert hit is first
    cold = frame._assemble.__wrapped__(copy, n)
    assert hit.s.tobytes() == cold.s.tobytes()
    assert hit.pinv_t.tobytes() == cold.pinv_t.tobytes()


# the largest |filter - oracle| / (cond eps sum |s|) measured at m 8-24 with
# up to 4 points was 11.7, over 26 000 random points; 40 leaves over 3-fold
# room.  The error of e^{2 pi i l x} grows with l, so the ratio grows with m
# (12.3 at m up to 64), and the constant holds for this range of m only
ORACLE_RATIO = 40.0


@given(reconstructions(max_m=24, max_points=4))
def test_filter_matches_the_least_squares_oracle(case):
    operator, jumps, samples, _, xs, _ = case
    cond = operator.s[0] / operator.s[-1]
    assume(cond <= 1e2)
    got = filter_values(operator, jumps, samples, xs)
    m, lams = operator.m, operator.freqs.frequencies
    for x, value in zip(xs, got):
        # the adaptive rule written out; no jumps is the no-filter mode
        d = min((abs(x - xi) for xi in jumps), default=0.0)
        p, gamma = math.floor(KAPPA * d * m), math.sqrt(ALPHA * d * m)
        expect = frame_filtered_sum(lams, samples, m, operator.n, p, gamma, x).real
        assert abs(value - expect) <= ORACLE_RATIO * cond * EPS * np.sum(np.abs(samples))


@st.composite
def api_arguments(draw):
    """Valid arguments of pipeline_values, with at most one replaced by an
    invalid value; returns the arguments and the replaced one's name, or None.
    Each argument is named as the messages that refuse it name it."""
    scheme = draw(st.sampled_from(SCHEMES))
    m = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frequencies = frequency_set(scheme, m, draw(st.integers(0, 2**16))).frequencies.copy()
    samples = rng.standard_normal((frequencies.size, 2)) @ np.array([1.0, 1j])
    jumps = np.unique([0.0, 1.0, *draw(st.lists(st.floats(0.01, 0.99), max_size=3))])
    half = float(np.min(np.diff(jumps))) / 2
    delta = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * half
    try:  # check_buffer judges the rounded fit interval
        check_buffer(jumps, delta)
    except ValueError:
        assume(False)
    args = dict(frequencies=frequencies, samples=samples, n=fh.choose_n(scheme, m), jumps=jumps,
                grid=rng.random(draw(st.integers(0, 40))), delta=delta)
    name = draw(st.sampled_from([None, *args]))
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
    outside = st.one_of(non_finite, st.floats(max_value=-1e-300),
                        st.floats(min_value=math.nextafter(1.0, 2.0)))
    if name == "frequencies":
        frequencies[draw(st.integers(0, m))] = draw(non_finite)
    elif name == "samples":
        samples[draw(st.integers(0, m))] = draw(non_finite) * draw(st.sampled_from([1, 1j]))
    elif name == "n":
        args["n"] = draw(st.one_of(st.integers(m + 1, 3 * m), st.integers(-2, 0)))
    elif name == "jumps":
        args["jumps"] = np.append(jumps, draw(outside))
    elif name == "grid":
        grid = np.append(args["grid"], draw(outside))
        args["grid"] = draw(st.sampled_from([grid, grid[:, None], grid[None, :]]))
    elif name == "delta":
        args["delta"] = draw(st.one_of(non_finite, st.floats(max_value=0.0), st.floats(min_value=half)))
    return args, name


def pipeline_values(frequencies, samples, n, jumps, grid, delta):
    """The public API from frequencies to the hybrid: filter and hybrid values."""
    freqs = fh.FrequencySet(m=(frequencies.size - 1) // 2, frequencies=frequencies)
    recon = fh.FilterReconstruction(operator=fh.assemble_omega(freqs, n),
                                    samples=fh.FourierSamples(freqs, samples), jumps=jumps)
    return fh.filter_reconstruct(recon, grid)[0], fh.hybrid_reconstruct(recon, grid, delta).values


@given(api_arguments())
def test_refusals_name_the_argument_and_valid_calls_are_finite(case):
    args, name = case
    if name is None:
        for values in pipeline_values(**args):
            assert np.all(np.isfinite(values))
        return
    with pytest.raises((ValueError, RuntimeError), match=rf"^{name}( = \S+)? must"):
        pipeline_values(**args)


BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
# binding strength: a child binding less tightly than its parent is parenthesized
PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "unary": 3, "^": 4, "atom": 5}

# a node is (head, *children): a leaf, a unary or binary "+" or "-" (told
# apart by the number of children), another binary operator or a call
expression_trees = st.recursive(
    st.one_of(st.sampled_from([("x",), ("pi",)]),
              st.sampled_from([0, 1, 2, 3, 0.5, 2.5, 10]).map(lambda v: ("literal", v))),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["+", "-"]), children),
        st.tuples(st.sampled_from(list(BINARY)), children, children),
        st.tuples(st.sampled_from(list(CALLS)), children),
    ),
    max_leaves=12,
)


def reference_value(tree, x):
    """The tree evaluated directly, node by node."""
    head, *children = tree
    if head == "x":
        return x
    if head == "pi":
        return math.pi
    if head == "literal":
        return float(children[0])
    values = [reference_value(child, x) for child in children]
    if len(values) == 2:
        return BINARY[head](*values)
    if head in CALLS:
        return CALLS[head](values[0])
    return -values[0] if head == "-" else values[0]


def expression_text(tree, minimal: bool) -> tuple[str, int]:
    """(text, binding strength); minimal text has only the parentheses it needs."""
    head, *children = tree
    if head in ("x", "pi"):
        return head, PRECEDENCE["atom"]
    if head == "literal":
        return repr(children[0]), PRECEDENCE["atom"]
    if head in CALLS:
        return f"{head}({expression_text(children[0], minimal)[0]})", PRECEDENCE["atom"]

    def operand(child, needs):
        text, strength = expression_text(child, minimal)
        return f"({text})" if not minimal or strength < needs else text

    if len(children) == 1:
        return head + operand(children[0], PRECEDENCE["unary"]), PRECEDENCE["unary"]
    strength = PRECEDENCE[head]
    # ^ groups to the right, the others to the left
    left = operand(children[0], strength + (head == "^"))
    right = operand(children[1], strength + (head != "^"))
    return f"{left} {head} {right}", strength


@given(expression_trees, st.booleans())
def test_parse_expression_matches_a_reference_evaluation(tree, minimal):
    text, _ = expression_text(tree, minimal)
    xs = np.linspace(0.0, 1.0, 7)
    with np.errstate(all="ignore"):
        got = fh.parse_expression(text)(xs)
        expect = reference_value(tree, xs)
    np.testing.assert_array_equal(np.broadcast_to(got, xs.shape), np.broadcast_to(expect, xs.shape))


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


def test_failing_property_does_not_hide_later_tests(tmp_path):
    # under filterwarnings = error, the DeprecationWarning that hypothesis's
    # failure report raises when it imports libcst ended the whole run in an
    # INTERNALERROR; pyproject.toml's filter lets the run go on
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
        "def test_passes():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
