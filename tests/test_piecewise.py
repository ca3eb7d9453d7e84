import math

import numpy as np
import pytest

from fourierhybrid import (
    PiecewiseFunction,
    SmoothPiece,
    builtin_f1,
    builtin_f2,
    builtin_function,
    evaluate,
    parse_expression,
    piecewise_from_expressions,
)
from fourierhybrid.piecewise import distance_to_set, nearest_jump


def test_evaluate_f1_spot_values():
    f1 = builtin_f1()
    assert evaluate(f1, 0.25) == pytest.approx(math.sin(math.pi), abs=1e-15)
    assert evaluate(f1, 0.75) == pytest.approx(-1.0, abs=1e-15)


def test_evaluate_f2_left_endpoint():
    assert evaluate(builtin_f2(), 0.0) == 1.0


def test_right_endpoint_uses_last_piece():
    # x = 1 evaluates via the last piece (left-limit convention)
    f2 = builtin_f2()
    assert evaluate(f2, 1.0) == pytest.approx(math.e * math.sin(4 * math.pi), abs=1e-14)


def test_breakpoints_are_right_continuous():
    f2 = builtin_f2()
    assert evaluate(f2, 0.3) == pytest.approx(math.cos(0.6 * math.pi))
    assert evaluate(f2, 0.7) == pytest.approx(math.exp(0.7) * math.sin(2.8 * math.pi))


def test_evaluate_outside_domain_raises():
    f1 = builtin_f1()
    with pytest.raises(ValueError):
        evaluate(f1, -0.001)
    with pytest.raises(ValueError):
        evaluate(f1, np.array([0.5, 1.0001]))


def test_evaluate_array_matches_scalars():
    f2 = builtin_f2()
    xs = np.linspace(0.0, 1.0, 257)
    vec = evaluate(f2, xs)
    assert vec.shape == xs.shape
    for k in (0, 77, 128, 200, 256):
        assert vec[k] == evaluate(f2, float(xs[k]))


def test_jump_set_f1():
    f1 = builtin_f1()
    assert f1.breakpoints.tolist() == [0.0, 0.5, 1.0]
    # shared by every caller, so no caller may write it
    assert not f1.breakpoints.flags.writeable


def test_jump_set_f2_uses_displayed_boundaries():
    assert builtin_f2().breakpoints.tolist() == [0.0, 0.3, 0.7, 1.0]


def test_distance_to_set_values():
    f1_jumps = builtin_f1().breakpoints
    assert distance_to_set(0.25, f1_jumps) == 0.25
    assert distance_to_set(0.5, f1_jumps) == 0.0
    assert distance_to_set(0.55, builtin_f2().breakpoints) == pytest.approx(0.15)


def test_distance_to_empty_set_is_infinite():
    assert distance_to_set(0.3, np.array([])) == math.inf


def test_distance_is_one_lipschitz():
    f2 = builtin_f2()
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 1.0, 200)
    ys = rng.uniform(0.0, 1.0, 200)
    dx = distance_to_set(xs, f2.breakpoints)
    dy = distance_to_set(ys, f2.breakpoints)
    assert np.all(np.abs(dx - dy) <= np.abs(xs - ys) + 1e-15)


def test_f2_has_value_jump_at_03():
    f2 = builtin_f2()
    left = evaluate(f2, 0.3 - 1e-12)
    right = evaluate(f2, 0.3)
    assert left == pytest.approx(math.exp(-0.45), abs=1e-9)
    assert right == pytest.approx(math.cos(0.6 * math.pi), abs=1e-15)
    assert abs(left - right) > 0.9


def test_f1_is_value_continuous_with_derivative_jump_at_half():
    f1 = builtin_f1()
    h = 1e-7
    assert abs(evaluate(f1, 0.5 - h) - evaluate(f1, 0.5)) < 1e-5
    slope_left = (evaluate(f1, 0.5 - h) - evaluate(f1, 0.5 - 2 * h)) / h
    slope_right = (evaluate(f1, 0.5 + 2 * h) - evaluate(f1, 0.5 + h)) / h
    assert slope_left == pytest.approx(4 * math.pi, rel=1e-4)
    assert slope_right == pytest.approx(-2 * math.pi, rel=1e-4)


def test_builtins_match_independent_closed_forms():
    rng = np.random.default_rng(123)
    xs = rng.uniform(0.0, 1.0, 1000)
    f1 = evaluate(builtin_f1(), xs)
    expect1 = np.where(xs < 0.5, np.sin(4 * np.pi * xs), np.sin(2 * np.pi * xs))
    np.testing.assert_allclose(f1, expect1, atol=1e-14)
    f2 = evaluate(builtin_f2(), xs)
    expect2 = np.where(
        xs < 0.3,
        np.exp(-5 * xs**2),
        np.where(xs < 0.7, np.cos(2 * np.pi * xs), np.exp(xs) * np.sin(4 * np.pi * xs)),
    )
    np.testing.assert_allclose(f2, expect2, atol=1e-14)


def test_exactly_one_piece_claims_each_point():
    f2 = builtin_f2()
    xs = np.linspace(0.0, 1.0, 4097)
    idx = f2.piece_index(xs)
    for k, piece in enumerate(f2.pieces):
        mask = idx == k
        inside = (xs[mask] >= piece.a) & ((xs[mask] < piece.b) | (piece.b == 1.0))
        assert np.all(inside)


def test_builtin_function_lookup():
    # each is known by its breakpoints and its values on either side of them
    f1, f2 = builtin_function("f1"), builtin_function("f2")
    np.testing.assert_array_equal(f1.breakpoints, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(f2.breakpoints, [0.0, 0.3, 0.7, 1.0])
    xs = np.array([0.125, 0.75])
    np.testing.assert_allclose(
        evaluate(f1, xs), [np.sin(np.pi / 2), np.sin(1.5 * np.pi)], atol=1e-15
    )
    xs = np.array([0.2, 0.5, 0.8])
    np.testing.assert_allclose(
        evaluate(f2, xs), [np.exp(-0.2), np.cos(np.pi), np.exp(0.8) * np.sin(3.2 * np.pi)],
        atol=1e-15,
    )
    with pytest.raises(ValueError, match="unknown built-in"):
        builtin_function("f3")


def test_piece_interval_validation():
    with pytest.raises(ValueError):
        SmoothPiece(0.5, 0.5, lambda x: x)
    with pytest.raises(ValueError):
        SmoothPiece(-0.1, 0.5, lambda x: x)


def test_pieces_must_tile_unit_interval():
    good = SmoothPiece(0.0, 0.5, lambda x: x)
    with pytest.raises(ValueError, match="start at 0 and end at 1"):
        PiecewiseFunction(pieces=(good,))
    with pytest.raises(ValueError, match="gap/overlap"):
        PiecewiseFunction(
            pieces=(good, SmoothPiece(0.6, 1.0, lambda x: x)),
        )
    with pytest.raises(ValueError, match="at least one piece"):
        PiecewiseFunction(pieces=())


def test_parse_expression_basics():
    g = parse_expression("sin(2*pi*x)")
    xs = np.linspace(0, 1, 11)
    np.testing.assert_allclose(g(xs), np.sin(2 * np.pi * xs), atol=1e-15)
    h = parse_expression("exp(-5*x^2)")
    np.testing.assert_allclose(h(xs), np.exp(-5 * xs**2), atol=1e-15)
    assert parse_expression("1/2 + cos(0)")(0.0) == pytest.approx(1.5)
    assert parse_expression("+x")(0.25) == 0.25


def test_parse_expression_rejects_unsafe_input():
    for bad in ("__import__('os')", "x.real", "open('x')", "lambda y: y", "tan(x)", "y"):
        with pytest.raises(ValueError):
            parse_expression(bad)
    for bad, message in (("sin(x, x)", "^sin takes exactly one positional argument$"),
                         ("sin(", "^cannot parse expression 'sin\\('")):
        with pytest.raises(ValueError, match=message):
            parse_expression(bad)


def test_parse_expression_rejects_booleans():
    # bool is an int subclass; True once evaluated to 1.0 and x*False to 0
    for bad, literal in (("True", "True"), ("x*False", "False"), ("2 + True", "True")):
        with pytest.raises(ValueError, match=f"^non-numeric literal {literal}$"):
            parse_expression(bad)
    assert parse_expression("1 + 2.5*x")(2.0) == 6.0


def test_piecewise_from_expressions_matches_builtin():
    custom = piecewise_from_expressions(
        [(0.0, 0.5, "sin(4*pi*x)"), (0.5, 1.0, "sin(2*pi*x)")]
    )
    xs = np.linspace(0, 1, 333)
    np.testing.assert_allclose(
        evaluate(custom, xs), evaluate(builtin_f1(), xs), atol=1e-14
    )


def test_nearest_jump_is_bitwise_the_broadcast_minimum():
    # duplicates, points on jumps, midpoints and their float neighbours
    rng = np.random.default_rng(7)
    for trial in range(300):
        jumps = np.sort(rng.choice(rng.uniform(0.0, 1.0, 6), size=rng.integers(1, 8)))
        mids = 0.5 * (jumps[:-1] + jumps[1:])
        xs = np.concatenate([rng.uniform(0.0, 1.0, 40), jumps, mids,
                             np.nextafter(mids, 0.0), np.nextafter(mids, 1.0), [0.0, 1.0]])
        d, k = nearest_jump(xs, jumps)
        full = np.abs(xs[:, None] - jumps)
        assert np.array_equal(d, full.min(axis=1))
        assert np.array_equal(full[np.arange(xs.size), k], d)
        assert np.array_equal(distance_to_set(xs, jumps[::-1]), d)
    # a NaN jump makes every distance NaN, as the broadcast minimum does
    assert np.isnan(distance_to_set(np.array([0.1, 0.9]), [0.2, math.nan, 0.8])).all()
    assert math.isnan(distance_to_set(0.1, [math.nan]))
