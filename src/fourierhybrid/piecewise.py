"""Piecewise-smooth real functions on [0,1] with known breakpoints.

A function is a list of smooth pieces on half-open intervals [a, b) that
tile [0,1); the right endpoint x = 1 is served by the last piece.  The two
built-in test functions used throughout the experiments are provided, plus
a small expression grammar so custom piecewise functions can be defined
with the CLI's ``--pieces`` flag.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SmoothPiece",
    "PiecewiseFunction",
    "evaluate",
    "distance_to_set",
    "builtin_f1",
    "builtin_f2",
    "builtin_function",
    "parse_expression",
    "piecewise_from_expressions",
]


@dataclass(frozen=True)
class SmoothPiece:
    """One smooth piece on the half-open interval [a, b) inside [0,1].

    ``evaluator`` must be a pure map accepting scalars or numpy arrays and
    returning finite values on [a, b].
    """

    a: float
    b: float
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (0.0 <= self.a < self.b <= 1.0):
            raise ValueError(
                f"piece interval [{self.a}, {self.b}) must satisfy 0 <= a < b <= 1"
            )

    def __call__(self, x):
        # no numpy warning for a NaN or inf: the sampler's check names it
        with np.errstate(all="ignore"):
            return self.evaluator(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class PiecewiseFunction:
    """Ordered pieces tiling [0,1) exactly; immutable and safe to share."""

    pieces: tuple[SmoothPiece, ...]
    # the jump set: the interior breakpoints plus 0 and 1, derived from the
    # pieces.  The periodic extension of a compactly supported function is
    # generally discontinuous at the seam, so 0 and 1 count as jumps.
    breakpoints: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pieces = tuple(self.pieces)
        if not pieces:
            raise ValueError("need at least one piece")
        if pieces[0].a != 0.0 or pieces[-1].b != 1.0:
            raise ValueError("pieces must start at 0 and end at 1")
        for left, right in zip(pieces, pieces[1:]):
            if left.b != right.a:
                raise ValueError(
                    f"pieces must tile [0,1): gap/overlap at {left.b} vs {right.a}"
                )
        object.__setattr__(self, "pieces", pieces)
        breaks = np.array([p.a for p in pieces] + [1.0])
        breaks.setflags(write=False)
        object.__setattr__(self, "breakpoints", breaks)

    def piece_index(self, x):
        """Index of the piece owning x; x = 1 maps to the last piece."""
        interior = self.breakpoints[1:-1]
        return np.minimum(
            np.searchsorted(interior, x, side="right"), len(self.pieces) - 1
        )


def evaluate(f: PiecewiseFunction, x):
    """Evaluate f at x (scalar or array); values outside [0,1] are an error."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("evaluation point outside [0,1]")
    idx = f.piece_index(x_arr)
    if x_arr.ndim == 0:
        return float(f.pieces[int(idx)](x_arr))
    out = np.empty_like(x_arr)
    for k, piece in enumerate(f.pieces):
        mask = idx == k
        if np.any(mask):
            out[mask] = piece(x_arr[mask])
    return out


def nearest_jump(x: np.ndarray, jumps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k): d = min |x - xi| over the sorted, non-empty jumps, and jumps[k] at distance d.

    fl(x - xi) is monotone in xi, so the two neighbours from np.searchsorted
    give the minimum over all jumps bit for bit; a tie takes the left jump.
    """
    right = np.minimum(np.searchsorted(jumps, x), jumps.size - 1)
    left = np.maximum(right - 1, 0)
    k = np.where(np.abs(x - jumps[right]) < np.abs(x - jumps[left]), right, left)
    return np.abs(x - jumps[k]), k


def distance_to_set(x, jumps) -> np.ndarray | float:
    """min over the given jump set of |x - xi|; +inf sentinel when empty."""
    x_arr = np.asarray(x, dtype=float)
    jumps = np.sort(np.asarray(jumps, dtype=float))
    if jumps.size == 0:
        d = np.full_like(x_arr, np.inf)
    else:
        d, _ = nearest_jump(x_arr, jumps)
        if np.isnan(jumps[-1]):  # np.sort puts a NaN jump last; the minimum over it is NaN
            d = np.full_like(x_arr, np.nan)
    return float(d) if x_arr.ndim == 0 else d


def builtin_f1() -> PiecewiseFunction:
    """Single-jump test function: sin(4 pi x) on [0,0.5), sin(2 pi x) on [0.5,1]."""
    return PiecewiseFunction(
        pieces=(
            SmoothPiece(0.0, 0.5, lambda x: np.sin(4 * np.pi * x)),
            SmoothPiece(0.5, 1.0, lambda x: np.sin(2 * np.pi * x)),
        ),
    )


def builtin_f2() -> PiecewiseFunction:
    """Multi-jump test function with pieces at 0.3 and 0.7.

    exp(-5 x^2) on [0,0.3), cos(2 pi x) on [0.3,0.7), exp(x) sin(4 pi x)
    on [0.7,1].
    """
    return PiecewiseFunction(
        pieces=(
            SmoothPiece(0.0, 0.3, lambda x: np.exp(-5 * x**2)),
            SmoothPiece(0.3, 0.7, lambda x: np.cos(2 * np.pi * x)),
            SmoothPiece(0.7, 1.0, lambda x: np.exp(x) * np.sin(4 * np.pi * x)),
        ),
    )


_BUILTINS = {"f1": builtin_f1, "f2": builtin_f2}


def builtin_function(name: str) -> PiecewiseFunction:
    """Look up a built-in test function by name ("f1" or "f2")."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown built-in function {name!r}; have {sorted(_BUILTINS)}")


# ---------------------------------------------------------------------------
# Expression grammar for config-defined pieces: sin, cos, exp, + - * / ^,
# numeric literals, x, pi.

_ALLOWED_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ALLOWED_NAMES = {"pi": math.pi}

_ALLOWED_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def _compile_node(node):
    if isinstance(node, ast.Expression):
        return _compile_node(node.body)
    if isinstance(node, ast.Constant):
        if type(node.value) in (int, float):  # not bool, an int subclass
            value = float(node.value)
            return lambda x: value
        raise ValueError(f"non-numeric literal {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id == "x":
            return lambda x: x
        if node.id in _ALLOWED_NAMES:
            value = _ALLOWED_NAMES[node.id]
            return lambda x: value
        raise ValueError(f"unknown name {node.id!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
        op = _ALLOWED_BINOPS[type(node.op)]
        left = _compile_node(node.left)
        right = _compile_node(node.right)
        return lambda x: op(left(x), right(x))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile_node(node.operand)
        if isinstance(node.op, ast.USub):
            return lambda x: -operand(x)
        return operand
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
            raise ValueError("only sin, cos, exp calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise ValueError(f"{node.func.id} takes exactly one positional argument")
        fn = _ALLOWED_FUNCS[node.func.id]
        arg = _compile_node(node.args[0])
        return lambda x: fn(arg(x))
    raise ValueError(f"unsupported expression element: {ast.dump(node)}")


def parse_expression(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression string (x, pi, sin/cos/exp, + - * / ^) to a callable."""
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc
    return _compile_node(tree)


def piecewise_from_expressions(specs: Sequence[tuple[float, float, str]]) -> PiecewiseFunction:
    """Build a PiecewiseFunction from (a, b, expression) triples."""
    return PiecewiseFunction(pieces=tuple(
        SmoothPiece(float(a), float(b), parse_expression(expr)) for a, b, expr in specs
    ))
