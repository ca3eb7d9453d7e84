"""End-to-end experiment harness and the `reconstruct` command-line tool.

For each requested half-bandwidth m the harness builds the frequency set,
synthesizes samples, runs the filtered frame reconstruction and the hybrid
assembly on a midpoint grid, and writes CSV tables plus simple SVG line
plots.  Outputs are byte-reproducible for a fixed config and seed: every
file carries a '#'-commented config echo, and wall times are reported only
in the in-memory run report.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(out of memory included), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .filters import FilterConfig, check_rule_range
from .frame import FilterReconstruction, assemble_omega
from .hybrid import hybrid_reconstruct
from .oracles import ground_truth_error
from .piecewise import (
    PiecewiseFunction,
    builtin_function,
    evaluate,
    piecewise_from_expressions,
)
from .sampling import (
    fourier_samples,
    jittered_frequencies,
    log_frequencies,
    uniform_frequencies,
)

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "RunReport",
    "choose_n",
    "run_experiment",
    "convergence_table",
    "main",
]

# per sampling scheme: its abbreviation in file names, its frequency set
# as a function of (m, seed), and its empirical mode count n(m) for m >= 2
_Scheme = namedtuple("_Scheme", "abbrev frequencies n_rule")
_SCHEMES = {
    "jittered": _Scheme("jit", jittered_frequencies, lambda m: math.floor(0.6 * m)),
    "log": _Scheme("log", lambda m, seed: log_frequencies(m), lambda m: math.floor(2 * m**0.6)),
    "uniform": _Scheme("uni", lambda m, seed: uniform_frequencies(m), lambda m: m),
}


def choose_n(scheme: str, m: int) -> int:
    """Empirical mode-count rules: 0.6 m (jittered), 2 m^0.6 (log), m (uniform).

    n is capped at m, so 2n+1 modes never outnumber the 2m+1 samples; only
    the log rule at m = 2 reaches the cap.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return min(_SCHEMES[scheme].n_rule(m), m)


_FUNCTION_PREFIX = {"f1": "single_jump", "f2": "multiple_jumps"}


@dataclass(frozen=True)
class ExperimentConfig:
    function: str = "f1"
    pieces: tuple[tuple[float, float, str], ...] = ()
    scheme: str = "jittered"
    m_list: tuple[int, ...] = (128, 256, 512)
    seed: int = 42
    delta: float = 0.025
    alpha: float = FilterConfig.alpha
    kappa: float = FilterConfig.kappa
    n_override: int | None = None
    grid_size: int = 1024
    output_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "svg")

    def validate(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.m_list:
            raise ValueError("m_list must be non-empty")
        if any(b <= a for a, b in zip(self.m_list, self.m_list[1:])):
            raise ValueError("m_list must be strictly ascending (no repeated m)")
        if self.grid_size < 64:
            raise ValueError("grid_size must be at least 64")
        for key in ("delta", "alpha", "kappa"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        unknown = set(self.formats) - {"csv", "svg"}
        if unknown:
            raise ValueError(f"unknown output formats {sorted(unknown)}")
        if not self.formats:
            raise ValueError("formats must name csv, svg or both")
        if self.pieces and self.function != "custom":
            raise ValueError(
                f"pieces are used only with function=custom, not function={self.function!r}"
            )
        f = self.resolve_function()
        breaks = f.breakpoints
        widths = np.diff(breaks)
        if self.delta <= 0 or np.any(widths <= 2 * self.delta):
            k = int(np.argmin(widths))
            raise ValueError(
                f"delta = {self.delta} must lie in (0, half the narrowest "
                f"subinterval); [{breaks[k]}, {breaks[k + 1]}] is too narrow"
            )
        # no point lies farther than half a subinterval from a jump
        check_rule_range(self.alpha, self.kappa, float(np.max(widths)) / 2, max(self.m_list))

    def resolve_function(self) -> PiecewiseFunction:
        if self.function == "custom":
            if not self.pieces:
                raise ValueError("custom function requires piece definitions")
            return piecewise_from_expressions(self.pieces)
        return builtin_function(self.function)

    def echo_lines(self) -> list[str]:
        lines = [
            f"# function={self.function}",
            f"# scheme={self.scheme}",
            f"# m_list={','.join(str(m) for m in self.m_list)}",
            f"# seed={self.seed}",
            f"# delta={self.delta!r}",
            f"# alpha={self.alpha!r}",
            f"# kappa={self.kappa!r}",
            f"# n_override={self.n_override}",
            f"# grid_size={self.grid_size}",
        ]
        for a, b, expr in self.pieces:
            lines.append(f"# piece={a!r}:{b!r}:{expr}")
        return lines


@dataclass(frozen=True)
class RunRecord:
    m: int
    n: int
    degree: int
    fit_samples: int
    rank: int
    cond: float
    imag_residual: float
    fit_residual: float
    sup_err_filter_interior: float
    sup_err_filter_global: float
    sup_err_hybrid_global: float
    sup_err_hybrid_buffers: float
    wall_time: float
    freq_hash: str


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    records: tuple[RunRecord, ...]
    files: tuple[str, ...] = ()


def _base_name(cfg: ExperimentConfig, m: int) -> str:
    prefix = _FUNCTION_PREFIX.get(cfg.function, cfg.function)
    return f"{prefix}_{_SCHEMES[cfg.scheme].abbrev}_m{m}"


def midpoint_grid(size: int) -> np.ndarray:
    """Cell midpoints (i + 0.5)/size, so no point coincides with a jump."""
    return (np.arange(size) + 0.5) / size


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    cfg.validate()
    f = cfg.resolve_function()
    grid = midpoint_grid(cfg.grid_size)
    truth = evaluate(f, grid)
    filter_cfg = FilterConfig(alpha=cfg.alpha, kappa=cfg.kappa)
    out_dir = Path(cfg.output_dir)

    records = []
    files = []
    for m in cfg.m_list:
        started = time.perf_counter()
        freqs = _SCHEMES[cfg.scheme].frequencies(m, cfg.seed)
        freq_hash = hashlib.sha256(freqs.frequencies.tobytes()).hexdigest()[:16]
        samples = fourier_samples(f, freqs)
        n = cfg.n_override if cfg.n_override is not None else choose_n(cfg.scheme, m)
        operator = assemble_omega(freqs, n)
        recon = FilterReconstruction(
            operator=operator, samples=samples, filter_cfg=filter_cfg, jumps=f.breakpoints
        )
        hyb = hybrid_reconstruct(recon, grid, cfg.delta)

        err_filter = ground_truth_error(grid, hyb.filter_values, f, cfg.delta)
        err_hybrid = ground_truth_error(grid, hyb.values, f, cfg.delta)
        buffers = hyb.extrapolated
        sup_hyb_buf = (
            float(np.max(err_hybrid.pointwise[buffers])) if np.any(buffers) else 0.0
        )
        record = RunRecord(
            m=m,
            n=n,
            degree=hyb.degree,
            fit_samples=hyb.fit_sample_count,
            rank=operator.effective_rank,
            cond=float(operator.s[0] / operator.s[operator.effective_rank - 1]),
            imag_residual=float(np.max(hyb.imag_residual)),
            fit_residual=float(max(fit.residual_norm for fit in hyb.fits)),
            sup_err_filter_interior=err_filter.sup_interior,
            sup_err_filter_global=err_filter.sup,
            sup_err_hybrid_global=err_hybrid.sup,
            sup_err_hybrid_buffers=sup_hyb_buf,
            wall_time=time.perf_counter() - started,
            freq_hash=freq_hash,
        )
        records.append(record)

        # made only now, so an error that surfaces at the first m leaves no directory
        out_dir.mkdir(parents=True, exist_ok=True)
        base = _base_name(cfg, m)
        if "csv" in cfg.formats:
            path = out_dir / f"{base}.csv"
            _write_grid_csv(
                path, cfg, record, grid, truth, hyb.filter_values, hyb.values,
                err_filter.pointwise, err_hybrid.pointwise, hyb.extrapolated,
            )
            files.append(str(path))
        if "svg" in cfg.formats:
            fun_path = out_dir / f"{base}_fun.svg"
            write_line_svg(
                fun_path, grid,
                [("f_true", truth), ("f_filter", hyb.filter_values), ("f_hybrid", hyb.values)],
                title=f"{base}: reconstruction",
            )
            err_path = out_dir / f"{base}_error.svg"
            write_line_svg(
                err_path, grid,
                [("err_filter", err_filter.pointwise), ("err_hybrid", err_hybrid.pointwise)],
                title=f"{base}: pointwise error",
                ylog=True,
            )
            files.extend([str(fun_path), str(err_path)])

    report = RunReport(config=cfg, records=tuple(records), files=tuple(files))
    if "csv" in cfg.formats:
        summary = out_dir / "summary.csv"
        _write_summary_csv(summary, cfg, report.records)
        convergence = out_dir / "convergence.csv"
        _write_convergence_csv(convergence, cfg, report)
        report = replace(report, files=report.files + (str(summary), str(convergence)))
    return report


def convergence_table(report: RunReport):
    """Rows (m, sup_err_hybrid_global, ratio_to_previous); first ratio is empty."""
    rows = []
    prev = None
    for rec in report.records:
        err = rec.sup_err_hybrid_global
        ratio = "" if prev is None or prev == 0 else err / prev
        rows.append((rec.m, err, ratio))
        prev = err
    return rows


def _fmt(x: float) -> str:
    return f"{x:.17e}"


# ---------------------------------------------------------------------------
# _fmt for whole arrays.  A finite nonzero |v| = D * 10^(E-17) with D the
# 18-digit integer nearest to |v| * 10^(17-E); the product is formed in
# double-double arithmetic (Dekker, Numer. Math. 18, 1971), exact to about
# 1e-13, so D is exact unless the fraction lies near 1/2.  Those values and
# the rest (0, -0, nan, inf, |E| > _E17_MAX_EXP) are left to _fmt itself.

# '-d.ddddddddddddddddde-ddd', the widest text
_E17_WIDTH = 25
_E17_MAX_EXP = 270
# covers 10^e and 10^(e+1) for |e| <= _E17_MAX_EXP and the scalings 10^(17-e)
_POW10_SPAN = _E17_MAX_EXP + 20
_DEKKER_SPLIT = 2.0**27 + 1.0
_TIE_MARGIN = 1e-6


@functools.cache
def _pow10_pairs() -> tuple[np.ndarray, np.ndarray]:
    """10^k = hi[k + _POW10_SPAN] + lo[...] for |k| <= _POW10_SPAN, each part correctly rounded.

    Integer true division rounds correctly, so hi = num / den and
    lo = (10^k - hi) are exact roundings of the rationals.
    """
    hi = np.empty(2 * _POW10_SPAN + 1)
    lo = np.empty_like(hi)
    for i, k in enumerate(range(-_POW10_SPAN, _POW10_SPAN + 1)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi[i] = num / den
        a, b = hi[i].as_integer_ratio()
        lo[i] = (num * b - a * den) / (den * b)
    hi.flags.writeable = lo.flags.writeable = False
    return hi, lo


@functools.cache
def _digit_triples() -> np.ndarray:
    """ASCII of '000' .. '999' as a (1000, 3) uint8 table."""
    return np.frombuffer("".join(f"{i:03d}" for i in range(1000)).encode(),
                         dtype=np.uint8).reshape(1000, 3)


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker; no FMA needed)."""
    p = a * b
    t = a * _DEKKER_SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = b * _DEKKER_SPLIT
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _e17_text(values) -> np.ndarray:
    """'%.17e' % v for each v of the 1-D float array values, as bytes.

    Returns a (len(values), _E17_WIDTH) uint8 array whose unwritten bytes are
    NUL: row i with its NULs removed is _fmt(values[i]).encode().
    """
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    fast = np.isfinite(a) & (a != 0.0)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a))
    fast &= np.abs(e) <= _E17_MAX_EXP
    e = np.where(fast, e, 0.0).astype(np.int64)
    a = np.where(fast, a, 1.0)

    # log10 may be one off next to a power of ten; compare with the exact
    # 10^e and 10^(e+1) so that e = floor(log10 |v|) exactly
    hi, lo = _pow10_pairs()
    up = e + 1 + _POW10_SPAN
    e += (a > hi[up]) | ((a == hi[up]) & (lo[up] <= 0.0))
    at = e + _POW10_SPAN
    e -= (a < hi[at]) | ((a == hi[at]) & (lo[at] > 0.0))

    # |v| 10^(17-e) lies in [1e17, 1e18): p is an integer, r is small
    k = 17 - e + _POW10_SPAN
    p, r = _two_product(a, hi[k])
    r += a * lo[k]
    whole = np.floor(r)
    frac = r - whole
    fast &= np.abs(frac - 0.5) >= _TIE_MARGIN
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    # rounding up to 10^18 carries into the next decade
    carry = digits == 10**18
    digits[carry] = 10**17
    e += carry
    fast &= (digits >= 10**17) & (digits < 10**18)

    triples = _digit_triples()
    chars = np.empty((v.size, _E17_WIDTH), dtype=np.uint8)
    chars[:, 0] = np.where(v < 0, ord("-"), 0)
    # three digits per group; scalar divisors keep numpy's fast division
    groups = np.empty((v.size, 6), dtype=np.int64)
    for j, part in zip((0, 3), np.divmod(digits, 10**9)):
        np.floor_divide(part, 10**6, out=groups[:, j])
        np.floor_divide(part, 1000, out=groups[:, j + 1])
        groups[:, j + 1] %= 1000
        np.remainder(part, 1000, out=groups[:, j + 2])
    mantissa = triples.take(groups, axis=0).reshape(v.size, 18)
    chars[:, 1] = mantissa[:, 0]
    chars[:, 2] = ord(".")
    chars[:, 3:20] = mantissa[:, 1:]
    chars[:, 20] = ord("e")
    chars[:, 21] = np.where(e < 0, ord("-"), ord("+"))
    chars[:, 22:] = triples.take(np.abs(e), axis=0)
    chars[np.abs(e) < 100, 22] = 0

    for i in np.flatnonzero(~fast):
        text = _fmt(float(v[i])).encode()
        chars[i] = 0
        chars[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return chars


# rows per block of the grid CSV: each temporary array of a block stays
# under glibc's 128 KiB mmap threshold, and the file is never held whole
_CSV_BLOCK_ROWS = 256
# the tag column's text for a False and a True extrapolated mask, NUL-padded
_GRID_TAGS = np.frombuffer(
    b"filter\n".ljust(13, b"\0") + b"extrapolated\n", dtype=np.uint8
).reshape(2, 13)


def _write_grid_csv(path, cfg, record, grid, truth, filt, hyb, err_f, err_h, extrapolated):
    """One row per grid point: six '%.17e' columns and the tag the mask selects."""
    header = [
        *cfg.echo_lines(),
        f"# m={record.m} n={record.n} M={record.degree} "
        f"N={record.fit_samples - 1} freq_hash={record.freq_hash}",
        "x,f_true,f_filter,f_hybrid,err_filter,err_hybrid,tag",
    ]
    numeric = [np.asarray(c, dtype=float) for c in (grid, truth, filt, hyb, err_f, err_h)]
    extrapolated = np.asarray(extrapolated, dtype=bool)
    # each line is laid out as fixed-width, NUL-padded slots: each number
    # followed by its ',', then the tag with its '\n'
    ncol = len(numeric)
    width = ncol * (_E17_WIDTH + 1)
    with Path(path).open("wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        for start in range(0, extrapolated.size, _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            tag = _GRID_TAGS[extrapolated[rows].astype(np.intp)]
            n = tag.shape[0]
            line = np.empty((n, width + tag.shape[1]), dtype=np.uint8)
            numbers = line[:, :width].reshape(n, ncol, -1)
            numbers[:, :, :-1] = _e17_text(
                np.stack([c[rows] for c in numeric], axis=1).ravel()
            ).reshape(n, ncol, -1)
            numbers[:, :, -1] = ord(",")
            line[:, width:] = tag
            fh.write(line.tobytes().replace(b"\0", b""))


def _write_summary_csv(path, cfg, records):
    with Path(path).open("w", newline="") as fh:
        for line in cfg.echo_lines():
            fh.write(line + "\n")
        fh.write(
            "m,n,M,N,rank,cond,imag_residual,fit_residual,sup_err_filter_interior,"
            "sup_err_filter_global,sup_err_hybrid_global,sup_err_hybrid_buffers,freq_hash\n"
        )
        for r in records:
            fh.write(
                ",".join([
                    str(r.m), str(r.n), str(r.degree), str(r.fit_samples - 1),
                    str(r.rank), _fmt(r.cond), _fmt(r.imag_residual), _fmt(r.fit_residual),
                    _fmt(r.sup_err_filter_interior), _fmt(r.sup_err_filter_global),
                    _fmt(r.sup_err_hybrid_global), _fmt(r.sup_err_hybrid_buffers),
                    r.freq_hash,
                ]) + "\n"
            )


def _write_convergence_csv(path, cfg, report):
    with Path(path).open("w", newline="") as fh:
        for line in cfg.echo_lines():
            fh.write(line + "\n")
        fh.write("m,sup_err,ratio_to_previous\n")
        for m, err, ratio in convergence_table(report):
            fh.write(f"{m},{_fmt(err)},{'' if ratio == '' else _fmt(ratio)}\n")


# ---------------------------------------------------------------------------
# Minimal dependency-free SVG line plots: one polyline per series.

_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
_SVG_W, _SVG_H = 800, 500
_MARGIN = 60
# log-scale plots clip |y| below this
_LOG_FLOOR = 1e-18


def _m4_points(sx, sy) -> np.ndarray:
    """Indices, ascending, of the points an M4 plot draws (Jugel et al., PVLDB 7(10), 2014).

    Per run of consecutive points in one pixel column floor(sx): the first,
    the last, the lowest and the highest sy, the first of equals, and NaN
    counting as both lowest and highest.  The line drawn through them covers
    the same pixels as the line through every point.
    """
    column = np.floor(sx)
    new_column = column[1:] != column[:-1]
    run = np.concatenate(([0], np.cumsum(new_column)))
    starts = np.flatnonzero(np.concatenate(([True], new_column)))
    keep = np.zeros(sx.size, dtype=bool)
    keep[starts] = True
    keep[np.append(starts[1:] - 1, sx.size - 1)] = True
    nan = np.isnan(sy)
    for extreme, fill in ((np.minimum, -np.inf), (np.maximum, np.inf)):
        key = np.where(nan, fill, sy)
        hits = np.flatnonzero(key == extreme.reduceat(key, starts)[run])
        first = np.concatenate(([True], run[hits[1:]] != run[hits[:-1]]))
        keep[hits[first]] = True
    return np.flatnonzero(keep)


def write_line_svg(path, x, series, title="", ylog=False):
    """Write a line plot; log-scale transforms the data before writing.

    Each polyline draws at most 4 points per pixel column (_m4_points).
    """
    x = np.asarray(x, dtype=float)
    prepared = []
    for name, y in series:
        y = np.asarray(y, dtype=float)
        if ylog:
            y = np.log10(np.maximum(np.abs(y), _LOG_FLOOR))
        prepared.append((name, y))
    ymin = min(float(np.min(y)) for _, y in prepared)
    ymax = max(float(np.max(y)) for _, y in prepared)
    if ymax == ymin:
        ymax = ymin + 1.0
    xmin, xmax = float(np.min(x)), float(np.max(x))
    sx = _MARGIN + (x - xmin) / (xmax - xmin) * (_SVG_W - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SVG_W - 2 * _MARGIN}" '
        f'height="{_SVG_H - 2 * _MARGIN}" fill="none" stroke="#333"/>',
        f'<text x="{_SVG_W // 2}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    ylabel = "log10|y|" if ylog else "y"
    parts.append(
        f'<text x="{_MARGIN}" y="{_SVG_H - _MARGIN + 35}" '
        f'font-family="sans-serif" font-size="12">x: [{xmin:g}, {xmax:g}]   '
        f'{ylabel}: [{ymin:.3g}, {ymax:.3g}]</text>'
    )
    for k, (name, y) in enumerate(prepared):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        sy = _SVG_H - _MARGIN - (y - ymin) / (ymax - ymin) * (_SVG_H - 2 * _MARGIN)
        drawn = _m4_points(sx, sy)
        pts = " ".join(map("{:.2f},{:.2f}".format, sx[drawn].tolist(), sy[drawn].tolist()))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{_SVG_W - _MARGIN + 5}" y="{_MARGIN + 18 * (k + 1)}" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# CLI

def _parse_m_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers such as 128,256, got {text!r}"
        ) from None


def _parse_formats(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_pieces(text: str) -> tuple[tuple[float, float, str], ...]:
    pieces = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b, expr = chunk.split(":", 2)
            pieces.append((float(a), float(b), expr.strip()))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected 'a:b:expr' pieces separated by ';', got {chunk!r}"
            ) from None
    return tuple(pieces)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reconstruct",
        description="Reconstruct a piecewise-smooth function from "
        "non-uniform Fourier samples and write CSV/SVG reports.",
        exit_on_error=False,
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--function", help="f1, f2, or custom (with --pieces)")
    parser.add_argument(
        "--pieces", type=_parse_pieces,
        help="custom pieces as 'a:b:expr; a:b:expr' using sin/cos/exp, x, pi",
    )
    parser.add_argument("--scheme", choices=tuple(_SCHEMES))
    parser.add_argument("--m", dest="m_list", type=_parse_m_list,
                        help="comma-separated m values")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--kappa", type=float)
    parser.add_argument("--n-override", type=int)
    parser.add_argument("--grid", dest="grid_size", type=int)
    parser.add_argument("--out", dest="output_dir")
    parser.add_argument("--formats", type=_parse_formats,
                        help="subset of csv,svg (comma-separated)")
    return parser


def _config_file_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """Turn each key=value line into --flag=value; a key is a flag or its field name."""
    keys = {f.name for f in fields(ExperimentConfig)}
    flags = {}
    for action in parser._actions:
        if action.dest in keys:
            for name in (action.dest, *action.option_strings):
                flags[name.lstrip("-").replace("-", "_")] = action.option_strings[0]
    args = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in flags:
            raise ValueError(f"unknown config key {key!r}")
        args.append(f"{flags[key]}={value.strip()}")
    return args


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """ExperimentConfig from parsed flags, over the --config file's values if any."""
    namespaces = [args]
    if args.config:
        parser = build_parser()
        namespaces.insert(0, parser.parse_args(_config_file_flags(args.config, parser)))
    settings = {
        f.name: getattr(ns, f.name)
        for ns in namespaces
        for f in fields(ExperimentConfig)
        if getattr(ns, f.name) is not None
    }
    return ExperimentConfig(**settings)


def main(argv=None) -> int:
    try:
        # parse_args would print the usage and exit on an unknown flag
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        report = run_experiment(config_from_args(args))
    except (argparse.ArgumentError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4
    for rec in report.records:
        print(
            f"m={rec.m} n={rec.n} M={rec.degree} "
            f"sup_err_filter={rec.sup_err_filter_global:.3e} "
            f"sup_err_hybrid={rec.sup_err_hybrid_global:.3e} "
            f"({rec.wall_time:.2f}s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
