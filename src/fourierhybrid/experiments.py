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
import numbers
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .filters import ALPHA, KAPPA
from .frame import FilterReconstruction, assemble_omega
from .hybrid import check_buffer, hybrid_reconstruct
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
    the log rule at m = 2 reaches the cap.  It owns the rules that the
    scheme be known and m >= 2; ExperimentConfig.validate calls it per m.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got m = {m}")
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
    grid_size: int = 1024
    output_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "svg")
    # the filter's constants, not settable: echoed into every output file
    alpha: ClassVar[float] = ALPHA
    kappa: ClassVar[float] = KAPPA

    def validate(self) -> None:
        """Refuse a config before any sampling; the scheme, m and delta rules
        are choose_n's and check_buffer's, called here, not restated."""
        for name, values, kind, noun in (
                ("m", self.m_list, numbers.Integral, "an integer"),
                ("seed", (self.seed,), numbers.Integral, "an integer"),
                ("grid_size", (self.grid_size,), numbers.Integral, "an integer"),
                ("delta", (self.delta,), numbers.Real, "a real number")):
            for v in values:
                if isinstance(v, bool) or not isinstance(v, kind):
                    raise ValueError(f"{name} must be {noun}, got {v!r}")
        if not self.m_list:
            raise ValueError("m_list must be non-empty")
        if any(b <= a for a, b in zip(self.m_list, self.m_list[1:])):
            raise ValueError("m_list must be strictly ascending (no repeated m)")
        for m in self.m_list:
            choose_n(self.scheme, m)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.grid_size < 64:
            raise ValueError("grid_size must be at least 64")
        unknown = set(self.formats) - {"csv", "svg"}
        if unknown:
            raise ValueError(f"unknown output formats {sorted(unknown)}")
        if not self.formats:
            raise ValueError("formats must name csv, svg or both")
        if self.pieces and self.function != "custom":
            raise ValueError(
                f"pieces are used only with function=custom, not function={self.function!r}"
            )
        check_buffer(self.resolve_function().breakpoints, self.delta)

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
    cond: float
    imag_residual: float
    fit_residual: float
    amplification: float
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
    out_dir = Path(cfg.output_dir)

    records = []
    files = []
    for m in cfg.m_list:
        started = time.perf_counter()
        freqs = _SCHEMES[cfg.scheme].frequencies(m, cfg.seed)
        freq_hash = hashlib.sha256(freqs.frequencies.tobytes()).hexdigest()[:16]
        samples = fourier_samples(f, freqs)
        n = choose_n(cfg.scheme, m)
        operator = assemble_omega(freqs, n)
        recon = FilterReconstruction(operator=operator, samples=samples, jumps=f.breakpoints)
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
            cond=float(operator.s[0] / operator.s[-1]),
            imag_residual=float(np.max(hyb.imag_residual)),
            fit_residual=float(max(fit.residual_norm for fit in hyb.fits)),
            amplification=hyb.amplification,
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
        _write_table(summary, cfg, _SUMMARY_COLUMNS, [
            (str(r.m), str(r.n), str(r.degree), str(r.fit_samples - 1),
             *map(_fmt, (r.cond, r.imag_residual, r.fit_residual, r.amplification,
                         r.sup_err_filter_interior, r.sup_err_filter_global,
                         r.sup_err_hybrid_global, r.sup_err_hybrid_buffers)),
             r.freq_hash)
            for r in report.records
        ])
        convergence = out_dir / "convergence.csv"
        _write_table(convergence, cfg, "m,sup_err,ratio_to_previous", [
            (str(m), _fmt(err), "" if ratio == "" else _fmt(ratio))
            for m, err, ratio in convergence_table(report)
        ])
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

# '-d.ddddddddddddddddde-ddd', the widest text, in seven 4-byte words:
# sign and two digits, four groups of four digits, two words of exponent
_E17_WIDTH = 28
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


def _words(texts) -> np.ndarray:
    """Each text of at most 4 ASCII characters as one NUL-padded 4-byte word."""
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), dtype=np.uint32)


@functools.cache
def _e17_words() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The word tables of _e17_text: 'd.d' and '-d.d' by sign 100 + two
    digits, '0000' .. '9999', and the exponent's 'e+dd' and last digit by
    e + _E17_MAX_EXP + 1, for the exponents log10's correction and the
    carry can reach."""
    exponents = [f"e{e:+03d}" for e in range(-_E17_MAX_EXP - 1, _E17_MAX_EXP + 3)]
    return (_words([f"{sign}{i // 10}.{i % 10}" for sign in ("", "-") for i in range(100)]),
            # built from uint8 digits: 10 000 strings would grow the heap by 1 MiB
            np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
                                 + np.uint8(ord("0"))).view(np.uint32).ravel(),
            _words([text[:4] for text in exponents]),
            _words([text[4:] for text in exponents]))


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

    # rows that are not fast may index past a table; they are rewritten below
    lead, quads, exp_head, exp_tail = _e17_words()
    words = np.empty((v.size, _E17_WIDTH // 4), dtype=np.uint32)
    top, rest = np.divmod(digits, 10**16)
    top += 100 * (v < 0)
    words[:, 0] = lead.take(top, mode="clip")
    # scalar divisors keep numpy's fast division
    halves = np.empty((v.size, 2), dtype=np.int64)
    np.divmod(rest, 10**8, out=(halves[:, 0], halves[:, 1]))
    groups = np.empty((v.size, 2, 2), dtype=np.int64)
    np.divmod(halves, 10**4, out=(groups[:, :, 0], groups[:, :, 1]))
    words[:, 1:5] = quads.take(groups.reshape(v.size, 4), mode="clip")
    e += _E17_MAX_EXP + 1
    words[:, 5] = exp_head.take(e, mode="clip")
    words[:, 6] = exp_tail.take(e, mode="clip")

    chars = words.view(np.uint8)
    for i in np.flatnonzero(~fast):
        text = _fmt(float(v[i])).encode()
        chars[i] = 0
        chars[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return chars


# rows per block of the grid CSV, the file never being held whole: on
# fine-grid, 512 to 2048 rows write equally fast within 5 % (1536 fastest),
# 256 rows pay numpy's per-call cost (a third slower), and 4096 rows run
# a fifth slower and raise the peak RSS by 1.9 MiB
_CSV_BLOCK_ROWS = 1536
# the tag column's text for a False and a True extrapolated mask, NUL-padded
_GRID_TAGS = np.frombuffer(
    b"filter\n".ljust(13, b"\0") + b"extrapolated\n", dtype=np.uint8
).reshape(2, 13)
# for each of the grid CSV's six columns, the formatted column whose text
# fills its slot first: x, f_true, f_filter, f_filter again, err_filter twice
_GRID_SLOTS = (0, 1, 2, 2, 3, 3)


def _preamble(cfg, *lines) -> str:
    """The head of every CSV: the config echo, then lines, each ending in a newline."""
    return "".join(f"{line}\n" for line in (*cfg.echo_lines(), *lines))


def _write_grid_csv(path, cfg, record, grid, truth, filt, hyb, err_f, err_h, extrapolated):
    """One row per grid point: six '%.17e' columns and the tag the mask selects.

    Outside the buffers the hybrid's value and error are the filter's, bit
    for bit; there f_hybrid and err_hybrid copy the filter's text, and they
    are formatted only on rows whose bits differ (so -0.0 and NaN payloads
    keep their own text).
    """
    header = _preamble(
        cfg,
        f"# m={record.m} n={record.n} M={record.degree} "
        f"N={record.fit_samples - 1} freq_hash={record.freq_hash}",
        "x,f_true,f_filter,f_hybrid,err_filter,err_hybrid,tag",
    )
    x, truth, filt, hyb, err_f, err_h = (
        np.asarray(c, dtype=float) for c in (grid, truth, filt, hyb, err_f, err_h))
    formatted = (x, truth, filt, err_f)
    # (column, where its bits differ from the column it copies, its slot)
    own = [(c, c.view(np.int64) != like.view(np.int64), slot)
           for c, like, slot in ((hyb, filt, 3), (err_h, err_f, 5))]
    extrapolated = np.asarray(extrapolated, dtype=bool)
    # each line is laid out as fixed-width, NUL-padded slots: each number
    # followed by its ',', then the tag with its '\n'
    ncol = len(_GRID_SLOTS)
    width = ncol * (_E17_WIDTH + 1)
    with Path(path).open("wb") as fh:
        fh.write(header.encode())
        for start in range(0, extrapolated.size, _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            tag = _GRID_TAGS[extrapolated[rows].astype(np.intp)]
            n = tag.shape[0]
            # one call: the formatted columns row by row, then each own value
            picks = [(np.flatnonzero(differs[rows]), c[rows], slot)
                     for c, differs, slot in own]
            text = _e17_text(np.concatenate(
                [np.stack([c[rows] for c in formatted], axis=1).ravel(),
                 *(c[pick] for pick, c, _ in picks)]))
            line = np.empty((n, width + tag.shape[1]), dtype=np.uint8)
            numbers = line[:, :width].reshape(n, ncol, -1)
            done = len(formatted) * n
            for slot, column in enumerate(_GRID_SLOTS):
                numbers[:, slot, :-1] = text[column:done:len(formatted)]
            for pick, _, slot in picks:
                numbers[pick, slot, :-1] = text[done:done + pick.size]
                done += pick.size
            numbers[:, :, -1] = ord(",")
            line[:, width:] = tag
            fh.write(line.tobytes().translate(None, b"\0"))


_SUMMARY_COLUMNS = (
    "m,n,M,N,cond,imag_residual,fit_residual,amplification,sup_err_filter_interior,"
    "sup_err_filter_global,sup_err_hybrid_global,sup_err_hybrid_buffers,freq_hash"
)


def _write_table(path, cfg, columns, rows):
    """The preamble with the column line columns, then each row's texts joined by ','."""
    with Path(path).open("w", newline="") as fh:
        fh.write(_preamble(cfg, columns))
        fh.writelines(",".join(row) + "\n" for row in rows)


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
        # 'x,y ' per point, 256 points per call: the Python floats of a whole
        # polyline (up to 4 x 681 points) raised fine-grid's peak RSS by 0.07 MiB
        xy = np.stack([sx[drawn], sy[drawn]], axis=1)
        pts = b"".join(
            b"%.2f,%.2f " * len(block) % tuple(block.ravel().tolist())
            for block in np.split(xy, range(256, len(xy), 256))
        )[:-1].decode()
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
    parser.add_argument("--grid", dest="grid_size", type=int)
    parser.add_argument("--out", dest="output_dir")
    parser.add_argument("--formats", type=_parse_formats,
                        help="subset of csv,svg (comma-separated)")
    return parser


def config_from_args(argv: list[str]) -> ExperimentConfig:
    """ExperimentConfig from the flags argv; a flag not given keeps the field's default."""
    # parse_args would print the usage and exit on an unknown flag
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    settings = {
        f.name: getattr(args, f.name)
        for f in fields(ExperimentConfig)
        if getattr(args, f.name) is not None
    }
    return ExperimentConfig(**settings)


def main(argv=None) -> int:
    try:
        report = run_experiment(config_from_args(sys.argv[1:] if argv is None else argv))
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
