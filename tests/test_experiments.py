import math
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fourierhybrid
from fourierhybrid.experiments import (
    ExperimentConfig,
    RunRecord,
    RunReport,
    _CSV_BLOCK_ROWS,
    _e17_text,
    _fmt,
    _m4_points,
    _write_grid_csv,
    build_parser,
    choose_n,
    convergence_table,
    main,
    midpoint_grid,
    run_experiment,
    write_line_svg,
)
from fourierhybrid.chebfit import extrapolation_amplification
from fourierhybrid.filters import ALPHA, KAPPA
from fourierhybrid.frame import _GRAM_MIN_RATIO

SMALL = dict(m_list=(16, 24), grid_size=64, formats=("csv",))


def small_config(**overrides):
    settings = {**SMALL, **overrides}
    return ExperimentConfig(**settings)


def buffer_outcomes(cfg):
    """(validate's message, hybrid_reconstruct's message) for cfg's delta; None accepts.

    The hybrid runs on the frame of jittered m = 16 with cfg's function, and
    must give finite values where it accepts.
    """
    f = cfg.resolve_function()
    freqs = fourierhybrid.jittered_frequencies(16, seed=1)
    recon = fourierhybrid.FilterReconstruction(
        operator=fourierhybrid.assemble_omega(freqs, choose_n("jittered", 16)),
        samples=fourierhybrid.fourier_samples(f, freqs), jumps=f.breakpoints,
    )
    outcomes = []
    for call in (cfg.validate,
                 lambda: fourierhybrid.hybrid_reconstruct(recon, midpoint_grid(64), cfg.delta)):
        try:
            result = call()
        except ValueError as exc:
            outcomes.append(str(exc))
        else:
            assert result is None or np.all(np.isfinite(result.values))
            outcomes.append(None)
    return tuple(outcomes)


def assert_writes_same_files(tmp_path, cfg, other):
    """cfg and other, run into tmp_path/a and tmp_path/b, write the same files byte for byte."""
    for name, c in (("a", cfg), ("b", other)):
        run_experiment(replace(c, output_dir=str(tmp_path / name)))
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_midpoint_grid():
    grid = midpoint_grid(8)
    np.testing.assert_allclose(grid, (np.arange(8) + 0.5) / 8)
    assert 0.5 not in grid  # midpoints never hit a jump


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            small_config(scheme="random").validate()

    def test_m_list_rules(self):
        with pytest.raises(ValueError, match="non-empty"):
            small_config(m_list=()).validate()
        with pytest.raises(ValueError, match="ascending"):
            small_config(m_list=(256, 128)).validate()
        with pytest.raises(ValueError, match="ascending"):
            small_config(m_list=(128, 128)).validate()
        # rejected before any samples are synthesized, naming the m
        for m_list, m in (((1,), 1), ((0,), 0), ((1, 64), 1)):
            with pytest.raises(ValueError, match=f"^m must be at least 2, got m = {m}$"):
                small_config(m_list=m_list).validate()

    def test_grid_floor(self):
        with pytest.raises(ValueError, match="grid_size"):
            small_config(grid_size=32).validate()

    @pytest.mark.parametrize("overrides, message", [
        # a 65-point grid would end on the jump x = 1.0
        ({"grid_size": 64.5}, "grid_size must be an integer, got 64.5"),
        ({"grid_size": "64"}, "grid_size must be an integer, got '64'"),
        ({"m_list": (16, 24.0)}, "m must be an integer, got 24.0"),
        ({"m_list": (True, 24)}, "m must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": None}, "seed must be an integer, got None"),
        ({"delta": "0.025"}, "delta must be a real number, got '0.025'"),
        ({"delta": True}, "delta must be a real number, got True"),
    ])
    def test_field_types(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**overrides).validate()

    def test_numpy_integers_run_as_python_integers(self, tmp_path):
        numpy_ints = dict(m_list=(np.int64(16), np.int32(24)), seed=np.int64(42),
                          grid_size=np.int16(64))
        assert_writes_same_files(tmp_path, small_config(), small_config(**numpy_ints))

    def test_numpy_floats_echo_as_python_floats(self, tmp_path):
        # delta and the piece bounds are echoed into every file; a numpy
        # float must not echo as 'np.float64(...)'
        def config(real):
            return small_config(
                function="custom", delta=real(0.025),
                pieces=((real(0.0), real(0.5), "sin(4*pi*x)"), (real(0.5), real(1.0), "x")),
            )

        assert_writes_same_files(tmp_path, config(float), config(np.float64))
        assert "# delta=0.025\n" in (tmp_path / "b" / "summary.csv").read_text()

    @pytest.mark.parametrize("key", ["delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_names_key(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            small_config(**{key: value}).validate()

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="formats"):
            small_config(formats=("csv", "png")).validate()
        with pytest.raises(ValueError, match="formats must name csv, svg or both"):
            small_config(formats=()).validate()

    def test_oversized_delta_names_interval(self):
        with pytest.raises(ValueError, match=r"\[0\.0, 0\.3\]"):
            small_config(function="f2", delta=0.21).validate()

    @pytest.mark.parametrize("delta, message", [
        (math.nan, "delta must be finite, got nan"),
        (math.inf, "delta must be finite, got inf"),
        (0.0, "delta must be positive, got 0.0"),
        (-1.0, "delta must be positive, got -1.0"),
        (0.15, "delta = 0.15 must lie in (0, half the narrowest subinterval); "
               "[0.0, 0.3] is too narrow"),
    ])
    def test_validate_and_hybrid_refuse_alike(self, delta, message):
        cfg = small_config(function="f2", delta=delta)
        assert buffer_outcomes(cfg) == (message, message)

    @pytest.mark.parametrize("function, pieces, ulps", [
        ("f1", (), 3),
        ("f2", (), 1),
        ("custom", ((0.0, 0.4, "x"), (0.4, 0.6, "exp(x)"), (0.6, 1.0, "cos(3*x)")), 3),
    ], ids=["f1", "f2", "custom"])
    def test_validate_and_hybrid_share_the_buffer_rule(self, function, pieces, ulps):
        # at half the narrowest subinterval both refuse with one message.
        # Below it the rule judges the fit interval [xi + delta, xi' - delta]
        # as rounded: on f1, 0.5 + delta and 1 - delta both round to 0.75 for
        # delta one and two ulps below 0.25, where the fit nodes would
        # coincide, so the first delta accepted lies 3 ulps below; the custom
        # function's middle piece [0.4, 0.6] rounds alike
        cfg = small_config(function=function, pieces=pieces)
        half = float(np.min(np.diff(cfg.resolve_function().breakpoints)) / 2)
        delta = half
        for k in range(ulps + 2):
            refusal, hybrid_refusal = buffer_outcomes(replace(cfg, delta=delta))
            assert refusal == hybrid_refusal
            if k < ulps:
                assert refusal.startswith(f"delta = {delta} must lie in (0, half the narrowest")
            else:
                assert refusal is None
            delta = float(np.nextafter(delta, 0.0))

    def test_custom_function_requires_pieces(self):
        with pytest.raises(ValueError, match="piece"):
            small_config(function="custom").validate()
        # pieces are read only by the custom function, so they may not ride
        # along with a built-in one
        with pytest.raises(ValueError, match="pieces.*function=custom.*function='f1'"):
            small_config(pieces=((0.0, 1.0, "x"),)).validate()

    def test_custom_pieces_resolve(self):
        cfg = small_config(
            function="custom",
            pieces=((0.0, 0.5, "sin(4*pi*x)"), (0.5, 1.0, "sin(2*pi*x)")),
        )
        cfg.validate()
        assert len(cfg.resolve_function().pieces) == 2


class TestRunExperiment:
    def test_emits_expected_files(self, tmp_path):
        cfg = small_config(output_dir=str(tmp_path))
        report = run_experiment(cfg)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "convergence.csv",
            "single_jump_jit_m16.csv",
            "single_jump_jit_m24.csv",
            "summary.csv",
        ]
        assert len(report.records) == 2
        assert report.records[0].m == 16
        assert all(str(tmp_path) in f for f in report.files)

    def test_grid_csv_shape_and_echo(self, tmp_path):
        cfg = small_config(output_dir=str(tmp_path))
        run_experiment(cfg)
        lines = (tmp_path / "single_jump_jit_m16.csv").read_text().splitlines()
        echo = [line for line in lines if line.startswith("#")]
        assert any(line == "# scheme=jittered" for line in echo)
        assert any(line.startswith("# m=16 n=9 M=") for line in echo)
        header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_idx] == "x,f_true,f_filter,f_hybrid,err_filter,err_hybrid,tag"
        rows = lines[header_idx + 1:]
        assert len(rows) == 64
        tags = {row.rsplit(",", 1)[1] for row in rows}
        assert tags == {"filter", "extrapolated"}

    def test_summary_has_one_row_per_m(self, tmp_path):
        cfg = small_config(output_dir=str(tmp_path))
        run_experiment(cfg)
        rows = [
            line for line in (tmp_path / "summary.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert rows[0].startswith("m,n,M,N,")
        assert [row.split(",")[0] for row in rows[1:]] == ["16", "24"]

    def test_summary_rows_are_the_records(self, tmp_path):
        # the columns are RunRecord's fields in order, wall_time left out,
        # and each row parses back to its record bit for bit
        report = run_experiment(small_config(output_dir=str(tmp_path)))
        lines = [
            line for line in (tmp_path / "summary.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        names = [f.name for f in fields(RunRecord)]
        assert names[-1] == "wall_time"
        assert lines[0].split(",") == names[:-1]
        assert len(lines) == 1 + len(report.records)
        for line, rec in zip(lines[1:], report.records):
            for f, text in zip(fields(RunRecord), line.split(",")):
                value = getattr(rec, f.name)
                if f.type == "float":
                    assert np.float64(text).view(np.int64) == np.float64(value).view(np.int64)
                else:
                    assert type(value)(text) == value

    def test_summary_reports_frame_health(self, tmp_path):
        # the log frame of m = 7 has cond(K) ~ 204, past the Gram route's
        # bound, so the SVD route factors it and keeps all 13 singular values
        cfg = small_config(output_dir=str(tmp_path), scheme="log", m_list=(7,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_experiment(cfg)
            f = fourierhybrid.builtin_f1()
            freqs = fourierhybrid.log_frequencies(7)
            ops = [fourierhybrid.assemble_omega(freqs, choose_n("log", 7))]
        recon = fourierhybrid.FilterReconstruction(
            operator=ops[0], samples=fourierhybrid.fourier_samples(f, freqs), jumps=f.breakpoints,
        )
        hyb = fourierhybrid.hybrid_reconstruct(recon, midpoint_grid(64), cfg.delta)
        lines = [
            line for line in (tmp_path / "summary.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        header = lines[0].split(",")
        assert header[:8] == [
            "m", "n", "M", "N", "cond", "imag_residual", "fit_residual", "amplification",
        ]
        for row, rec, op in zip(lines[1:], report.records, ops):
            columns = dict(zip(header, row.split(",")))
            assert float(columns["cond"]) == rec.cond == op.s[0] / op.s[-1]
            assert rec.cond > 1.0 / _GRAM_MIN_RATIO
            # sup of the grid's imaginary residual, largest fit residual
            assert float(columns["imag_residual"]) == rec.imag_residual
            assert rec.imag_residual == np.max(hyb.imag_residual)
            assert float(columns["fit_residual"]) == rec.fit_residual
            assert rec.fit_residual == max(fit.residual_norm for fit in hyb.fits)
            # the largest A(M) over the fits, at the degree the row reports
            assert float(columns["amplification"]) == rec.amplification == hyb.amplification
            assert int(columns["M"]) == rec.M == hyb.degree
            assert int(columns["N"]) == rec.N == hyb.fit_sample_count - 1
            assert rec.amplification == max(
                extrapolation_amplification(w, cfg.delta, rec.M)
                for w in np.diff(f.breakpoints)
            )

    def test_byte_reproducible(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(small_config(output_dir=str(out_a), formats=("csv", "svg")))
        run_experiment(small_config(output_dir=str(out_b), formats=("csv", "svg")))
        for file_a in sorted(out_a.iterdir()):
            file_b = out_b / file_a.name
            assert file_a.read_bytes() == file_b.read_bytes()

    def test_svg_outputs_are_valid_xml(self, tmp_path):
        cfg = small_config(output_dir=str(tmp_path), formats=("svg",))
        run_experiment(cfg)
        svgs = sorted(tmp_path.glob("*.svg"))
        assert len(svgs) == 4  # function + error plot per m
        for path in svgs:
            root = ET.parse(path).getroot()
            polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
            expect = 3 if path.name.endswith("_fun.svg") else 2
            assert len(polylines) == expect


class TestConvergenceTable:
    def test_ratio_arithmetic(self):
        records = tuple(
            RunRecord(m=m, n=0, M=0, N=0, cond=1.0,
                      imag_residual=0.0, fit_residual=0.0, amplification=1.0, sup_err_filter_interior=0.0, sup_err_filter_global=0.0,
                      sup_err_hybrid_global=err, sup_err_hybrid_buffers=0.0,
                      wall_time=0.0, freq_hash="")
            for m, err in ((128, 1e-2), (256, 1e-3), (512, 1e-4))
        )
        report = RunReport(config=ExperimentConfig(), records=records)
        rows = convergence_table(report)
        assert rows[0] == (128, 1e-2, "")
        assert rows[1][2] == pytest.approx(0.1)
        assert rows[2][2] == pytest.approx(0.1)

    def test_single_record_has_empty_ratio(self):
        records = (
            RunRecord(m=64, n=0, M=0, N=0, cond=1.0,
                      imag_residual=0.0, fit_residual=0.0, amplification=1.0, sup_err_filter_interior=0.0, sup_err_filter_global=0.0,
                      sup_err_hybrid_global=5e-3, sup_err_hybrid_buffers=0.0,
                      wall_time=0.0, freq_hash=""),
        )
        rows = convergence_table(RunReport(config=ExperimentConfig(), records=records))
        assert rows == [(64, 5e-3, "")]


def test_write_line_svg_log_scale(tmp_path):
    path = tmp_path / "plot.svg"
    x = np.linspace(0, 1, 50)
    write_line_svg(path, x, [("err", np.abs(np.sin(9 * x)) * 1e-5)], ylog=True)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    text = path.read_text()
    assert "log10|y|" in text


def test_write_line_svg_flat_series(tmp_path):
    # ymax == ymin would divide by zero; the y range widens to [y, y + 1]
    path = tmp_path / "flat.svg"
    write_line_svg(path, np.linspace(0, 1, 50), [("f", np.full(50, 2.0))])
    text = path.read_text()
    assert "y: [2, 3]" in text and "nan" not in text
    assert ET.parse(path).getroot().tag.endswith("svg")


def test_write_line_svg_range_ignores_series_order(tmp_path):
    # one NaN must not blank the plot, whichever series holds it: the y
    # range spans the finite values of every series
    x = np.linspace(0, 1, 16)
    a = np.linspace(0.0, 7.5, 16)
    b = np.linspace(1.0, 2.0, 16)
    b[5] = np.nan
    plots = {}
    for order in ([("a", a), ("b", b)], [("b", b), ("a", a)]):
        path = tmp_path / f"{order[0][0]}.svg"
        write_line_svg(path, x, order)
        root = ET.parse(path).getroot()
        label = [el.text for el in root.iter() if el.tag.endswith("text")][1]
        lines = [el.get("points") for el in root.iter() if el.tag.endswith("polyline")]
        plots[order[0][0]] = label, lines[[name for name, _ in order].index("a")]
        assert path.read_text().count("nan") == 1
    assert plots["a"] == plots["b"]
    assert plots["a"][0].endswith("y: [0, 7.5]")


def test_write_line_svg_without_finite_values(tmp_path):
    path = tmp_path / "nan.svg"
    write_line_svg(path, np.linspace(0, 1, 8), [("f", np.full(8, np.nan)),
                                                ("g", np.array([np.inf, -np.inf] * 4))])
    text = path.read_text()
    assert "y: [0, 1]" in text
    assert ET.parse(path).getroot().tag.endswith("svg")


def e17_strings(values) -> list[str]:
    """Each row of _e17_text's output as text: the row with its NULs removed."""
    chars = _e17_text(np.asarray(values, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode() for row in chars]


class TestE17Text:
    def test_random_doubles_match_fmt(self):
        rng = np.random.default_rng(17)
        size = 60_000
        # mantissas in [1, 10) times 10^e over every decade a double reaches,
        # subnormals included, and raw bit patterns (some nan and inf)
        spread = (1.0 + 9.0 * rng.random(size)) * 10.0 ** rng.integers(-323, 308, size)
        spread *= rng.choice([-1.0, 1.0], size)
        bits = np.frombuffer(rng.bytes(8 * size), dtype=np.float64)
        for values in (spread, bits):
            assert e17_strings(values) == [_fmt(v) for v in values.tolist()]

    def test_special_values_match_fmt(self):
        big = np.finfo(float).max
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, big, -big,
                    np.finfo(float).tiny, 0.1, -0.1]
        powers = [float(f"1e{k}") for k in range(-323, 309)]
        # 1 + j/2^18 with j odd has 19 significant digits ending in 5: an
        # exact tie that '%.17e' rounds to even
        ties = [1.0 + j / 2.0**18 for j in range(1, 400, 2)] + [-3.0 - 5 / 2.0**18]
        # the double below 10^153 rounds up to 1.00000000000000000e+153
        assert (1e153).as_integer_ratio()[0] < 10**153
        carry = [1e153, -1e153, *np.nextafter(np.array(powers), 0.0).tolist()]
        for values in (specials, powers, ties, carry):
            assert e17_strings(values) == [_fmt(v) for v in values]
        assert e17_strings([1e153]) == ["1.00000000000000000e+153"]
        assert e17_strings([0.1, 1.0 + 1 / 2.0**18]) == [
            "1.00000000000000006e-01", "1.00000381469726562e+00"]


def test_grid_csv_matches_per_row_format(tmp_path):
    rng = np.random.default_rng(5)
    size = 700  # not a multiple of the writer's row block
    grid = midpoint_grid(size)
    columns = [rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
               for _ in range(5)]
    columns[0][:6] = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]
    columns[3][-4:] = [-5e-324, 2.2e-310, math.nan, -math.inf]
    extrapolated = rng.random(size) < 0.3
    tags = ["extrapolated" if e else "filter" for e in extrapolated.tolist()]
    record = RunRecord(m=16, n=9, M=3, N=4, cond=1.5,
                       imag_residual=0.0, fit_residual=0.0, amplification=1.0, sup_err_filter_interior=0.0,
                       sup_err_filter_global=0.0, sup_err_hybrid_global=0.0,
                       sup_err_hybrid_buffers=0.0, wall_time=0.0, freq_hash="0123")
    path = tmp_path / "grid.csv"
    _write_grid_csv(path, ExperimentConfig(), record, grid, *columns, extrapolated)
    header = "x,f_true,f_filter,f_hybrid,err_filter,err_hybrid,tag\n"
    rows = "".join(
        "%.17e,%.17e,%.17e,%.17e,%.17e,%.17e,%s\n" % row
        for row in zip(*(np.asarray(c).tolist() for c in (grid, *columns)), tags)
    )
    echo, body = path.read_bytes().decode().split(header)
    assert body == rows
    assert echo.splitlines()[-1] == "# m=16 n=9 M=3 N=4 freq_hash=0123"


def test_grid_csv_formats_the_hybrid_only_where_its_bits_differ(tmp_path, monkeypatch):
    # f_hybrid and err_hybrid copy the filter's text where the bits agree:
    # 0.0 against -0.0 and NaN payloads must still get their own text
    rng = np.random.default_rng(7)
    size = 2 * _CSV_BLOCK_ROWS + 300  # three blocks, the last one short
    grid = midpoint_grid(size)
    truth, filt, err_f = (rng.standard_normal(size) for _ in range(3))
    hyb, err_h = filt.copy(), err_f.copy()
    quiet_nan, payload_nan, negative_nan = np.array(
        [0x7FF8000000000000, 0x7FF8000000000123, -0x0008000000000000], dtype=np.int64
    ).view(float)
    filt[[3, 4]] = hyb[[3, 4]] = 0.0
    hyb[3] = -0.0
    err_f[[5, 6]], err_h[[5, 6]] = [-0.0, 0.0], [0.0, -0.0]
    filt[[10, 11]] = quiet_nan
    hyb[[10, 11]] = payload_nan, negative_nan
    err_f[12], err_h[12] = negative_nan, quiet_nan
    edges = [_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, size - 1]
    hyb[edges] = np.nextafter(hyb[edges], np.inf)
    err_h[_CSV_BLOCK_ROWS] = 2.5
    extrapolated = np.zeros(size, dtype=bool)
    extrapolated[[3, 4, 10, 20, 21, *edges]] = True  # 4, 20 and 21 equal the filter
    differing = (hyb.view(np.int64) != filt.view(np.int64)).sum() + (
        err_h.view(np.int64) != err_f.view(np.int64)).sum()
    assert differing == 10

    formatted = []
    monkeypatch.setattr(
        "fourierhybrid.experiments._e17_text",
        lambda values: formatted.append(len(values)) or _e17_text(values),
    )
    record = RunRecord(m=16, n=9, M=3, N=4, cond=1.5,
                       imag_residual=0.0, fit_residual=0.0, amplification=1.0,
                       sup_err_filter_interior=0.0, sup_err_filter_global=0.0,
                       sup_err_hybrid_global=0.0, sup_err_hybrid_buffers=0.0,
                       wall_time=0.0, freq_hash="0123")
    path = tmp_path / "grid.csv"
    _write_grid_csv(path, ExperimentConfig(), record, grid, truth, filt, hyb, err_f, err_h,
                    extrapolated)
    header = "x,f_true,f_filter,f_hybrid,err_filter,err_hybrid,tag\n"
    tags = ["extrapolated" if e else "filter" for e in extrapolated.tolist()]
    rows = "".join(
        "%.17e,%.17e,%.17e,%.17e,%.17e,%.17e,%s\n" % row
        for row in zip(*(c.tolist() for c in (grid, truth, filt, hyb, err_f, err_h)), tags)
    )
    assert path.read_bytes().decode().split(header)[1] == rows
    assert "-0.00000000000000000e+00" in rows.splitlines()[3].split(",")[3]
    assert len(formatted) == 3 and sum(formatted) == 4 * size + differing


def reference_line_svg(path, x, series, title="", ylog=False):
    """write_line_svg as it was before M4: every point of every series."""
    x = np.asarray(x, dtype=float)
    prepared = []
    for name, y in series:
        y = np.asarray(y, dtype=float)
        if ylog:
            y = np.log10(np.maximum(np.abs(y), 1e-18))
        prepared.append((name, y))
    ymin = min(float(np.min(y)) for _, y in prepared)
    ymax = max(float(np.max(y)) for _, y in prepared)
    if ymax == ymin:
        ymax = ymin + 1.0
    xmin, xmax = float(np.min(x)), float(np.max(x))
    sx = (60 + (x - xmin) / (xmax - xmin) * 680).tolist()
    ylabel = "log10|y|" if ylog else "y"
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="500" '
        'viewBox="0 0 800 500">',
        '<rect x="60" y="60" width="680" height="380" fill="none" stroke="#333"/>',
        '<text x="400" y="30" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
        f'<text x="60" y="475" font-family="sans-serif" font-size="12">x: '
        f'[{xmin:g}, {xmax:g}]   {ylabel}: [{ymin:.3g}, {ymax:.3g}]</text>',
    ]
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    for k, (name, y) in enumerate(prepared):
        sy = 440 - (y - ymin) / (ymax - ymin) * 380
        pts = " ".join(map("{:.2f},{:.2f}".format, sx, sy.tolist()))
        parts.append(f'<polyline fill="none" stroke="{colors[k]}" stroke-width="1" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="745" y="{60 + 18 * (k + 1)}" font-family="sans-serif" '
                     f'font-size="12" fill="{colors[k]}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def plot_series(size):
    x = midpoint_grid(size)
    rng = np.random.default_rng(size)
    truth = np.where(x < 0.5, np.sin(4 * np.pi * x), np.sin(2 * np.pi * x))
    noisy = truth + 1e-3 * rng.standard_normal(size)
    err = np.abs(noisy - truth)
    err[::97] = 0.0  # clipped to the log floor
    return x, [("f_true", truth), ("f_noisy", noisy)], [("err", err), ("err2", err**2)]


@pytest.mark.parametrize("size", [256, 257, 513])
def test_polylines_written_as_by_format(tmp_path, size):
    # polylines of one, just over one and just over two formatting blocks;
    # y spans [0, 380], one unit per pixel, so these values land on the
    # binary ties 60.125, 60.375 and 439.875 on screen, where '{:.2f}'
    # rounds half to even
    x = midpoint_grid(size)
    ties = [60.125, 60.375, 439.875]
    at = [3, 100, size - 2]
    y = np.linspace(0.0, 380.0, size)
    y[at] = [440.0 - t for t in ties]
    assert (440 - y / 380.0 * 380)[at].tolist() == ties  # write_line_svg's sy
    series = [("ties", y), ("wave", 190 + 150 * np.sin(7 * x)), ("nan", np.full(size, np.nan))]
    write_line_svg(tmp_path / "svg.svg", x, series, title="t")
    reference_line_svg(tmp_path / "ref.svg", x, series, title="t")
    text = (tmp_path / "svg.svg").read_bytes()
    assert text == (tmp_path / "ref.svg").read_bytes()
    assert all(f",{t} ".encode() in text for t in ("60.12", "60.38", "439.88"))
    assert text.count(b",nan") == size


class TestM4:
    def test_keeps_each_columns_first_last_min_max(self):
        x, fun, _ = plot_series(32768)
        sx = 60 + (x - x[0]) / (x[-1] - x[0]) * 680
        column = np.floor(sx)
        y = fun[1][1].copy()
        y[1000] = np.nan
        for sy in (fun[0][1], y):
            kept = _m4_points(sx, sy)
            assert np.all(np.diff(kept) > 0)
            assert np.bincount(column[kept].astype(int)).max() <= 4
            starts = np.flatnonzero(np.diff(column, prepend=-1.0))
            for lo, hi in zip(starts, np.append(starts[1:], sx.size)):
                run = sy[lo:hi]
                extremes = {lo, hi - 1}
                if np.isnan(run).any():
                    extremes.add(lo + int(np.flatnonzero(np.isnan(run))[0]))
                else:
                    extremes |= {lo + int(np.argmin(run)), lo + int(np.argmax(run))}
                assert extremes <= set(kept[(kept >= lo) & (kept < hi)].tolist())

    @pytest.mark.parametrize("ylog", [False, True])
    def test_1024_points_written_as_before(self, tmp_path, ylog):
        # at most 2 points per pixel column, so M4 keeps every point
        x, fun, err = plot_series(1024)
        series = err if ylog else fun
        write_line_svg(tmp_path / "m4.svg", x, series, title="t", ylog=ylog)
        reference_line_svg(tmp_path / "ref.svg", x, series, title="t", ylog=ylog)
        assert (tmp_path / "m4.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()

    def test_32768_points_draw_a_subset_of_the_full_line(self, tmp_path):
        x, fun, _ = plot_series(32768)
        write_line_svg(tmp_path / "m4.svg", x, fun)
        reference_line_svg(tmp_path / "ref.svg", x, fun)
        m4, full = (
            [el.get("points").split() for el in ET.parse(tmp_path / name).getroot().iter()
             if el.tag.endswith("polyline")]
            for name in ("m4.svg", "ref.svg")
        )
        for kept, every in zip(m4, full):
            assert len(kept) <= 4 * 681
            it = iter(every)
            assert all(point in it for point in kept)  # an ordered subsequence

    def test_nan_is_still_written(self, tmp_path):
        x, fun, _ = plot_series(32768)
        fun[1][1][12345] = np.nan
        write_line_svg(tmp_path / "nan.svg", x, fun)
        assert ",nan" in (tmp_path / "nan.svg").read_text()


def run_probe(probe: str) -> str:
    """stdout of probe run by a fresh interpreter that imports this checkout's package."""
    src = str(Path(fourierhybrid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_import_leaves_scipy_special_and_integrate_unloaded():
    # scipy.special is needed only for filter weights with z > 700,
    # scipy.integrate only by the quadrature oracles and scipy.optimize only
    # by optimize_delta; importing them at module level would add about
    # 0.6 s and 40 MiB to every run.  The sampler's Bessel sums are numpy
    # too, so sampling does not load them either.  The CSV writer's powers
    # of ten are built from Python integers, not fractions or decimal
    probe = (
        "import sys, fourierhybrid.experiments, fourierhybrid as fh; "
        "fh.fourier_samples(fh.builtin_f2(), fh.jittered_frequencies(8, seed=1)); "
        "fh.experiments._e17_text([0.1]); "
        "print(sorted(m for m in ('scipy.special', 'scipy.integrate', 'scipy.optimize', "
        "'fractions', 'decimal') if m in sys.modules))"
    )
    assert run_probe(probe).strip() == "[]"


def test_run_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma on its first call (numpy 2.4: _unique1d
    # asks np.ma.is_masked), about 15 ms of each fresh run; the pipeline
    # calls no np.unique
    if run_probe("import sys, numpy; print('numpy.ma' in sys.modules)").strip() == "True":
        pytest.skip("importing numpy alone loads numpy.ma")
    probe = (
        "import sys, fourierhybrid.experiments as ex; "
        "ex.run_experiment(ex.ExperimentConfig(m_list=(16,), grid_size=64, "
        f"formats=('csv', 'svg'), output_dir={str(tmp_path)!r})); "
        "print('numpy.ma' in sys.modules)"
    )
    assert run_probe(probe).strip() == "False"
    assert (tmp_path / "summary.csv").exists()


def test_frame_solve_leaves_scipy_linalg_unloaded():
    # the frame factorization uses numpy.linalg only: scipy.linalg brings its
    # own OpenBLAS, which raised a paper-matrix run's peak RSS above the
    # dense-SVD code's
    probe = (
        "import sys, numpy as np, fourierhybrid as fh; "
        "f = fh.builtin_function('f1'); freqs = fh.jittered_frequencies(8, seed=1); "
        "recon = fh.FilterReconstruction(operator=fh.assemble_omega(freqs, 4), "
        "samples=fh.fourier_samples(f, freqs), jumps=f.breakpoints); "
        "values, _ = fh.filter_reconstruct(recon, np.linspace(0, 1, 9)); "
        "print(values.size, 'scipy.linalg' in sys.modules)"
    )
    assert run_probe(probe).split() == ["9", "False"]


def test_shared_frame_leaves_outputs_unchanged(tmp_path):
    # f1 and f2 share one jitter draw, so f2's run reuses f1's operators; its
    # files must match those of f2 run alone, in a fresh interpreter whose
    # memo starts empty
    def probe(functions, out):
        return (
            "from fourierhybrid import frame; "
            "from fourierhybrid.experiments import ExperimentConfig, run_experiment; "
            f"[run_experiment(ExperimentConfig(function=name, m_list=(16, 24), grid_size=64, "
            f"output_dir={str(out)!r})) for name in {functions!r}]; "
            "print(frame._assemble.cache_info().hits)"
        )

    shared, alone = tmp_path / "shared", tmp_path / "alone"
    assert run_probe(probe(("f1", "f2"), shared)).split() == ["2"]
    assert run_probe(probe(("f2",), alone)).split() == ["0"]
    files = sorted(path.name for path in alone.iterdir())
    # three files per m, and convergence.csv and summary.csv, which f2's
    # run wrote last
    assert len(files) == 8
    for name in files:
        assert (shared / name).read_bytes() == (alone / name).read_bytes(), name


def test_names_the_benchmark_reads(monkeypatch, tmp_path):
    # perfbench computes the fine-grid oracle's (gamma, p) from cfg.alpha and
    # cfg.kappa, and its frame-health probe reads s, effective_rank and
    # omega; without one of them every checked or traced sweep would fail
    cfg = ExperimentConfig()
    echo = dict(line[2:].split("=", 1) for line in cfg.echo_lines())
    assert float(echo["alpha"]) == cfg.alpha == ALPHA
    assert float(echo["kappa"]) == cfg.kappa == KAPPA
    # constants, not settings
    assert {"alpha", "kappa"}.isdisjoint(f.name for f in fields(ExperimentConfig))
    op = fourierhybrid.assemble_omega(fourierhybrid.jittered_frequencies(8, seed=1), 4)
    assert op.s.shape == (9,)
    assert op.effective_rank == op.omega.shape[1] == 9
    # the traced benchmark times each layer by wrapping these module-level
    # names from outside (perfbench/tracing.py); a call that stopped going
    # through one of them would read as a layer that takes no time
    hooks = {
        fourierhybrid.frame: ("sigma_weight_matrix",),
        fourierhybrid.hybrid: ("filter_reconstruct", "chebyshev_fit", "evaluate_fit"),
        fourierhybrid.experiments: (
            "fourier_samples", "assemble_omega", "hybrid_reconstruct",
            "ground_truth_error", "write_line_svg",
        ),
    }
    hooked, calls = set(), {}

    def recording(key, function):
        def wrapper(*args, **kwargs):
            calls.setdefault(key, []).append(args)
            return function(*args, **kwargs)
        return wrapper

    for module, names in hooks.items():
        for name in names:
            key = f"{module.__name__}.{name}"
            hooked.add(key)
            monkeypatch.setattr(module, name, recording(key, getattr(module, name)))
    run_experiment(small_config(m_list=(16,), formats=("csv", "svg"), output_dir=str(tmp_path)))
    assert hooked - calls.keys() == set()
    # and the probes find what they read in the positional arguments:
    # filters.p_max takes p from sigma_weight_matrix's first, and
    # frame.weight_bytes_computed the sample count from filter_reconstruct's
    for args in calls["fourierhybrid.frame.sigma_weight_matrix"]:
        p = args[0]
        assert isinstance(p, np.ndarray) and p.ndim == 1 and p.dtype.kind == "i"
    for args in calls["fourierhybrid.hybrid.filter_reconstruct"]:
        assert args[0].samples.values.size == 33


class TestCli:
    def test_small_run_exits_zero(self, tmp_path, capsys):
        code = main([
            "--function", "f1", "--scheme", "jittered", "--m", "16,24",
            "--grid", "64", "--out", str(tmp_path), "--formats", "csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "m=16" in out and "m=24" in out

    def test_configuration_error_exits_two(self, tmp_path, capsys):
        cases = [
            (["--function", "f2", "--delta", "0.4"], "delta"),
            # a non-finite number is named, not passed on as NaN output
            (["--delta", "nan"], "delta must be finite"),
            (["--delta", "0"], "delta must be positive, got 0.0"),
            (["--delta", "-1"], "delta must be positive, got -1.0"),
            # a value the flag's type rejects; the message names the format
            (["--seed", "abc"], "--seed"),
            (["--m", "abc"], "argument --m: expected comma-separated integers"),
            (["--pieces", "0:1"], "argument --pieces: expected 'a:b:expr' pieces"),
            # a flag the parser does not know, such as the retired --svd-tol,
            # --n-override, --alpha and --kappa
            (["--svd-tol", "1e-8"], "unrecognized arguments: --svd-tol 1e-8"),
            (["--n-override", "8"], "unrecognized arguments: --n-override 8"),
            (["--alpha", "2"], "unrecognized arguments: --alpha 2"),
            (["--kappa", "0.1"], "unrecognized arguments: --kappa 0.1"),
            # the retired settings file: every setting is a flag
            (["--config", "x"], "unrecognized arguments: --config x"),
            # one seed rule for every scheme, checked before any work
            (["--seed", "-1"], "seed must be non-negative, got -1"),
            (["--scheme", "log", "--seed", "-1"], "seed must be non-negative, got -1"),
            # refused in validate(), by choose_n's rule, before any sampling
            (["--m", "1"], "m must be at least 2, got m = 1"),
            (["--delta", "inf"], "delta must be finite, got inf"),
            # a piece that is NaN on part of its interval, or overflows to inf;
            # a numpy warning in front of the message would fail here
            (["--function", "custom", "--pieces", "0:1:(x-0.5)^0.5"],
             "piece on [0.0, 1.0] is not finite: it is nan"),
            (["--function", "custom", "--pieces", "0:1:exp(1000*x)"],
             "piece on [0.0, 1.0] is not finite: it is inf"),
            # pieces beside a built-in function would be echoed but not used
            (["--pieces", "0:1:x"],
             "pieces are used only with function=custom, not function='f1'"),
            # a run that writes no file
            (["--formats", ""], "formats must name csv, svg or both"),
        ]
        for args, message in cases:
            code = main([
                "--function", "f1", "--m", "32", "--grid", "64",
                "--out", str(tmp_path / "out"), *args,
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert "configuration error" in err and message in err
            assert not any(tmp_path.iterdir())

    def test_deeply_nested_pieces_exit_two(self, tmp_path, capsys):
        args = ["--function", "custom", "--m", "8", "--grid", "64", "--formats", "csv"]
        # refused while compiling, not reported as a numerical failure
        code = main([*args, "--pieces", "0:1:" + "-" * 1200 + "x", "--out", str(tmp_path / "deep")])
        assert code == 2
        assert capsys.readouterr().err.endswith("-x' is nested too deeply\n")
        assert not any(tmp_path.iterdir())
        code = main([*args, "--pieces", "0:1:" + "-" * 500 + "x", "--out", str(tmp_path / "ok")])
        assert code == 0
        assert (tmp_path / "ok" / "custom_jit_m8.csv").exists()

    def test_repeated_m_exits_two(self, tmp_path, capsys):
        code = main(["--m", "128,128", "--out", str(tmp_path)])
        assert code == 2
        assert "ascending" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_function_exits_two(self, tmp_path):
        assert main(["--function", "f9", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("frame, solver, step", [
        (["--m", "16"], "eigvalsh", "frame: eigenvalues of K^T K failed"),
        # cond(K) ~ 204: the Gram route declines it and the SVD factors it
        (["--scheme", "log", "--m", "7"], "svd",
         "frame: SVD of K failed"),
    ], ids=["gram", "svd"])
    def test_numerical_failure_exits_three(self, tmp_path, capsys, monkeypatch,
                                           frame, solver, step):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        # the sampler's Gauss rules come from np.linalg.eigvalsh too and are
        # kept once built; build them before the patch, so the frame's
        # solver is the one that fails whichever tests ran before
        for order in fourierhybrid.sampling._ORDERS:
            fourierhybrid.sampling._legendre_transform(order)
        monkeypatch.setattr(np.linalg, solver, fail)
        code = main([
            "--function", "f1", *frame, "--grid", "64",
            "--out", str(tmp_path / "out"), "--formats", "csv",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"numerical failure: {step}: did not converge" in err
        assert not any(tmp_path.iterdir())

    def test_memory_error_exits_three(self, tmp_path, capsys, monkeypatch):
        # the error is raised, not provoked: a grid of 10^11 points would end
        # the same way, in numpy's MemoryError, but only after trying to allocate
        def fail(size):
            raise MemoryError(f"Unable to allocate the {size}-point grid")

        monkeypatch.setattr(fourierhybrid.experiments, "midpoint_grid", fail)
        code = main([
            "--function", "f1", "--m", "8", "--grid", "100000000000",
            "--out", str(tmp_path / "out"), "--formats", "csv",
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: out of memory: "
            "Unable to allocate the 100000000000-point grid\n"
        )
        assert not any(tmp_path.iterdir())

    def test_io_failure_exits_four(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main([
            "--function", "f1", "--m", "16", "--grid", "64",
            "--out", str(blocker / "sub"), "--formats", "csv",
        ])
        assert code == 4
        assert "I/O failure" in capsys.readouterr().err

    def test_every_config_field_has_a_flag(self):
        # build_parser has one flag per field and no other
        names = {f.name for f in fields(ExperimentConfig)}
        dests = {action.dest for action in build_parser()._actions}
        assert dests - {"help"} == names
        # and every field that shapes the numbers is echoed into each CSV,
        # with the filter constants; pieces echo as one "# piece=a:b:expr"
        # line each
        cfg = ExperimentConfig(function="custom", pieces=((0.0, 1.0, "x"),))
        echoed = {line[2:].split("=", 1)[0] for line in cfg.echo_lines()}
        assert echoed == names - {"output_dir", "formats", "pieces"} | {"piece", "alpha", "kappa"}

    def test_custom_pieces_via_cli(self, tmp_path):
        code = main([
            "--function", "custom",
            # the trailing ';' leaves an empty chunk, which is skipped
            "--pieces", "0:0.5:sin(4*pi*x); 0.5:1:sin(2*pi*x);",
            "--m", "16", "--grid", "64", "--out", str(tmp_path),
            "--formats", "csv",
        ])
        assert code == 0
        assert (tmp_path / "custom_jit_m16.csv").exists()
