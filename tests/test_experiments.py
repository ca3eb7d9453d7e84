import contextlib
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fourierhybrid
from fourierhybrid.experiments import (
    ExperimentConfig,
    RunRecord,
    RunReport,
    build_parser,
    convergence_table,
    main,
    midpoint_grid,
    run_experiment,
    write_line_svg,
)

SMALL = dict(m_list=(16, 24), grid_size=64, formats=("csv",))


def small_config(**overrides):
    settings = {**SMALL, **overrides}
    return ExperimentConfig(**settings)


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

    def test_grid_floor(self):
        with pytest.raises(ValueError, match="grid_size"):
            small_config(grid_size=32).validate()

    @pytest.mark.parametrize("key", ["delta", "alpha", "kappa", "svd_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_names_key(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            small_config(**{key: value}).validate()

    def test_svd_tol_range(self):
        for tol in (-1e-12, 1.0, 2.0):
            with pytest.raises(ValueError, match=r"svd_tol must lie in \[0, 1\)"):
                small_config(svd_tol=tol).validate()
        small_config(svd_tol=0.0).validate()

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="formats"):
            small_config(formats=("csv", "png")).validate()

    def test_oversized_delta_names_interval(self):
        with pytest.raises(ValueError, match=r"\[0\.0, 0\.3\]"):
            small_config(function="f2", delta=0.21).validate()

    def test_custom_function_requires_pieces(self):
        with pytest.raises(ValueError, match="piece"):
            small_config(function="custom").validate()

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

    def test_summary_reports_frame_health(self, tmp_path):
        # svd_tol = 0.6 truncates, so cond is s_max over the last kept value
        cfg = small_config(output_dir=str(tmp_path), svd_tol=0.6)
        with pytest.warns(UserWarning, match="effective rank"):
            report = run_experiment(cfg)
            ops = [
                fourierhybrid.assemble_omega(
                    fourierhybrid.jittered_frequencies(m, cfg.seed), rec.n, cfg.svd_tol
                )
                for m, rec in zip(cfg.m_list, report.records)
            ]
        lines = [
            line for line in (tmp_path / "summary.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        header = lines[0].split(",")
        assert header[:6] == ["m", "n", "M", "N", "rank", "cond"]
        for row, rec, op in zip(lines[1:], report.records, ops):
            columns = dict(zip(header, row.split(",")))
            assert int(columns["rank"]) == rec.rank == op.effective_rank < 2 * rec.n + 1
            assert float(columns["cond"]) == rec.cond == op.s[0] / op.s[rec.rank - 1]
            assert rec.cond <= 1.0 / cfg.svd_tol

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
            RunRecord(m=m, n=0, degree=0, fit_samples=1, rank=1, cond=1.0,
                      sup_err_filter_interior=0.0, sup_err_filter_global=0.0,
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
            RunRecord(m=64, n=0, degree=0, fit_samples=1, rank=1, cond=1.0,
                      sup_err_filter_interior=0.0, sup_err_filter_global=0.0,
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
    # too, so sampling does not load them either
    probe = (
        "import sys, fourierhybrid.experiments, fourierhybrid as fh; "
        "fh.fourier_samples(fh.builtin_f2(), fh.jittered_frequencies(8, seed=1)); "
        "print(sorted(m for m in ('scipy.special', 'scipy.integrate', 'scipy.optimize') "
        "if m in sys.modules))"
    )
    assert run_probe(probe).strip() == "[]"


def test_frame_solve_leaves_scipy_linalg_unloaded():
    # the frame factorization uses numpy.linalg only: scipy.linalg brings its
    # own OpenBLAS, which raised a paper-matrix run's peak RSS above the
    # dense-SVD code's
    probe = (
        "import sys, numpy as np, fourierhybrid as fh; "
        "f = fh.builtin_function('f1'); freqs = fh.jittered_frequencies(8, seed=1); "
        "recon = fh.FilterReconstruction(operator=fh.assemble_omega(freqs, 4), "
        "samples=fh.fourier_samples(f, freqs), filter_cfg=fh.FilterConfig(), "
        "jumps=fh.jump_set(f)); "
        "values, _ = fh.filter_reconstruct(recon, np.linspace(0, 1, 9)); "
        "print(values.size, 'scipy.linalg' in sys.modules)"
    )
    assert run_probe(probe).split() == ["9", "False"]


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
            # non-finite numbers are named, not passed on as NaN output
            (["--alpha", "nan"], "alpha must be finite"),
            (["--svd-tol", "nan"], "svd_tol must be finite"),
            (["--kappa", "inf"], "kappa must be finite"),
            (["--delta", "nan"], "delta must be finite"),
            # constants whose filter parameters overflow; the alpha*kappa
            # warning also prints both names, so match the error's start
            (["--alpha", "1e308"], "configuration error: alpha = 1e+308"),
            (["--kappa", "1e308"], "configuration error: kappa = 1e+308"),
            # a value the flag's type rejects; the message names the format
            (["--seed", "abc"], "--seed"),
            (["--m", "abc"], "argument --m: expected comma-separated integers"),
            (["--pieces", "0:1"], "argument --pieces: expected 'a:b:expr' pieces"),
            # these surface at the first m, not in validate(), and must still
            # leave no output directory
            (["--m", "1"], "m must be at least 2"),
            (["--n-override", "0"], "n must be at least 1"),
            (["--seed", "-1"], "non-negative"),
            # a piece that is NaN on part of its interval, or overflows to inf
            (["--function", "custom", "--pieces", "0:1:(x-0.5)^0.5"],
             "piece on [0.0, 1.0] is not finite: it is nan"),
            (["--function", "custom", "--pieces", "0:1:exp(1000*x)"],
             "piece on [0.0, 1.0] is not finite: it is inf"),
        ]
        for args, message in cases:
            if "1e308" in args:
                context = pytest.warns(UserWarning, match=r"alpha\*kappa")
            elif "custom" in args:
                # numpy warns where it makes the NaN or inf
                context = np.errstate(all="ignore")
            else:
                context = contextlib.nullcontext()
            with context:
                code = main([
                    "--function", "f1", "--m", "32", "--grid", "64",
                    "--out", str(tmp_path / "out"), *args,
                ])
            assert code == 2
            err = capsys.readouterr().err
            assert "configuration error" in err and message in err
            assert not any(tmp_path.iterdir())

    def test_repeated_m_exits_two(self, tmp_path, capsys):
        code = main(["--m", "128,128", "--out", str(tmp_path)])
        assert code == 2
        assert "ascending" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_function_exits_two(self, tmp_path):
        assert main(["--function", "f9", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("svd_tol, solver, step", [
        ("1e-12", "eigvalsh", "frame: eigenvalues of K^T K failed"),  # Gram route
        ("0.5", "svd", "frame: SVD of K failed"),  # truncated-SVD route
    ])
    def test_numerical_failure_exits_three(self, tmp_path, capsys, monkeypatch,
                                           svd_tol, solver, step):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, solver, fail)
        code = main([
            "--function", "f1", "--m", "16", "--grid", "64", "--svd-tol", svd_tol,
            "--out", str(tmp_path / "out"), "--formats", "csv",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"numerical failure: {step}: did not converge" in err
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
        # an unreadable config file is an I/O failure, not a traceback
        assert main(["--config", str(tmp_path / "missing.cfg")]) == 4
        assert "I/O failure" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "function=f1\nscheme=jittered\nm=16\ngrid=64\n"
            f"out={tmp_path / 'from_file'}\nformats=csv\n"
        )
        code = main(["--config", str(config), "--out", str(tmp_path / "cli_wins")])
        assert code == 0
        assert (tmp_path / "cli_wins" / "summary.csv").exists()
        assert not (tmp_path / "from_file").exists()

    def test_config_file_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        for line in ("functions=f1", "func=f1"):
            config.write_text(line + "\n")
            assert main(["--config", str(config)]) == 2
            assert "unknown config key" in capsys.readouterr().err

    def test_config_file_keys_by_field_name(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"m_list=16\ngrid_size=64\noutput_dir={tmp_path / 'out'}\n"
            "n-override=8\nformats=csv\n"
        )
        assert main(["--config", str(config)]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert "# grid_size=64" in summary and "\n16,8," in summary
        # a value the flag's type rejects is a configuration error here too
        config.write_text("seed=abc\n")
        assert main(["--config", str(config)]) == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_every_config_field_has_a_flag(self):
        # config files and flags share one schema: build_parser
        dests = {action.dest for action in build_parser()._actions}
        assert {f.name for f in fields(ExperimentConfig)} <= dests

    def test_custom_pieces_via_cli(self, tmp_path):
        code = main([
            "--function", "custom",
            "--pieces", "0:0.5:sin(4*pi*x); 0.5:1:sin(2*pi*x)",
            "--m", "16", "--grid", "64", "--out", str(tmp_path),
            "--formats", "csv",
        ])
        assert code == 0
        assert (tmp_path / "custom_jit_m16.csv").exists()
