import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fourierhybrid.experiments import (
    ExperimentConfig,
    RunRecord,
    RunReport,
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
            RunRecord(m=m, n=0, degree=0, fit_samples=1,
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
            RunRecord(m=64, n=0, degree=0, fit_samples=1,
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
        code = main([
            "--function", "f2", "--delta", "0.4", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_repeated_m_exits_two(self, tmp_path, capsys):
        code = main(["--m", "128,128", "--out", str(tmp_path)])
        assert code == 2
        assert "ascending" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_function_exits_two(self, tmp_path):
        assert main(["--function", "f9", "--out", str(tmp_path)]) == 2

    def test_io_failure_exits_four(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main([
            "--function", "f1", "--m", "16", "--grid", "64",
            "--out", str(blocker / "sub"), "--formats", "csv",
        ])
        assert code == 4
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

    def test_config_file_unknown_key(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("functions=f1\n")
        assert main(["--config", str(config)]) == 2

    def test_custom_pieces_via_cli(self, tmp_path):
        code = main([
            "--function", "custom",
            "--pieces", "0:0.5:sin(4*pi*x); 0.5:1:sin(2*pi*x)",
            "--m", "16", "--grid", "64", "--out", str(tmp_path),
            "--formats", "csv",
        ])
        assert code == 0
        assert (tmp_path / "custom_jit_m16.csv").exists()
