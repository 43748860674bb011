import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatline import ritz
from heatline.channel import ModeSet, heat_series
from heatline.cli import EXIT_INPUT, EXIT_OK, EXIT_THRESHOLD, TABLE_ROWS, RunConfig, main
from heatline.glsolve import PotentialSamples, construct_potential, make_uniform_grid
from heatline.ritz import verify_potential
from heatline.spectra import default_target_spectrum

from oracles import scipy_cosine_moments

PI = math.pi
SRC = Path(__file__).resolve().parent.parent / "src"


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestRunConfig:
    def test_rejects_both_grid_kinds(self):
        with pytest.raises(ValueError):
            RunConfig(grid_m=100, grid_m1=50, grid_m2=50).validate()

    def test_rejects_half_two_zone(self):
        with pytest.raises(ValueError):
            RunConfig(grid_m1=50).validate()

    def test_rejects_basis_smaller_than_compare(self):
        with pytest.raises(ValueError):
            RunConfig(ritz_n=10, compare_j=20).validate()

    def test_default_grid(self):
        assert len(RunConfig().make_grid()) == 301


json_leaves = st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats() | st.text(max_size=6)


def json_values(keys):
    """Any JSON value; object keys come from `keys` or are any text."""
    return st.recursive(json_leaves, lambda children: st.lists(children, max_size=4)
                        | st.dictionaries(st.sampled_from(keys) | st.text(max_size=6), children, max_size=4),
                        max_leaves=12)


SPECTRUM_KEYS = ("perturbed", "interval_length", "index", "nu", "alpha")
CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))
# besides any JSON value, objects of known keys that often hold small numbers,
# so that the draws also pass the type checks and reach the construction
known_values = json_leaves | st.integers(0, 30) | st.floats(-1.0, 40.0)
spectrum_files = json_values(SPECTRUM_KEYS) | st.lists(
    st.dictionaries(st.sampled_from(SPECTRUM_KEYS[2:]), known_values), max_size=3)
config_files = json_values(CONFIG_KEYS) | st.dictionaries(st.sampled_from(CONFIG_KEYS), known_values, max_size=3)


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestInputContract:
    def test_nan_threshold_is_rejected(self, tmp_path, capsys):
        rc = main(["verify", "--out-dir", str(tmp_path), "--threshold", "nan"])
        assert rc == EXIT_INPUT
        assert "threshold" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("key, value", [
        ("grid_m", "300"), ("ritz_n", 40.5), ("grid_m", True),
        pytest.param("threshold", 10**400, id="threshold-1e400"),
    ])
    def test_wrong_type_in_config_is_rejected(self, tmp_path, capsys, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value, "out_dir": str(tmp_path)}))
        assert main(["construct", "--config", str(config)]) == EXIT_INPUT
        assert key in assert_one_error_line(capsys)
        assert not (tmp_path / "potential.csv").exists()

    @pytest.mark.parametrize("spectrum, word", [
        ({"perturbed": 5}, "list"),
        ({"perturbed": [], "interval_length": None}, "interval_length"),
        ([5], "object"),
        ([{"index": 2, "nu": None}], "nu"),
        ([{"index": 2, "nu": "5"}], "nu"),
        ([{"index": 2, "nu": True}], "nu"),
        ([{"index": 2, "nu": math.nan}], "nu"),
        ([{"index": 2, "nu": math.inf}], "nu"),
        ([{"index": 2, "nu": 5.0, "alpha": None}], "alpha"),
        ([{"index": 2, "nu": 5.0, "alpha": math.nan}], "alpha"),
        ([{"index": 2.5, "nu": 5.0}], "index"),
        ([{"index": True, "nu": 5.0}], "index"),
        ([{"index": 2}], "spectrum record 1 is missing 'nu'"),
        ([{"index": 2, "nu": 5.0}, {"nu": 5}], "spectrum record 2 is missing 'index'"),
        ([{"index": 2, "nu": 5.0, "alpha": 1e-320}], "kernel weight 1/alpha_2 overflow"),
        # JSON integers beyond float range
        ([{"index": 10**200, "nu": 5.0}], "is too large: the square of index + 1 overflows a float"),
        ([{"index": 2, "nu": 10**400}], "nu of spectrum record 1 must be a finite number"),
        ({"perturbed": [], "interval_length": 10**400}, "interval_length must be a finite number"),
        ([{"index": 0, "nu": 5.0}], "perturbed index must be at least 1, got 0"),
    ])
    # a numpy RuntimeWarning would be a second stderr line outside pytest
    @pytest.mark.filterwarnings("error")
    def test_wrong_type_in_spectrum_file_is_rejected(self, tmp_path, capsys, spectrum, word):
        path = tmp_path / "spectrum.json"
        path.write_text(json.dumps(spectrum))
        rc = main(["construct", "--grid-m", "40", "--spectrum-file", str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_INPUT
        assert word in assert_one_error_line(capsys)
        assert not (tmp_path / "potential.csv").exists()

    @given(spectrum=spectrum_files, config=config_files)
    # JSON integers beyond float range, found by this property
    @example(spectrum=[], config={"threshold": 10**400})
    @example(spectrum=[{"index": 10**400, "nu": 14.0}], config={})
    @example(spectrum=[{"index": 10**200, "nu": 14.0}], config={})
    @example(spectrum=[{"index": 2, "nu": -10**400}], config={})
    @example(spectrum={"interval_length": 10**400}, config={})
    @settings(max_examples=200, deadline=None)
    def test_any_json_input_exits_0_or_2_with_one_line(self, spectrum, config):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp, "spectrum.json"), Path(tmp, "config.json")]
            for path, value in zip(paths, (spectrum, config)):
                path.write_text(json.dumps(value))
            err = io.StringIO()
            # the flags override the file's grid_m, spectrum_file and out_dir
            argv = ["construct", "--grid-m", "8", "--spectrum-file", str(paths[0]),
                    "--config", str(paths[1]), "--out-dir", tmp]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
        assert rc in (EXIT_OK, EXIT_INPUT)
        assert "Traceback" not in err.getvalue()
        assert len(err.getvalue().splitlines()) <= 1

    @pytest.mark.parametrize("flag, kind", [("--spectrum-file", "spectrum"), ("--config", "config")])
    def test_deeply_nested_json_is_rejected(self, tmp_path, capsys, flag, kind):
        # json.load raises RecursionError far below this depth
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        rc = main(["construct", "--grid-m", "8", flag, str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_INPUT
        assert assert_one_error_line(capsys) == f"error: {kind} file {path} nests too deeply"
        assert not (tmp_path / "potential.csv").exists()

    @pytest.mark.parametrize("content", ["5", "null", "[]", '"abc"'])
    def test_config_that_is_not_an_object_is_rejected(self, tmp_path, capsys, content):
        config = tmp_path / "run.json"
        config.write_text(content)
        assert main(["construct", "--config", str(config), "--out-dir", str(tmp_path)]) == EXIT_INPUT
        assert "config file must hold a JSON object" in assert_one_error_line(capsys)
        assert not (tmp_path / "potential.csv").exists()

    @pytest.mark.parametrize("argv, word", [
        (["construct", "--grid-m", "100000000"], "grid of 100000000 intervals"),
        (["construct", "--grid-m1", "50000", "--grid-m2", "50001"], "grid of 100001 intervals"),
        (["table", "uniform", "--ritz-n", "100000"], "sine basis of 100000"),
    ])
    def test_sizes_are_bounded_before_allocation(self, tmp_path, capsys, argv, word):
        tracemalloc.start()
        try:
            rc = main(argv + ["--out-dir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_INPUT
        assert word in assert_one_error_line(capsys)
        assert peak < 1_000_000
        assert not any(tmp_path.iterdir())

    # each id names the command and the flags it refuses
    @pytest.mark.parametrize("argv, message", [
        pytest.param(["construct", "--threshold", "1e-12", "--ritz-n", "7", "--compare-j", "5"],
                     "heatline construct: unrecognized arguments: --threshold 1e-12 --ritz-n 7 --compare-j 5",
                     id="argv0-construct---ritz-n, --compare-j, --threshold"),
        pytest.param(["diagnose-linearized", "--threshold", "1e-12", "--ritz-n", "30"],
                     "heatline diagnose-linearized: unrecognized arguments: --threshold 1e-12 --ritz-n 30",
                     id="argv1-diagnose-linearized---ritz-n, --threshold"),
        pytest.param(["table", "uniform", "--grid-m", "50", "--threshold", "1e-12"],
                     "heatline table: unrecognized arguments: --grid-m 50 --threshold 1e-12",
                     id="argv2-table uniform---grid-m, --threshold"),
        pytest.param(["table", "two_zone", "--grid-m", "50"],
                     "heatline table: unrecognized arguments: --grid-m 50",
                     id="argv3-table two_zone---grid-m"),
        pytest.param(["verify", "--grid-m1", "50", "--grid-m2", "75"],
                     "heatline verify: unrecognized arguments: --grid-m1 50 --grid-m2 75",
                     id="argv4-verify---grid-m1, --grid-m2"),
        pytest.param(["channel", "--potential", "q.csv", "--grid-m", "60", "--threshold", "0.1"],
                     "heatline channel with --potential: unrecognized arguments: --threshold 0.1 --grid-m 60",
                     id="argv5-channel with --potential---grid-m, --threshold"),
        pytest.param(["diagnose-linearized", "--potential", "q.csv", "--grid-m1", "50", "--spectrum-file", "s.json"],
                     "heatline diagnose-linearized with --potential: "
                     "unrecognized arguments: --spectrum-file s.json --grid-m1 50",
                     id="argv6-diagnose-linearized with --potential---spectrum-file, --grid-m1"),
    ])
    def test_unread_flag_is_rejected(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_INPUT
        assert assert_one_error_line(capsys) == f"error: {message}"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, reads", [
        ("construct", "--spectrum-file --grid-m --grid-m1 --grid-m2 --out-dir"),
        ("verify", "--spectrum-file --ritz-n --compare-j --out-dir --threshold --potential"),
        ("table", "--spectrum-file --ritz-n --compare-j --out-dir"),
        ("channel", "--spectrum-file --grid-m --grid-m1 --grid-m2 --ritz-n --compare-j --out-dir --potential"),
        ("diagnose-linearized", "--spectrum-file --grid-m --grid-m1 --grid-m2 --compare-j --out-dir --potential"),
    ])
    def test_help_lists_exactly_the_flags_read(self, capsys, command, reads):
        with pytest.raises(SystemExit) as done:
            main([command, "-h"])
        assert done.value.code == 0
        listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        assert listed == {"--help", "--config", *reads.split()}

    @pytest.mark.parametrize("argv, words", [
        (["construct", "--grid-m", "abc"], "heatline construct: argument --grid-m: invalid int value: 'abc'"),
        (["construct", "--foo", "1"], "unrecognized arguments: --foo 1"),
        (["table"], "heatline table: the following arguments are required: which"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        # flags that were removed
        (["verify", "--jacobi-tol", "1e-8"], "unrecognized arguments: --jacobi-tol 1e-8"),
        (["table", "two_zone", "--grid-split", "2.5"], "unrecognized arguments: --grid-split 2.5"),
    ])
    def test_usage_error_is_one_line(self, capsys, argv, words):
        assert main(argv) == EXIT_INPUT
        assert words in assert_one_error_line(capsys)

    def test_help_still_prints(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["table", "-h"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: heatline table")

    @pytest.mark.parametrize("key, value", [("jacobi_tol", 1e-8), ("grid_split", 2.5)])
    def test_removed_config_key_is_refused(self, tmp_path, capsys, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value, "out_dir": str(tmp_path)}))
        assert main(["construct", "--config", str(config)]) == EXIT_INPUT
        assert assert_one_error_line(capsys) == f"error: unknown config keys: ['{key}']"
        assert not (tmp_path / "potential.csv").exists()

    def test_config_keys_are_shared_across_commands(self, tmp_path):
        # a config file may carry keys that only some commands read
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"grid_m": 40, "threshold": 0.5, "ritz_n": 30,
                                      "out_dir": str(tmp_path)}))
        assert main(["construct", "--config", str(config)]) == EXIT_OK
        assert main(["verify", "--config", str(config)]) == EXIT_OK

    def test_grid_too_large_to_allocate(self, tmp_path, capsys):
        rc = main(["construct", "--grid-m", "1000000000000", "--out-dir", str(tmp_path)])
        assert rc == EXIT_INPUT
        assert "allocate" in assert_one_error_line(capsys)


class TestConstruct:
    def test_row_count(self, tmp_path):
        assert main(["construct", "--grid-m", "300", "--out-dir", str(tmp_path)]) == EXIT_OK
        header, rows = read_rows(tmp_path / "potential.csv")
        assert header == ["s", "Q"]
        assert len(rows) == 301

    def test_unperturbed_spectrum_gives_zero_column(self, tmp_path):
        spec = tmp_path / "free.json"
        spec.write_text("[]")
        assert main([
            "construct", "--grid-m", "40",
            "--spectrum-file", str(spec), "--out-dir", str(tmp_path),
        ]) == EXIT_OK
        _, rows = read_rows(tmp_path / "potential.csv")
        assert all(abs(float(q)) <= 1e-10 for _, q in rows)

    def test_determinism(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(["construct", "--grid-m", "120", "--out-dir", str(a_dir)])
        main(["construct", "--grid-m", "120", "--out-dir", str(b_dir)])
        assert (a_dir / "potential.csv").read_bytes() == (b_dir / "potential.csv").read_bytes()


class TestVerify:
    def test_zero_potential_free_target(self, tmp_path):
        spec = tmp_path / "free.json"
        spec.write_text("[]")
        grid = make_uniform_grid(60)
        PotentialSamples(grid=grid, values=np.zeros(61)).to_csv(tmp_path / "potential.csv")
        rc = main([
            "verify", "--spectrum-file", str(spec), "--out-dir", str(tmp_path),
            "--ritz-n", "20",
        ])
        assert rc == EXIT_OK
        header, rows = read_rows(tmp_path / "report.csv")
        assert header == ["j", "nu_target", "nu_computed", "rel_error"]
        assert rows[-1][0] == "delta"
        assert float(rows[-1][-1]) <= 1e-10

    def test_threshold_exit_code(self, tmp_path, capsys):
        main(["construct", "--grid-m", "100", "--out-dir", str(tmp_path)])
        assert main(["verify", "--out-dir", str(tmp_path), "--threshold", "1e-12"]) == EXIT_THRESHOLD
        assert main(["verify", "--out-dir", str(tmp_path), "--threshold", "0.5"]) == EXIT_OK

    def test_malformed_csv_reports_row(self, tmp_path, capsys):
        bad = tmp_path / "potential.csv"
        bad.write_text("s,Q\n0.0,0.0\n1.0,oops\n")
        assert main(["verify", "--out-dir", str(tmp_path)]) == EXIT_INPUT
        assert "row 3" in capsys.readouterr().err

    def test_nan_grid_point_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "q.csv"
        bad.write_text("s,Q\n0.0,0.0\nnan,0.0\n1.0,0.0\n3.141592653589793,0.0\n")
        rc = main(["verify", "--potential", str(bad), "--out-dir", str(tmp_path)])
        assert rc == EXIT_INPUT
        assert assert_one_error_line(capsys) == "error: grid points must be finite and strictly increasing"
        assert not (tmp_path / "report.csv").exists()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["verify", "--out-dir", str(tmp_path)]) == EXIT_INPUT

    def test_verify_matches_fused_pipeline(self, tmp_path):
        out = tmp_path / "out"
        main(["construct", "--grid-m", "150", "--out-dir", str(out)])
        main(["verify", "--out-dir", str(out)])
        _, rows = read_rows(out / "report.csv")
        csv_delta = float(rows[-1][-1])
        spectrum = default_target_spectrum()
        samples = PotentialSamples.from_csv(out / "potential.csv")
        fused = verify_potential(samples, spectrum)
        assert abs(csv_delta - fused.delta) <= 1e-14

    def test_eigenvector_csv_written(self, tmp_path):
        main(["construct", "--grid-m", "100", "--out-dir", str(tmp_path)])
        main(["verify", "--out-dir", str(tmp_path)])
        header, rows = read_rows(tmp_path / "eigenvectors.csv")
        assert header[0] == "j"
        assert header[1] == "c_1"
        assert len(rows) == 20


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"grid_m": 4, "out_dir": str(tmp_path / "from_file")}))
        assert main(["construct", "--config", str(config)]) == EXIT_OK
        _, rows = read_rows(tmp_path / "from_file" / "potential.csv")
        assert len(rows) == 5
        # explicit flag beats the file value
        assert main(["construct", "--config", str(config), "--grid-m", "6"]) == EXIT_OK
        _, rows = read_rows(tmp_path / "from_file" / "potential.csv")
        assert len(rows) == 7

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"grid_size": 10}))
        assert main(["construct", "--config", str(config)]) == EXIT_INPUT
        assert "unknown config keys" in capsys.readouterr().err


class TestChannelCommand:
    def test_outputs_and_summary(self, tmp_path, capsys):
        rc = main(["channel", "--grid-m", "200", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "lambda_1" in out and "lambda_2" in out and "concentration" in out
        header, rows = read_rows(tmp_path / "lambda.csv")
        assert header == ["n", "m", "l", "lambda_n"]
        assert float(rows[0][3]) == pytest.approx(0.0, abs=1e-4)
        assert float(rows[1][3]) == pytest.approx(11.0, rel=0.01)
        header, _ = read_rows(tmp_path / "mode1.csv")
        assert header == ["s", "rho", "phi_1"]
        header, _ = read_rows(tmp_path / "heat.csv")
        assert header == ["s", "rho", "t", "u"]

    def test_heat_rows_match_the_series(self, tmp_path, capsys):
        rc = main(["channel", "--grid-m", "60", "--ritz-n", "24", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        spectrum = default_target_spectrum()
        report = verify_potential(construct_potential(spectrum, make_uniform_grid(60)), spectrum, basis_size=24)
        series = heat_series(ModeSet.from_reports(report), np.sin, lambda rho: np.exp(-2.0 * rho), truncation=25)
        _, rows = read_rows(tmp_path / "heat.csv")
        s, rho, t, u = np.array(rows, dtype=float).T
        assert len(u) == 4 * 21 * 21
        keys = list(zip(t, rho, s))
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        expected = [series.evaluate(*point) for point in zip(s, rho, t)]
        assert np.max(np.abs(u - expected)) <= 1e-13 * np.max(np.abs(u))

    def test_unperturbed_channel_spectrum(self, tmp_path, capsys):
        spec = tmp_path / "free.json"
        spec.write_text("[]")
        rc = main([
            "channel", "--grid-m", "60", "--spectrum-file", str(spec),
            "--ritz-n", "24", "--out-dir", str(tmp_path),
        ])
        assert rc == EXIT_OK
        _, rows = read_rows(tmp_path / "lambda.csv")
        # free Dirichlet sums n^2 + m^2: 2, 5, 5, 8, ...
        values = [float(r[3]) for r in rows[:4]]
        assert values == pytest.approx([2.0, 5.0, 5.0, 8.0], abs=1e-8)


class TestDiagnoseCommand:
    def test_reports_extrema(self, tmp_path, capsys):
        rc = main(["diagnose-linearized", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "min(E)" in out and "max(E)" in out
        assert "numerically invalid" in out
        header, _ = read_rows(tmp_path / "linearized_error.csv")
        assert header == ["n", "m", "E"]

    def test_degenerate_potential_is_input_error(self, tmp_path, capsys):
        grid = make_uniform_grid(20)
        PotentialSamples(grid=grid, values=grid.points.copy()).to_csv(tmp_path / "q.csv")
        rc = main([
            "diagnose-linearized", "--potential", str(tmp_path / "q.csv"),
            "--out-dir", str(tmp_path),
        ])
        assert rc == EXIT_INPUT

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid_m", [3, 8, 20])
    def test_zero_trapezoid_entries_are_named_not_averaged(self, tmp_path, capsys, grid_m):
        # on so coarse a grid the trapezoid moments alias and some entries of
        # the trapezoid matrix vanish, exactly or to rounding (M = 20), so the
        # relative error E is undefined
        rc = main(["diagnose-linearized", "--grid-m", str(grid_m), "--out-dir", str(tmp_path)])
        assert rc == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "zero or non-finite entries" in err
        assert not (tmp_path / "linearized_error.csv").exists()


class TestTableCommand:
    def test_two_zone_table(self, tmp_path, capsys):
        rc = main(["table", "two_zone", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        header, rows = read_rows(tmp_path / "table_two_zone.csv")
        assert header == ["m1", "m2", "delta", "paper_delta"]
        assert [r[:2] for r in rows] == [["50", "50"], ["50", "75"], ["50", "100"]]
        assert [float(r[3]) for r in rows] == [4.68, 0.94, 0.23]
        deltas = [float(r[2]) for r in rows]
        assert deltas[0] > deltas[1] > deltas[2]

    def test_uniform_deltas_match_recorded_values(self, tmp_path):
        # deltas (percent) recorded with a cyclic-by-rows Jacobi that started
        # every row cold; the round-robin ordering and the warm start of the
        # rows after the first move them by rounding only
        recorded = [
            0.04631837359435461,
            0.0085986384534386673,
            0.0029523147149339885,
            0.0015013701014992315,
            0.00099595948552482524,
        ]
        assert main(["table", "uniform", "--out-dir", str(tmp_path)]) == EXIT_OK
        _, rows = read_rows(tmp_path / "table_uniform.csv")
        assert [int(r[0]) for r in rows] == [100, 150, 200, 250, 300]
        assert np.allclose([float(r[1]) for r in rows], recorded, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("which", ["uniform", "two_zone"])
    def test_warm_rows_match_cold_verify(self, tmp_path, spectrum, which):
        assert main(["table", which, "--out-dir", str(tmp_path)]) == EXIT_OK
        header, rows = read_rows(tmp_path / f"table_{which}.csv")
        deltas = [float(row[header.index("delta")]) for row in rows]
        cold = [100.0 * verify_potential(construct_potential(spectrum, RunConfig(**flags).make_grid()),
                                         spectrum).delta
                for flags, _, _ in TABLE_ROWS[which]]
        # the first row starts cold; the others start from the row before
        assert deltas[0] == cold[0]
        assert np.allclose(deltas, cold, rtol=1e-8, atol=0.0)


def test_runtime_imports_no_scipy():
    # the package and its CLI need numpy only; scipy serves the tests and
    # the benchmark as an oracle
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import heatline, heatline.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"


#: the modules that importing heatline and its CLI loads beyond numpy
RUNTIME_MODULES = {"__future__", "_csv", "_json", "argparse", "copy", "csv", "dataclasses", "gettext", "json",
                   "heatline"}


def test_runtime_imports_no_new_module():
    # the `tables` benchmark times a fresh interpreter importing heatline, so
    # any further import shows in its set-up time
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; before = set(sys.modules); "
            "import heatline, heatline.cli; print('\\n'.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = done.stdout.split()
    assert "heatline.cli" in loaded
    assert [m for m in loaded if m not in RUNTIME_MODULES and not m.startswith(("json.", "heatline."))] == []


class TestOutputsAgainstScipySpline:
    """Default outputs against those of the same commands with scipy's spline for the moments.

    The moments move by rounding only (7e-16 of max |qt|).  potential.csv and
    linearized_error.csv do not read the spline, so they stay byte-identical;
    every verified eigenvalue stays within 1e-12 max(1, |nu|) and every table
    delta within 1e-8 relative.
    """

    COMMANDS = (["construct"], ["verify", "--compare-j", "100"], ["table", "uniform"],
                ["table", "two_zone"], ["diagnose-linearized"])

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        runs = {}
        for spline in ("numpy", "scipy"):
            out = tmp_path_factory.mktemp(spline)
            with pytest.MonkeyPatch.context() as patch:
                if spline == "scipy":
                    patch.setattr(ritz, "cosine_moments", scipy_cosine_moments)
                for argv in self.COMMANDS:
                    assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
            runs[spline] = out
        return runs["numpy"], runs["scipy"]

    @pytest.mark.parametrize("name", ["potential.csv", "linearized_error.csv"])
    def test_spline_free_outputs_are_byte_identical(self, outputs, name):
        ours, reference = outputs
        assert (ours / name).read_bytes() == (reference / name).read_bytes()

    def test_eigenvalues_within_rounding(self, outputs):
        (header, ours), (_, reference) = (read_rows(out / "report.csv") for out in outputs)
        column = header.index("nu_computed")
        nu = np.array([float(row[column]) for row in ours[:-1]])
        nu_ref = np.array([float(row[column]) for row in reference[:-1]])
        assert len(nu) == 100
        assert np.all(np.abs(nu - nu_ref) <= 1e-12 * np.maximum(1.0, np.abs(nu_ref)))

    @pytest.mark.parametrize("which", ["uniform", "two_zone"])
    def test_table_deltas_within_rounding(self, outputs, which):
        (header, ours), (_, reference) = (read_rows(out / f"table_{which}.csv") for out in outputs)
        column = header.index("delta")
        deltas = [float(row[column]) for row in ours]
        assert np.allclose(deltas, [float(row[column]) for row in reference], rtol=1e-8, atol=0.0)
