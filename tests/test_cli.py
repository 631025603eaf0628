"""CLI tests: parsing, scenarios, determinism, exit codes."""

import argparse
import contextlib
import csv
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import clausius_lab.bath as bath
from clausius_lab import BathSpec, OscillatorParams, ProcessPath, heat
from clausius_lab.cli import (
    _RUNNERS,
    ConfigError,
    RunConfig,
    _cell,
    build_parser,
    main,
    parse_config_file,
    parse_ensemble_file,
)


@contextlib.contextmanager
def warnings_as_errors():
    """Every warning raises inside, except the narrow-band ``Drude cutoff`` one."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "Drude cutoff")
        yield


BB84_FILE = """
# two pure qubit states
2 2
0.5
1 0
0 0
0.5
0.5 0.5
0.5 0.5
"""


@pytest.fixture
def ensemble_path(tmp_path):
    path = tmp_path / "ens.txt"
    path.write_text(BB84_FILE, encoding="utf-8")
    return str(path)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("temperature = 0.5\ngrid=11\nbits=true\nparam=mass\n", encoding="utf-8")
        values = parse_config_file(str(path))
        assert values == {"temperature": 0.5, "grid": 11, "bits": True, "param": "mass"}

    def test_every_field_round_trips_with_its_type(self, tmp_path):
        values = {
            "temperature": 0.5, "damping": 2.5, "cutoff": 50.0, "mass_factor": 0.5, "grid": 17,
            "param": "mass", "start": 1.5, "end": 3.0, "out": "runs", "bits": True, "svg": True,
            "ensemble": "ens.txt", "effort": 8, "modes": (32, 64),
        }
        assert set(values) == {f.name for f in fields(RunConfig)} - {"scenario"}
        text = "".join(f"{k}={','.join(map(str, v)) if k == 'modes' else v}\n" for k, v in values.items())
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        parsed = parse_config_file(str(path))
        assert parsed == values
        defaults = RunConfig("moments")
        assert all(type(parsed[k]) is type(getattr(defaults, k)) for k in values)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\ndamping=2.0  # trailing\n", encoding="utf-8")
        assert parse_config_file(str(path)) == {"damping": 2.0}

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("temperature=1\nbogus=3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r":2"):
            parse_config_file(str(path))

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("temperature=warm\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r":1"):
            parse_config_file(str(path))
        path.write_text("# no value\ntemperature 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r":2: expected key=value"):
            parse_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/run.cfg")


class TestEnsembleFile:
    def test_round_trip(self, ensemble_path):
        e = parse_ensemble_file(ensemble_path)
        assert e.dim == 2 and len(e.states) == 2
        assert np.allclose(e.probabilities, [0.5, 0.5])

    def test_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        for text, message in (("2\n", "'<dim> <count>'"), ("2 x\n", "two integers")):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ConfigError, match=f":1: header must be {message}"):
                parse_ensemble_file(str(path))

    def test_bad_matrix_entry_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        for text, where in (
            ("2 1\n1.0\n1 0\n0 x\n", ":4: bad complex entry"),
            ("2 1\nhalf\n1 0\n0 0\n", ":2: expected a probability"),
            ("2 1\n1.0\n1 0 0\n0 0\n", ":3: expected 2 entries, got 3"),
        ):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ConfigError, match=where):
                parse_ensemble_file(str(path))

    def test_probabilities_must_sum_to_one(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0.7\n1 0\n0 0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="sum"):
            parse_ensemble_file(str(path))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1.0\n1 0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="end of file"):
            parse_ensemble_file(str(path))
        path.write_text("# only a comment\n\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="empty ensemble file"):
            parse_ensemble_file(str(path))


class TestScenarios:
    def test_moments_entropy_keeps_its_digits_at_high_temperature(self, tmp_path):
        # at v ~ 1e18 the difference form of S(v) printed 0 on both routes;
        # S = ln v + 1 + O(1/v^2) there
        header, rows = _RUNNERS["moments"](RunConfig("moments", temperature=1e18), tmp_path)
        v, s = header.index("v"), header.index("entropy")
        for row in rows:
            assert row[s] == pytest.approx(math.log(row[v]) + 1, rel=1e-15)

    def test_moments_writes_csv(self, tmp_path):
        rc = main(
            [
                "moments",
                "--temperature", "1.0",
                "--damping", "1.0",
                "--cutoff", "50",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "moments.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("route,")
        assert len(lines) == 3

    def test_oracle_writes_csv(self, tmp_path):
        rc = main(
            [
                "oracle",
                "--temperature", "1.0",
                "--damping", "1.0",
                "--cutoff", "20",
                "--modes", "32,64",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "oracle.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("args", [["--damping", "1e300"], ["--cutoff", "1e100"]], ids=["damping", "cutoff"])
    def test_oracle_at_an_extreme_scale_writes_csv_without_a_warning(self, tmp_path, args):
        # stiffness entries reach ~5e301 and 4e202: the eigensolve scales the
        # matrix into LAPACK's range as dsyevr does, and its eigenvalues back
        with warnings_as_errors():
            assert main(["oracle", *args, "--modes", "8,16", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "oracle.csv").read_text(encoding="utf-8").splitlines()) == 3

    @pytest.mark.parametrize(
        "args",
        [["resolve", "--temperature", "5", "--cutoff", "1e18"], ["moments", "--damping", "0", "--cutoff", "1e300"]],
        ids=["wide-band-free-energy", "decoupled-beyond-the-cutoff-range"],
    )
    def test_a_wide_band_writes_csv_without_a_warning(self, tmp_path, args):
        # the free energy's series takes only its small nodes, and gamma = 0
        # is the Gibbs state whatever the cutoff
        with warnings_as_errors():
            assert main([*args, "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"{args[0]}.csv").is_file()

    def test_sweep_with_svg(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--param", "damping",
                "--start", "0", "--end", "2",
                "--grid", "9",
                "--temperature", "1.0",
                "--cutoff", "50",
                "--svg",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "sweep.csv").exists()
        svg = (tmp_path / "sweep.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg")

    @pytest.mark.parametrize("param, start, end", [("mass", 1.0, 2.0), ("damping", 0.0, 5.0)])
    def test_sweep_heat_error_bounds_closed_form_gap(self, tmp_path, param, start, end):
        # at this point the nine-row trapezoid is ~0.4% off on the mass path
        rc = main(
            [
                "sweep",
                "--param", param,
                "--start", str(start), "--end", str(end),
                "--temperature", "0.05",
                "--damping", "5",
                "--cutoff", "100",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        with (tmp_path / "sweep.csv").open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        o, b = OscillatorParams(mass=1.0, frequency=1.0), BathSpec(0.05, 5.0, 100.0)
        for row, alpha in zip(rows, np.linspace(start, end, 9)):
            exact = heat(ProcessPath(param, start, alpha), o, b)
            assert abs(float(row["heat_cum"]) - exact.value) <= float(row["heat_error_est"])

    def test_damping_sweep_books_the_switch_on_heat(self, tmp_path):
        # a damping path's work is dF_MF, as for the switch-on that resolve
        # books, so the flagship sweep shows no apparent violation, and its
        # last row's heat is resolve's coupling heat
        flagship = ["--temperature", "0.05", "--damping", "5", "--cutoff", "100"]
        rc = main(["sweep", "--param", "damping", "--start", "0", "--end", "5", *flagship, "--out", str(tmp_path)])
        assert rc == 0 and main(["resolve", *flagship, "--out", str(tmp_path)]) == 0
        with (tmp_path / "sweep.csv").open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with (tmp_path / "resolve.csv").open(encoding="utf-8") as fh:
            coupling = next(csv.DictReader(fh))
        assert all(float(row["clausius_slack"]) >= 0 for row in rows)
        last = rows[-1]
        assert abs(float(last["heat_cum"]) - float(coupling["heat"])) <= float(last["heat_error_est"])

    def test_sweep_solves_the_drude_cubic_once(self, tmp_path, monkeypatch):
        # one kernel call takes the rows as states and again as the heat
        # integrand's slope nodes
        calls = []
        solve = bath._drude_poles
        monkeypatch.setattr(bath, "_drude_poles", lambda *args: calls.append(1) or solve(*args))
        rc = main(["sweep", "--param", "mass", "--start", "1", "--end", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 1

    def test_resolve_solves_the_drude_cubic_once(self, tmp_path, monkeypatch):
        # the three rows come from one kernel call over three points
        calls = []
        solve = bath._drude_poles
        monkeypatch.setattr(bath, "_drude_poles", lambda *args: calls.append(1) or solve(*args))
        assert main(["resolve", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_resolve_writes_three_rows(self, tmp_path):
        rc = main(
            [
                "resolve",
                "--temperature", "0.2",
                "--damping", "1.0",
                "--cutoff", "50",
                "--mass-factor", "2",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "resolve.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["coupling", "mass", "total"]

    def test_resolve_where_a_root_falls_far_below_its_limit(self, tmp_path):
        # the real root moves from wD = 10 to ~1e-30, and the free energy
        # takes its ln Gamma argument from the root itself
        args = ["--temperature", "1e-30", "--damping", "1e30", "--cutoff", "10", "--out", str(tmp_path)]
        assert main(["resolve", *args]) == 0
        assert (tmp_path / "resolve.csv").is_file()

    def test_holevo_scenario(self, tmp_path, ensemble_path):
        rc = main(["holevo", "--ensemble", ensemble_path, "--temperature", "1", "--out", str(tmp_path)])
        assert rc == 0
        content = (tmp_path / "holevo.csv").read_text(encoding="utf-8")
        assert "holevo_chi" in content and "q_shared" in content

    def test_a_pure_one_state_ensemble_prints_no_negative_zero(self, tmp_path):
        path = tmp_path / "ens.txt"
        path.write_text("2 1\n1.0\n1 0\n0 0\n", encoding="utf-8")
        assert main(["holevo", "--ensemble", str(path), "--out", str(tmp_path)]) == 0
        assert "-0." not in (tmp_path / "holevo.csv").read_text(encoding="utf-8")

    def test_bits_flag_rescales_entropy(self, tmp_path):
        nats_dir = tmp_path / "nats"
        bits_dir = tmp_path / "bits"
        base = ["moments", "--temperature", "1.0", "--damping", "1.0", "--cutoff", "50"]
        assert main(base + ["--out", str(nats_dir)]) == 0
        assert main(base + ["--bits", "--out", str(bits_dir)]) == 0
        s_nats = float((nats_dir / "moments.csv").read_text().splitlines()[1].split(",")[-1])
        s_bits = float((bits_dir / "moments.csv").read_text().splitlines()[1].split(",")[-1])
        assert s_bits == pytest.approx(s_nats / np.log(2), rel=1e-12)

    def test_violation_scan_bits_flag_rescales_entropy(self, tmp_path):
        rows = {}
        for unit, extra in (("nats", []), ("bits", ["--bits"])):
            assert main(["violation-scan", *extra, "--out", str(tmp_path / unit)]) == 0
            with (tmp_path / unit / "violation-scan.csv").open(encoding="utf-8") as fh:
                rows[unit] = [float(r["delta_entropy_mass"]) for r in csv.DictReader(fh)]
        assert len(rows["bits"]) == 50
        assert rows["bits"] == pytest.approx([s / np.log(2) for s in rows["nats"]], rel=1e-12)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("temperature=1.0\ndamping=1.0\ncutoff=50\n", encoding="utf-8")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["moments", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["moments", "--config", str(cfg), "--damping", "2.0", "--out", str(out_b)]) == 0
        row_a = (out_a / "moments.csv").read_text().splitlines()[1].split(",")
        row_b = (out_b / "moments.csv").read_text().splitlines()[1].split(",")
        assert float(row_a[2]) == 1.0 and float(row_b[2]) == 2.0


class TestExitCodes:
    def test_no_scenario_is_config_error(self, capsys):
        assert main([]) == 2
        with pytest.raises(ConfigError, match="unknown or missing scenario 'nope'"):
            RunConfig(scenario="nope").validate()

    def test_flag_the_scenario_does_not_read_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["violation-scan", "--temperature", "0.1", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("temperature", "-1"),
            ("temperature", "nan"),
            ("damping", "inf"),
            ("cutoff", "-inf"),
            ("mass-factor", "nan"),
            ("mass-factor", "inf"),
            ("mass-factor", "-inf"),
        ],
    )
    def test_invalid_parameter_is_config_error(self, tmp_path, capsys, flag, value):
        rc = main(["resolve", f"--{flag}={value}", "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_even_grid_is_config_error(self, tmp_path, capsys):
        rc = main(["sweep", "--param", "damping", "--start", "0", "--end", "1", "--grid", "8", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["oracle", "--modes", "64,64"], "mode_counts must be strictly ascending, got [64, 64]"),
            (["holevo", "--effort", "1"], "effort must be an integer >= 2, got 1"),
        ],
        ids=["repeated-rung", "effort"],
    )
    def test_the_library_refusal_is_reported_and_no_csv_written(self, tmp_path, capsys, ensemble_path, args, message):
        # a repeated rung's change is zero, so the ladder would certify itself
        if args[0] == "holevo":
            args = [*args, "--ensemble", ensemble_path]
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"clausius-lab: config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["resolve", "--damping", "5e-324"],
            ["resolve", "--temperature", "1e300"],
            ["moments", "--temperature", "1e-300", "--damping", "5e-324", "--cutoff", "1e-300"],
            ["oracle", "--cutoff", "1e150", "--modes", "8,16"],
            ["oracle", "--cutoff", "1e160", "--modes", "8,16"],
            ["oracle", "--cutoff", "1e307", "--modes", "8,16"],
            ["resolve", "--damping", "0.5", "--cutoff", "1e154"],
            ["moments", "--damping", "0.5", "--cutoff", "1e152"],
        ],
        ids=[
            "underflowed-free-energy",
            "temperature-range",
            "underflowed-spectral",
            "overflowed-couplings",
            "overflowed-cutoff-square",
            "overflowed-omega-max",
            "cutoff-range-resolve",
            "cutoff-range-moments",
        ],
    )
    def test_a_missed_accuracy_target_exits_1_with_one_line(self, tmp_path, capsys, args):
        # pytest would capture a numpy warning, so stderr alone cannot show one
        out = tmp_path / "out"
        with warnings_as_errors():
            assert main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("clausius-lab: numerical failure:") and len(err.splitlines()) == 1
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("line", ["param=foo", "grid=8", "start=nan", "modes=8,8"])
    def test_a_config_file_path_or_ladder_field_is_checked_for_every_scenario(self, tmp_path, capsys, line):
        path = tmp_path / "run.cfg"
        path.write_text(f"{line}\n", encoding="utf-8")
        assert main(["resolve", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("clausius-lab: config error:")

    @pytest.mark.parametrize(
        "param, start, end", [("mass", "0", "1"), ("damping", "-1", "1"), ("damping", "nan", "1"), ("mass", "1", "inf")]
    )
    def test_sweep_outside_the_parameter_domain_is_config_error(self, tmp_path, capsys, param, start, end):
        rc = main(["sweep", "--param", param, "--start", start, "--end", end, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("clausius-lab: config error:") and len(err.splitlines()) == 1

    def test_missing_ensemble_is_config_error(self, tmp_path, capsys):
        assert main(["holevo", "--out", str(tmp_path)]) == 2

    def test_unreadable_ensemble_is_config_error(self, tmp_path, capsys):
        rc = main(["holevo", "--ensemble", "/nonexistent.txt", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "text",
        ["2 2\nnan\n1 0\n0 0\n0.5\n0.5 0.5\n0.5 0.5\n", "2 1\n1.0\n1 0\n0 nan\n"],
        ids=["nan-probability", "nan-matrix-entry"],
    )
    def test_non_finite_ensemble_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "ens.txt"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["holevo", "--ensemble", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("clausius-lab: config error:") and len(err.splitlines()) == 1
        assert not (out / "holevo.csv").exists()


def _printed_as_written(cell: str) -> bool:
    """Whether a numeric cell is printed as the writer prints its value: an
    int as digits, a float as %.12e, a complex as %.12e%+.12ej."""
    if cell.isdigit():
        return True
    for kind in (float, complex):
        try:
            return cell == _cell(kind(cell))
        except ValueError:
            pass
    return True  # not a number


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["moments", "--temperature", "0.2", "--damping", "1.0", "--cutoff", "50"],
            ["oracle", "--modes", "32,64"],
            ["sweep", "--param", "mass", "--start", "1", "--end", "2", "--svg"],
            ["violation-scan"],
            ["resolve", "--temperature", "0.2", "--damping", "1.0", "--cutoff", "50", "--mass-factor", "2"],
            ["holevo", "--temperature", "1"],
        ],
        ids=lambda args: args[0],
    )
    def test_runs_are_byte_identical(self, tmp_path, ensemble_path, args):
        if args[0] == "holevo":
            args = args + ["--ensemble", ensemble_path]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert f"{args[0]}.csv" in names and names == sorted(p.name for p in out_b.iterdir())
        assert all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
        with (out_a / f"{args[0]}.csv").open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows)
        assert all(_printed_as_written(cell) for row in rows for cell in row)

    def test_error_rows_keep_the_header_width(self, tmp_path):
        # each diagnostic message holds commas, so the writer quotes it
        assert main(["violation-scan", "--mass-factor", "1e-300", "--out", str(tmp_path)]) == 0
        with (tmp_path / "violation-scan.csv").open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        errors = [row for row in rows if row[-1].startswith("ERROR:")]
        assert len(errors) == 40 and all("," in row[-1] for row in errors)
        assert len(header) == 8 and all(len(row) == 8 for row in rows)

    def test_out_of_range_scan_prints_no_warning(self, tmp_path):
        # every point of --mass-factor 1e-300 is refused before numpy can overflow
        src = Path(bath.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        argv = ["violation-scan", "--mass-factor", "1e-300", "--out", str(tmp_path)]
        cmd = [sys.executable, "-m", "clausius_lab.cli", *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        assert "damping beyond the closed form's range" in (tmp_path / "violation-scan.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), np.float32(1.5), [1.0]], ids=repr)
    def test_cell_refuses_a_type_it_has_no_format_for(self, value):
        with pytest.raises(TypeError):
            _cell(value)

    def test_cell_formats(self):
        assert [_cell(x) for x in (True, False, 0.5, np.float64(-2.0), 1 - 2j, 7, "ok", None)] == [
            "true", "false", "5.000000000000e-01", "-2.000000000000e+00",
            "1.000000000000e+00-2.000000000000e+00j", "7", "ok", "",
        ]


class TestFlags:
    @pytest.mark.parametrize("scenario", list(_RUNNERS))
    def test_flags_are_the_fields_the_runner_reads(self, scenario, tmp_path, ensemble_path):
        # a flag the runner never reads would be accepted and select nothing
        reads = set()
        names = {f.name for f in fields(RunConfig)}

        class Recording(RunConfig):
            def __getattribute__(self, name):
                if name in names:
                    reads.add(name)
                return super().__getattribute__(name)

        extra = {"oracle": {"modes": (8, 16)}, "holevo": {"ensemble": ensemble_path, "effort": 4}}
        _RUNNERS[scenario](Recording(scenario, **extra.get(scenario, {})), tmp_path)
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        offered = {a.dest for a in sub.choices[scenario]._actions if a.option_strings}
        assert reads == offered - {"help", "config", "out"}
