"""CLI tests: parsing, scenarios, determinism, exit codes."""

import csv

import numpy as np
import pytest

from clausius_lab import BathSpec, OscillatorParams, ProcessPath, heat
from clausius_lab.cli import (
    ConfigError,
    main,
    parse_config_file,
    parse_ensemble_file,
)

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
        path.write_text("2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r":1"):
            parse_ensemble_file(str(path))

    def test_bad_matrix_entry_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1.0\n1 0\n0 x\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r":4"):
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


class TestScenarios:
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

    def test_holevo_scenario(self, tmp_path, ensemble_path):
        rc = main(["holevo", "--ensemble", ensemble_path, "--temperature", "1", "--out", str(tmp_path)])
        assert rc == 0
        content = (tmp_path / "holevo.csv").read_text(encoding="utf-8")
        assert "holevo_chi" in content and "q_shared" in content

    def test_bits_flag_rescales_entropy(self, tmp_path):
        nats_dir = tmp_path / "nats"
        bits_dir = tmp_path / "bits"
        base = ["moments", "--temperature", "1.0", "--damping", "1.0", "--cutoff", "50"]
        assert main(base + ["--out", str(nats_dir)]) == 0
        assert main(base + ["--bits", "--out", str(bits_dir)]) == 0
        s_nats = float((nats_dir / "moments.csv").read_text().splitlines()[1].split(",")[-1])
        s_bits = float((bits_dir / "moments.csv").read_text().splitlines()[1].split(",")[-1])
        assert s_bits == pytest.approx(s_nats / np.log(2), rel=1e-12)

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

    def test_invalid_parameter_is_config_error(self, tmp_path, capsys):
        rc = main(["moments", "--temperature", "-1", "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_even_grid_is_config_error(self, tmp_path, capsys):
        rc = main(["sweep", "--param", "damping", "--start", "0", "--end", "1", "--grid", "8", "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_ensemble_is_config_error(self, tmp_path, capsys):
        assert main(["holevo", "--out", str(tmp_path)]) == 2

    def test_unreadable_ensemble_is_config_error(self, tmp_path, capsys):
        rc = main(["holevo", "--ensemble", "/nonexistent.txt", "--out", str(tmp_path)])
        assert rc == 2


class TestDeterminism:
    def test_resolve_runs_are_byte_identical(self, tmp_path):
        args = ["resolve", "--temperature", "0.2", "--damping", "1.0", "--cutoff", "50", "--mass-factor", "2"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "resolve.csv").read_bytes() == (out_b / "resolve.csv").read_bytes()
