import json

import numpy as np
import pytest

from brspec.cli import (main, parse_config, read_report, run_command, write_report,
                        _DEFAULT_CONFIG)
from brspec.errors import ConfigurationError
from brspec.params import SPEED_OF_LIGHT

FAST = ["params.c=1", "params.m=1", "params.Z=0.5", "grid.n=64", "grid.s=0.5",
        "solver.k=2"]


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg["params"]["c"] == SPEED_OF_LIGHT
        assert cfg["params"]["m"] == 1.0
        assert cfg["channel"]["kappa"] == -1
        assert cfg["grid"]["n"] == 200
        assert cfg["solver"]["route"] == "both"

    def test_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"params": {"Z": 1.0}, "grid": {"n": 64}}))
        cfg = parse_config(path, overrides=["params.Z=2"])
        assert cfg["params"]["Z"] == 2.0
        assert cfg["grid"]["n"] == 64

    def test_bare_leaf_override(self):
        cfg = parse_config(overrides=["Z=3"])
        assert cfg["params"]["Z"] == 3.0

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="grit"):
            parse_config(overrides=["grit.n=100"])

    def test_constraint_violation_named(self):
        with pytest.raises(ConfigurationError, match="n >= 16"):
            parse_config(overrides=["grid.n=4"])

    def test_type_mismatch(self):
        with pytest.raises(ConfigurationError):
            parse_config(overrides=["grid.n=fine"])

    def test_enum_validation(self):
        with pytest.raises(ConfigurationError, match="route"):
            parse_config(overrides=["solver.route=magic"])

    def test_bad_file_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            parse_config(path)

    def test_defaults_not_mutated(self):
        parse_config(overrides=["params.Z=9"])
        assert _DEFAULT_CONFIG["params"]["Z"] == 1.0


@pytest.fixture(scope="module")
def report():
    cfg = parse_config(overrides=FAST)
    return run_command("spectrum", cfg)


class TestRunReports:
    def test_checks_pass(self, report):
        assert report.ok
        assert {c["name"] for c in report.checks} >= {"route_equivalence"}

    def test_constants_embedded(self, report):
        assert report.constants["hardy"] == 2.0
        assert report.constants["kato"] == pytest.approx(np.pi / 2)
        assert report.constants["tix"] == pytest.approx(1.103708, abs=1e-6)
        assert "critical_charge" in report.constants

    def test_determinism(self, report):
        again = run_command("spectrum", parse_config(overrides=FAST))
        assert again.report_hash == report.report_hash
        assert again.input_hash == report.input_hash
        assert again.results == report.results

    def test_config_echo_reproduces_run(self, report):
        again = run_command("spectrum", report.config)
        assert again.report_hash == report.report_hash

    def test_round_trip(self, report, tmp_path):
        paths = write_report(report, formats=["json"], destination=tmp_path)
        back = read_report(paths[0])
        assert back.to_dict() == report.to_dict()

    def test_csv_table(self, report, tmp_path):
        paths = write_report(report, formats=["csv"], destination=tmp_path)
        rows = paths[0].read_text().strip().splitlines()
        assert len(rows) == 1 + 2  # header + one row per level
        header = rows[0].split(",")
        assert "dense_eigenvalue" in header and "variational_eigenvalue" in header
        # every numeric field parses back to a float exactly representable
        val = rows[1].split(",")[1]
        assert float(val) == report.results["dense"]["eigenvalues"][0]

    def test_unknown_command(self):
        with pytest.raises(ConfigurationError):
            run_command("transmogrify", parse_config())


class TestMain:
    def test_success_exit_code(self, tmp_path, capsys):
        code = main(sum((["--set", kv] for kv in FAST), ["spectrum"])
                    + ["--set", "output.directory=" + str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and (tmp_path / "spectrum_report.json").exists()

    def test_failing_check_exit_code(self, tmp_path, capsys):
        # a sloppy minimization tolerance breaks the route-equivalence check
        code = main(sum((["--set", kv] for kv in FAST), ["spectrum"])
                    + ["--set", "solver.tol=1e-2",
                       "--set", "output.directory=" + str(tmp_path)])
        assert code == 1
        assert "FAIL route_equivalence" in capsys.readouterr().out

    def test_config_error_exit_code(self, capsys):
        assert main(["spectrum", "--set", "grid.n=2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, override", [
        ("spectrum", "solver.max_iter=0"),
        ("commutator-decay", "experiments.R_values=[]"),
        ("scaling-limit", "experiments.eta_values=[]"),
        ("critical-scan", "experiments.Z_values=[]"),
        ("critical-scan", "experiments.grid_sizes=[]"),
        ("spectrum", 'output.formats=["xml"]'),
        ("critical-scan", 'experiments.Z_values=["a"]'),
        ("critical-scan", "experiments.Z_values=[NaN]"),
        ("critical-scan", "experiments.Z_values=[-1]"),
        ("critical-scan", "experiments.grid_sizes=[8,100]"),
        ("critical-scan", "experiments.grid_sizes=[100.5,200]"),
        ("critical-scan", "experiments.grid_sizes=[100]"),
        ("critical-scan", "experiments.grid_sizes=[100,100]"),
        ("commutator-decay", "experiments.R_values=[2,Infinity]"),
        ("scaling-limit", 'experiments.eta_values=["x"]'),
        ("commutator-decay", "experiments.commutator_n=8"),
        ("inequalities", "experiments.inequality_n=8"),
        ("commutator-decay", "experiments.commutator_n=null"),
    ])
    def test_invalid_input_exit_code(self, command, override, tmp_path, capsys):
        code = main(sum((["--set", kv] for kv in FAST), [command])
                    + ["--set", override, "--set", "output.directory=" + str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_dtn_check_command(self, tmp_path, capsys):
        code = main(["dtn-check", "--set", "params.c=1", "--set", "params.m=1",
                     "--set", "grid.n=100", "--set", "grid.s=1",
                     "--set", "checks.boundary_samples=5",
                     "--set", "checks.perturbation_samples=5",
                     "--set", "checks.trace_samples=5",
                     "--set", "output.directory=" + str(tmp_path)])
        assert code == 0
