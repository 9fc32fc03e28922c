import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brspec import PhysParams, assemble, cli, experiments, spectra
from brspec.cli import (COMMANDS, OPS, RunReport, main, parse_config, run_command,
                        write_report, _COMMANDS, _DEFAULT_CONFIG, _RULES, _validate)
from brspec.channels import ChannelSpec, critical_charge
from brspec.errors import BrspecError, ConfigurationError
from brspec.params import SPEED_OF_LIGHT

FAST = ["params.c=1", "params.m=1", "params.Z=0.5", "grid.n=64", "grid.s=0.5",
        "solver.k=2"]


def _leaves(table, prefix=""):
    for key, value in table.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


LEAVES = dict(_leaves(_DEFAULT_CONFIG))


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

    def test_string_key_keeps_its_text(self):
        # a string key takes the text itself, or the string a JSON literal holds
        cfg = parse_config(overrides=["output.directory=123", 'grid.kind="log"'])
        assert cfg["output"]["directory"] == "123"
        assert cfg["grid"]["kind"] == "log"

    def test_enum_validation(self):
        with pytest.raises(ConfigurationError, match="route"):
            parse_config(overrides=["solver.route=magic"])

    def test_bad_file_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            parse_config(path)

    @pytest.mark.parametrize("override", [
        "params.Z=1e308", "params.c=1e-300", "params.m=1e300", "grid.s=1e300",
        "grid.n=1e300", "grid.n=1" + "0" * 400, "params.Z=1001", "params.c=0.5",
        "params.m=2000", "grid.s=1e-7", "grid.n=4097", "solver.k=65", "solver.k=1e300",
        "experiments.Z_values=[100,1e308]", "experiments.grid_sizes=[100,5000]",
        "experiments.commutator_n=2049", "experiments.inequality_n=1e300",
        "seed=-1", "seed=1.5", "seed=Infinity", "solver.tol=0", "solver.tol=1e-15",
        "solver.tol=0.2", "solver.max_iter=10001", "solver.max_iter=1e300",
        "experiments.R_values=[2]",
        "experiments.R_values=[2,2]", "experiments.R_values=[1e300,1e301]",
        "experiments.eta_values=[0.4]", "experiments.eta_values=[1e-300,1e-301]",
        "experiments.eta_values=[0.4,0.2]", "experiments.eta_values=[0.6,0.4,0.2]",
    ])
    def test_values_outside_the_stated_ranges_rejected(self, override):
        with pytest.raises(ConfigurationError):
            parse_config(overrides=[override])

    def test_range_ends_accepted(self):
        cfg = parse_config(overrides=[
            "params.Z=0", "params.c=1", "params.m=1e-3", "grid.s=1e-6", "grid.n=4096",
            "solver.k=64", "experiments.Z_values=[0,1000]", "experiments.grid_sizes=[16,4096]",
            "experiments.commutator_n=2048", "experiments.inequality_n=4096"])
        assert cfg["grid"]["n"] == 4096 and cfg["params"]["Z"] == 0.0
        cfg = parse_config(overrides=["params.Z=1000", "params.c=1e6", "params.m=1e3",
                                      "grid.s=1e6", "grid.n=16", "solver.k=1"])
        assert cfg["params"]["c"] == 1e6 and cfg["grid"]["s"] == 1e6
        cfg = parse_config(overrides=[
            "seed=0", "solver.tol=1e-14", "solver.max_iter=1",
            "experiments.R_values=[1e-6,1e6]", "experiments.eta_values=[0.5,0.1,1e-6]"])
        assert cfg["seed"] == 0 and cfg["solver"]["tol"] == 1e-14
        cfg = parse_config(overrides=[
            "seed=1" + "0" * 400, "solver.tol=0.1", "solver.max_iter=10000"])
        assert cfg["seed"] == 10**400 and cfg["solver"]["max_iter"] == 10000

    def test_every_key_has_one_rule(self):
        # the output directory is any path; main makes it before the run
        assert set(_RULES) == set(LEAVES) - {"output.directory"}

    def test_defaults_not_mutated(self):
        parse_config(overrides=["params.Z=9"])
        assert _DEFAULT_CONFIG["params"]["Z"] == 1.0


# dotted paths and bare leaf names, as `--set` accepts both, with their defaults
DEFAULTS = {**LEAVES, **{key.rsplit(".", 1)[-1]: value for key, value in LEAVES.items()}}
KEYS = sorted(DEFAULTS)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-40, 600), st.integers(),
                    st.integers(min_value=2**1024, max_value=2**1400),
                    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
                    st.sampled_from([v for v in LEAVES.values() if not isinstance(v, list)]))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4),
                   st.dictionaries(st.text(max_size=3), SCALARS, max_size=2),
                   st.sampled_from([v for v in LEAVES.values() if isinstance(v, list)]))
# what follows `key=` is read as JSON when it parses and as a string otherwise
RAW = st.one_of(VALUES.map(json.dumps), st.text(max_size=10))


class TestParseConfigProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(KEYS), RAW), min_size=1, max_size=4))
    def test_overrides_validate_or_raise(self, overrides):
        try:
            cfg = parse_config(overrides=[f"{key}={raw}" for key, raw in overrides])
        except ConfigurationError:
            return
        _validate(cfg)
        for key, default in LEAVES.items():
            section, _, leaf = key.rpartition(".")
            value = cfg[section][leaf] if section else cfg[leaf]
            if default is not None:
                assert type(value) is type(default), (key, value)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from(sorted(LEAVES)), VALUES, min_size=1, max_size=4))
    def test_file_and_overrides_agree(self, tmp_path_factory, values):
        # a --set override is the one-key table of the file, merged alike;
        # a string key keeps the override's text unless it is a JSON string
        table = {}
        for key, value in values.items():
            *sections, leaf = key.split(".")
            node = table
            for section in sections:
                node = node.setdefault(section, {})
            keeps_text = isinstance(LEAVES[key], str) and not isinstance(value, str)
            node[leaf] = json.dumps(value) if keeps_text else value
        path = tmp_path_factory.mktemp("config") / "run.json"
        path.write_text(json.dumps(table))
        outcomes = []
        for kwargs in ({"path": path},
                       {"overrides": [f"{k}={json.dumps(v)}" for k, v in values.items()]}):
            try:
                outcomes.append(parse_config(**kwargs))
            except ConfigurationError:
                outcomes.append(ConfigurationError)
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(KEYS), min_size=1, max_size=4))
    def test_defaults_round_trip(self, keys):
        # every key set to its own default value is accepted unchanged
        overrides = [f"{key}={json.dumps(DEFAULTS[key])}" for key in keys]
        assert parse_config(overrides=overrides) == parse_config()


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
        back = RunReport(**json.loads(paths[0].read_text()))
        assert back.to_dict() == report.to_dict()

    def test_non_finite_values_written_as_null(self, report, tmp_path):
        # strict JSON has no NaN or Infinity tokens: a reader that rejects
        # them reads the file, with each non-finite float as null, and the
        # report hash is the one computed in memory
        first = {**report.checks[0], "value": math.nan}
        odd = dataclasses.replace(
            report, results={**report.results, "nan": math.nan, "inf": [math.inf, -math.inf]},
            checks=[first] + report.checks[1:])

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        back = json.loads(write_report(odd, formats=["json"], destination=tmp_path)[0]
                          .read_text(), parse_constant=reject)
        assert back["results"]["nan"] is None and back["results"]["inf"] == [None, None]
        assert back["checks"][0]["value"] is None
        assert back["results"]["dense"] == report.results["dense"]
        assert back["report_hash"] == report.report_hash

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

    @pytest.mark.parametrize("Z, bound", [(0.005, True), (0.001, True), (1e-4, False)])
    def test_weak_binding_is_bound_above_the_rounding_floor(self, Z, bound):
        # the default grid rounds at eps max |A_ii| = 4.5e-14 mc^2, and a
        # level is bound below mc^2 less ten times that; the bindings
        # (Z/c)^2/2 = 6.66e-10 and 2.66e-11 mc^2 lie above that floor (and
        # below the fixed 1e-9 mc^2 that flagged them unbound before), the
        # 2.66e-13 mc^2 of Z = 1e-4 below it, where the grid cannot resolve it
        report = run_command("spectrum", parse_config(overrides=[f"params.Z={Z}"]))
        check = next(c for c in report.checks if c["name"] == "bound_states_in_gap")
        assert check["ok"] is bound
        assert report.results["dense"]["bound_flags"][0] is bound

    def test_no_bound_level_fails(self):
        # a positive charge always binds; this grid (inside the subordinacy
        # window, Z_c = 0.91 at c = 1) holds no level below the continuum
        # edge, which is a grid failure, not a pass
        report = run_command("spectrum", parse_config(overrides=[
            "params.Z=0.5", "params.c=1", "params.m=1e-3", "grid.s=1e6", "grid.n=32",
            "solver.route=dense"]))
        assert not any(report.results["dense"]["bound_flags"])
        check = next(c for c in report.checks if c["name"] == "bound_states_in_gap")
        assert check["ok"] is False and not report.ok
        assert check["value"] == min(report.results["dense"]["eigenvalues"])

    def test_subordinacy_window_is_the_channels(self):
        # Z = 200 lies below Z_c(-2) = 266.3: the kappa = -2 operator is
        # bounded below and binds, so no warning, and its gap check is kept
        log = ["grid.kind=log", "solver.route=dense"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_command("spectrum", parse_config(
                overrides=log + ["params.Z=200", "channel.kappa=-2"]))
        check = next(c for c in report.checks if c["name"] == "bound_states_in_gap")
        assert check["ok"] and report.ok
        assert report.constants["critical_charge"] == critical_charge(PhysParams(), -2)
        # Z = 125 lies above Z_c(-1) = 124.16
        with pytest.warns(UserWarning, match="window Z < 124.16 of kappa = -1"):
            report = run_command("spectrum", parse_config(overrides=log + ["params.Z=125"]))
        assert "bound_states_in_gap" not in {c["name"] for c in report.checks}


class TestDiagnostics:
    def test_variational_levels_reported(self, report):
        diag = report.diagnostics["variational"]
        assert len(diag["levels"]) == report.config["solver"]["k"]
        target = report.config["solver"]["tol"] * report.results["mc2"]
        for rec in diag["levels"]:
            assert rec["exit_reason"] == "residual"
            assert rec["residual"] <= target
            assert 0 <= rec["iterations"] <= diag["block_iterations"]

    def test_dense_route_has_none(self):
        dense = run_command("spectrum", parse_config(overrides=FAST + ["solver.route=dense"]))
        assert dense.diagnostics == {}

    def test_report_hash_ignores_diagnostics(self, report, monkeypatch):
        real = _COMMANDS["spectrum"]
        altered = real._replace(
            run=lambda config: (*real.run(config)[:2], {"variational": {"block_iterations": -1}}))
        monkeypatch.setitem(_COMMANDS, "spectrum", altered)
        other = run_command("spectrum", report.config)
        assert other.diagnostics != report.diagnostics
        assert other.report_hash == report.report_hash

    @pytest.mark.parametrize("command, overrides", [
        ("inequalities", ["experiments.inequality_n=64"]),
        ("scaling-limit", []),
        ("nonrel-limit", []),
    ])
    def test_assembling_commands_have_none(self, command, overrides):
        report = run_command(command, parse_config(overrides=overrides))
        assert report.diagnostics == {}
        assert "fallback_rows" not in report.results

    def test_critical_scan_eigen_counts_reported(self, monkeypatch):
        config = parse_config()
        base = run_command("critical-scan", config)
        # two eigh calls at Z = 120, one per family's coarsest grid; the
        # finer grids' Z = 120 levels start from the coarser ground vector,
        # and at Z = 130 each grid's level is one certified factorization
        # after its rejected shifts, and a few solves
        assert base.diagnostics == {
            "eigen": {"eigh_calls": 2, "factorizations": 15, "rejected_shifts": 5,
                      "solves": 78, "max_solves_per_level": 17}}
        # the counts stay out of report_hash
        real_run = _COMMANDS["critical-scan"]
        altered = real_run._replace(run=lambda config: (
            *real_run.run(config)[:2], {"eigen": {"eigh_calls": 7}}))
        monkeypatch.setitem(_COMMANDS, "critical-scan", altered)
        other = run_command("critical-scan", config)
        assert other.diagnostics != base.diagnostics
        assert other.report_hash == base.report_hash

    def test_dtn_check_tails_reported(self, monkeypatch):
        config = parse_config(overrides=FAST)
        base = run_command("dtn-check", config)
        diag = base.diagnostics["x_quadrature"]
        assert diag["nodes"] == 401
        assert 0.0 <= diag["tail_ratio_max"] <= 1e-12 and diag["tails_ok"] is True
        # the tail figures stay out of report_hash
        real = _COMMANDS["dtn-check"]
        altered = real._replace(run=lambda config: (*real.run(config)[:2], {
            "x_quadrature": {"nodes": 3, "tail_ratio_max": 1.0, "tails_ok": False}}))
        monkeypatch.setitem(_COMMANDS, "dtn-check", altered)
        other = run_command("dtn-check", config)
        assert other.diagnostics != base.diagnostics
        assert other.report_hash == base.report_hash


class TestResidualGate:
    # ||A|| / mc^2 is 3.3e11 at this corner: the eigh residual, 6.4e-8, is
    # rounding (eps max|A_ii| = 7.3e-8), far above 1e-7 mc^2 = 1e-10
    CORNER = ["params.Z=0.5", "params.c=1", "params.m=1e-3", "grid.s=1e6", "grid.n=32",
              "solver.route=dense"]

    @staticmethod
    def _residual_check(report):
        return next(c for c in report.checks if c["name"] == "dense_residuals_small")

    def test_large_operator_scale_passes(self):
        config = parse_config(overrides=self.CORNER)
        check = self._residual_check(run_command("spectrum", config))
        assert check["ok"], check
        assert check["value"] > 1e-7 * config["params"]["m"] * config["params"]["c"] ** 2

    @pytest.mark.parametrize("overrides, shift", [(CORNER, 1e-10),
                                                  (["solver.route=dense"], 1e-6)])
    def test_perturbed_pair_fails(self, overrides, shift, monkeypatch):
        # every eigenvector moved by ``shift`` along the flat unit vector: a
        # pair that wrong still fails the gate, at either operator scale
        real = spectra.eigh

        def perturbed(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            return vals, vecs + shift / np.sqrt(vecs.shape[0])

        config = parse_config(overrides=overrides)
        assert self._residual_check(run_command("spectrum", config))["ok"]
        monkeypatch.setattr(spectra, "eigh", perturbed)
        check = self._residual_check(run_command("spectrum", config))
        assert not check["ok"], check

    def test_variational_route_stops_at_rounding(self):
        # tol mc^2 = 1e-13 lies far below the rounding here, so the block
        # minimizer stops at 10 eps max|A_ii| = 7.3e-7 instead of running
        # out of iterations
        report = run_command("spectrum", parse_config(
            overrides=self.CORNER[:-1] + ["solver.route=variational"]))
        check = next(c for c in report.checks if c["name"] == "variational_residuals_small")
        assert check["ok"], check


class TestGalerkinScheme:
    @pytest.mark.parametrize("kappa", [-1, 2])
    @pytest.mark.parametrize("kind", ["rational", "log"])
    @pytest.mark.parametrize("Z", [1, 40, 120])
    def test_spectrum_passes(self, Z, kind, kappa):
        report = run_command("spectrum", parse_config(
            overrides=[f"params.Z={Z}", "grid.scheme=galerkin", f"grid.kind={kind}",
                       f"channel.kappa={kappa}"]))
        assert report.ok, [c for c in report.checks if not c["ok"]]


class TestScalingLimitChannels:
    @pytest.mark.parametrize("kappa", [-1, 1, -2, 2, -3, 3])
    def test_every_channel_passes(self, kappa):
        # the default profile p^l e^{-p^2/2} transforms to r^l e^{-r^2/2} in
        # position space, whose oracle Z <phi, r^-1 phi> is
        # Gamma(l + 1) / Gamma(l + 3/2)
        report = run_command("scaling-limit", parse_config(overrides=[f"channel.kappa={kappa}"]))
        assert report.ok, [c for c in report.checks if not c["ok"]]
        l = ChannelSpec.from_kappa(kappa).l_up
        assert report.results["oracle_coefficient"] == pytest.approx(
            math.gamma(l + 1) / math.gamma(l + 1.5), rel=1e-12)


    @pytest.mark.parametrize("overrides", [
        ["params.c=1e6", "params.m=1e3", "channel.kappa=2"],      # no difference resolved
        ["params.c=1e5", "params.m=1e3", "channel.kappa=1"]])     # one of four
    def test_unresolved_remainder_fails_its_gate(self, overrides):
        # at m c = 1e8 or 1e9 the mixing hardly moves over the family: F/eta is
        # -A to rounding, no exponent is measured, and the last F/eta gives A
        report = run_command("scaling-limit", parse_config(overrides=overrides))
        assert {c["name"]: c["ok"] for c in report.checks} == {
            "leading_coefficient_match": True, "remainder_exponent": False,
            "monotone_divergence": True}
        results = report.results
        assert math.isnan(results["remainder_exponent"])
        d = results["form_values"][-1] / results["eta_values"][-1]
        assert results["leading_coefficient"] == -d


class TestNonrelLimitMass:
    @pytest.mark.parametrize("overrides, m, Z", [
        ([], 1.0, 1.0), (["params.Z=50"], 1.0, 50.0), (["params.m=1e-3"], 1e-3, 1.0),
        (["params.m=1e3"], 1e3, 1.0),
        (["params.Z=10", "params.m=2", "channel.kappa=3"], 2.0, 10.0)])
    def test_gate_scales_with_the_levels(self, overrides, m, Z):
        # the level errors scale with the levels, m Z^2, and the gate with them
        report = run_command("nonrel-limit", parse_config(overrides=overrides))
        assert report.ok, report.checks
        assert report.checks[0]["threshold"] == 1e-4 * m * Z**2


    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_levels_scale_with_the_mass(self, m):
        # the hydrogen levels of p^2/2m - Z/|y| are -m Z^2 / (2 n^2)
        report = run_command("nonrel-limit", parse_config(overrides=[f"params.m={m}"]))
        assert report.ok, [c for c in report.checks if not c["ok"]]
        Z = report.results["Z"]
        assert report.results["exact"] == [-m * Z**2 / (2.0 * n**2)
                                           for n in report.results["levels"]]


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
        ("dtn-check", "checks.boundary_samples=3"),      # not a key: no sampling
        ("nonrel-limit", "channel.kappa=4"),
        ("nonrel-limit", "channel.kappa=-5"),
        ("dtn-check", "seed=-1"),
        ("scaling-limit", "experiments.eta_values=[0.4]"),
        ("commutator-decay", "experiments.R_values=[1e300,1e301]"),
        # a list repeats no value: a repeated eta or R ran into false FAILs,
        # a NaN leading coefficient or a norm ratio of exactly 1
        ("scaling-limit", "experiments.eta_values=[0.4,0.2,0.1,0.1]"),
        ("commutator-decay", "experiments.R_values=[2,4,4,8]"),
        ("critical-scan", "experiments.Z_values=[0.5,0.5]"),
        ("critical-scan", "experiments.grid_sizes=[32,48,48]"),
        ("spectrum", 'output.formats=["json","json"]'),
    ])
    def test_invalid_input_exit_code(self, command, override, tmp_path, capsys):
        code = main(sum((["--set", kv] for kv in FAST), [command])
                    + ["--set", override, "--set", "output.directory=" + str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_unconverged_scan_exit_code(self, tmp_path, capsys, monkeypatch):
        # a ground level that misses its residual target within the step
        # budget is a NumericalError, reported like bad input
        monkeypatch.setattr(experiments, "MAX_STEPS", 2)
        code = main(["critical-scan", "--set", "experiments.grid_sizes=[32,48]",
                     "--set", "output.directory=" + str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "did not reach" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", ["rational", "log"])
    def test_disagreeing_gauss_orders_exit_code(self, kind, tmp_path, capsys, monkeypatch):
        # two Gauss orders that disagree are a NumericalError, reported like
        # bad input, on either grid kind; no other quadrature takes over
        real = assemble._row_sums
        monkeypatch.setattr(assemble, "_row_sums", lambda terms, grid, order: real(
            terms, grid, order) * (1.0 + 1e-6 * (order == assemble._ORDERS[0])))
        code = main(sum((["--set", kv] for kv in FAST + [f"grid.kind={kind}"]), ["spectrum"])
                    + ["--set", "output.directory=" + str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Gauss orders" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("ignore:Z = .* lies outside the subordinacy window")
    @pytest.mark.parametrize("kind", ["rational", "log"])
    @pytest.mark.parametrize("kappa", [-3, 3])
    def test_assembly_range_corners(self, kind, kappa):
        # at the config range's corners the smallest grid assembles: the two
        # Gauss orders agree at every row, so nothing raises
        for s, c, m in itertools.product((1e-6, 1e6), (1, 1e6), (1e-3, 1e3)):
            run_command("spectrum", parse_config(overrides=[
                f"grid.kind={kind}", "grid.n=16", f"grid.s={s}", f"params.c={c}",
                f"params.m={m}", "params.Z=1000", f"channel.kappa={kappa}",
                "solver.route=dense", "solver.k=1"]))

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        code = main(["spectrum", "--config", str(tmp_path / "missing.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    def test_numeric_output_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(sum((["--set", kv] for kv in FAST), ["nonrel-limit"])
                    + ["--set", "output.directory=123"])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "123" / "nonrel_limit_report.json").exists()

    def test_output_directory_is_a_file_exit_code(self, tmp_path, capsys, monkeypatch):
        # refused before the run starts, not after it
        monkeypatch.setattr(cli, "run_command", lambda *args: pytest.fail("the run started"))
        target = tmp_path / "taken"
        target.write_text("")
        code = main(sum((["--set", kv] for kv in FAST), ["nonrel-limit"])
                    + ["--set", f"output.directory={target}"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("override", [
        "params.Z=1e308", "params.c=1e-300", "params.m=1e300", "grid.s=1e300"])
    def test_extreme_values_exit_code(self, override, tmp_path, capsys):
        code = main(["spectrum", "--set", "solver.route=dense", "--set", "grid.n=32",
                     "--set", override, "--set", "output.directory=" + str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    def test_dtn_check_command(self, tmp_path, capsys):
        code = main(["dtn-check", "--set", "params.c=1", "--set", "params.m=1",
                     "--set", "grid.n=100", "--set", "grid.s=1",
                     "--set", "output.directory=" + str(tmp_path)])
        assert code == 0
        assert "PASS minimality" in capsys.readouterr().out

    @pytest.mark.parametrize("override", [
        "grid.kind=log", "params.c=1", "params.c=1e6", "params.m=1e-3", "params.m=1e3",
        "grid.s=1e-6", "grid.s=1e6", "grid.n=16", "params.Z=120"])
    def test_dtn_check_range_corners(self, override):
        report = run_command("dtn-check", parse_config(overrides=[override]))
        assert report.ok, [c for c in report.checks if not c["ok"]]


# the corners of the physical ranges, on small grids
CORNER_SIZES = ["grid.n=32", "experiments.grid_sizes=[32,48]", "experiments.commutator_n=32",
                "experiments.inequality_n=64", "solver.route=dense"]


@pytest.mark.filterwarnings("ignore:Z = .* lies outside:UserWarning")
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kappa, c, m", itertools.product((-1, 2), (1, 1e6), (1e-3, 1e3)))
def test_corner_ends_in_a_report_or_brspec_error(command, kappa, c, m, tmp_path):
    """Checks may fail at a corner, but the run ends in a report, written as
    strict JSON, or in a BrspecError: never in another exception."""
    config = parse_config(overrides=CORNER_SIZES + [f"channel.kappa={kappa}",
                                                    f"params.c={c}", f"params.m={m}"])
    try:
        report = run_command(command, config)
    except BrspecError:
        return
    path, = write_report(report, formats=["json"], destination=tmp_path)
    json.loads(path.read_text(), parse_constant=lambda token: pytest.fail(token))


# every command at a small configuration; spectrum also on the dense route alone
SMALL = FAST + ["experiments.commutator_n=32", "experiments.inequality_n=64",
                "experiments.Z_values=[0.5,2]", "experiments.grid_sizes=[32,48]"]
RUNS = [(command, ()) for command in COMMANDS] + [("spectrum", ("solver.route=dense",))]


@pytest.fixture(scope="module")
def small_reports(tmp_path_factory):
    out = {}
    for command, extra in RUNS:
        report = run_command(command, parse_config(overrides=SMALL + list(extra)))
        paths = write_report(report, formats=["csv"], destination=tmp_path_factory.mktemp("csv"))
        out[command, extra] = report, paths[0].read_text().splitlines()
    return out


class TestCommandTable:
    @pytest.mark.parametrize("command, extra", RUNS)
    def test_verdicts_come_from_the_comparator(self, small_reports, command, extra):
        report, _ = small_reports[command, extra]
        assert report.checks
        for c in report.checks:
            assert c["ok"] is bool(OPS[c["op"]](c["value"], c["threshold"])), c

    @pytest.mark.parametrize("command, extra", RUNS)
    def test_csv_header_is_the_declared_schema(self, small_reports, command, extra):
        _, rows = small_reports[command, extra]
        assert rows[0].split(",") == list(_COMMANDS[command].header)
        assert len(rows) > 1 and all(len(r.split(",")) == len(_COMMANDS[command].header)
                                     for r in rows[1:])

    def test_spectrum_schema_independent_of_route(self, small_reports):
        both = small_reports["spectrum", ()][1]
        dense = small_reports["spectrum", ("solver.route=dense",)][1]
        assert both[0] == dense[0]
        assert dense[1].endswith(",,,")         # the variational cells stay empty
        assert both[1].startswith(dense[1][:-3])

    def test_scan_checks(self, small_reports):
        report, _ = small_reports["critical-scan", ()]
        assert [c["name"] for c in report.checks] == [
            "Z=0.5_stable", "Z=0.5_positive", "Z=0.5_no_collapse", "Z=2_collapsed"]

    @pytest.mark.parametrize("kappa", [-3, -2, 2, 3])
    def test_scan_splits_at_the_channel_critical_charge(self, kappa):
        # Z = 120 and 130 lie below Z_c = 266 (|kappa| = 2) and 406 (|kappa| = 3):
        # every row is held to the subcritical gates, and passes them
        config = parse_config(overrides=[f"channel.kappa={kappa}"])
        report = run_command("critical-scan", config)
        assert report.results["critical_charge"] == critical_charge(PhysParams(), kappa)
        assert [c["name"] for c in report.checks] == [
            f"Z={Z}_{gate}" for Z in (120, 130) for gate in ("stable", "positive", "no_collapse")]
        assert report.ok, [c for c in report.checks if not c["ok"]]

    @pytest.mark.parametrize("kappa", [-1, 2])
    def test_scan_rows_give_the_charge_in_units_of_critical(self, kappa):
        config = parse_config(overrides=[f"channel.kappa={kappa}", "experiments.Z_values=[60,130]",
                                         "experiments.grid_sizes=[32,48]"])
        report = run_command("critical-scan", config)
        z_c = critical_charge(PhysParams(), kappa)
        assert [row["Z_over_Zc"] for row in report.results["rows"]] == [60 / z_c, 130 / z_c]

    def test_r_values_in_any_order(self):
        # the CLI accepts any list of distinct R values; descending or
        # ascending, the run is the same, and reports them ascending
        runs = [run_command("commutator-decay", parse_config(overrides=[
            "experiments.commutator_n=32", f"experiments.R_values={values}"]))
            for values in ("[64,32,16,8,4,2]", "[2,4,8,16,32,64]")]
        assert runs[0].results == runs[1].results
        assert runs[0].results["R_values"] == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]

    def test_norms_not_decreasing_fails(self, monkeypatch):
        fake = {"R_values": [2.0, 4.0, 8.0, 16.0], "norms": [1.0, 0.5, 0.6, 0.2],
                "fitted_slope": -1.0, "fit_residual": 0.05}
        monkeypatch.setattr(cli, "commutator_decay", lambda *args, **kwargs: fake)
        report = run_command("commutator-decay", parse_config(overrides=FAST))
        check = next(c for c in report.checks if c["name"] == "norms_decreasing")
        assert not check["ok"] and check["value"] >= 1
        assert not report.ok
