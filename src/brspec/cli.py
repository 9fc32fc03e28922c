"""Command-line entry point: configuration, run orchestration, persistence.

Configuration is a JSON file plus flat ``--set key=value`` dot-path
overrides; every command produces a RunReport that echoes the exact
configuration, carries a deterministic content hash, and serializes
losslessly to JSON (plus flat CSV tables for external plotting).
Exit status is nonzero whenever any check embedded in the run fails.
"""

import argparse
import copy
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .channels import MAX_CHANNEL, ChannelSpec
from .errors import BrspecError, ConfigurationError
from .extension import (default_x_grid, dirichlet_energy, dtn_apply,
                        dtn_finite_difference, extend, exponential_field,
                        minimality_check, random_boundary, trace_inequality_margin,
                        zero_trace_bump)
from .assemble import assemble_operator
from .experiments import (commutator_decay, critical_coupling_scan, hardy_check,
                          kato_check, scaling_limit, tix_check)
from .grids import build_grid, build_log_grid
from .params import (HARDY_CONSTANT, KATO_CONSTANT, SPEED_OF_LIGHT, TIX_CONSTANT,
                     PhysParams)
from .spectra import (binding_grid, dense_spectrum, nonrel_spectrum,
                      variational_spectrum)

COMMANDS = ("spectrum", "dtn-check", "inequalities", "commutator-decay",
            "scaling-limit", "critical-scan", "nonrel-limit")

_DEFAULT_CONFIG = {
    "params": {"c": SPEED_OF_LIGHT, "m": 1.0, "Z": 1.0},
    "channel": {"kappa": -1},
    "grid": {"n": 200, "s": None, "scheme": "nystrom", "kind": "rational"},
    "solver": {"route": "both", "k": 4, "tol": 1e-10, "max_iter": 2000},
    "experiments": {
        "R_values": [2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
        "eta_values": [0.4, 0.2, 0.1, 0.05, 0.025],
        "Z_values": [120.0, 130.0],
        "grid_sizes": [100, 200, 400],
        "commutator_n": 160,
        "inequality_n": 300,
    },
    "checks": {"boundary_samples": 20, "perturbation_samples": 50,
               "trace_samples": 50},
    "seed": 12345,
    "output": {"directory": ".", "formats": ["json"]},
}


def _finite_numbers(values):
    try:
        return all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
                   for x in values)
    except OverflowError:                                         # an integer beyond 1e308
        return False


def _within(name, lo, hi):
    """Validator of a number in [lo, hi]; huge integers and non-finite values fail."""
    return lambda v: (_finite_numbers([v]) and lo <= v <= hi
                      or f"{name} >= {lo:g} and {name} <= {hi:g}")


def _all_within(lo, hi, integral=False):
    """Validator of a non-empty list of numbers in [lo, hi]."""
    return lambda v: (len(v) > 0 and _finite_numbers(v) and all(lo <= x <= hi for x in v)
                      and (not integral or all(x == int(x) for x in v))
                      or f"needs at least one {'integer ' if integral else ''}value, "
                         f"all in [{lo:g}, {hi:g}]")


# Stated ranges of the numeric keys.  Sizes stop where one dense matrix
# passes 128 MB (the commutator acts on two channel copies, 2n x 2n); the
# physical scales keep m c^2, Z and the grid windows far inside
# floating-point range.  Inside them every command runs
# to a report (checks may fail at the extremes); outside, parse_config
# raises ConfigurationError.
MAX_GRID_N = 4096
MAX_CHARGE = 1e3
MAX_LEVELS = 64

_VALIDATORS = {
    ("grid", "n"): _within("n", 16, MAX_GRID_N),
    ("grid", "s"): lambda v: (_finite_numbers([v]) and 1e-6 <= v <= 1e6
                              or "s must be null or a number in [1e-6, 1e6]"),
    ("grid", "scheme"): lambda v: v in ("nystrom", "galerkin") or "scheme must be nystrom|galerkin",
    ("grid", "kind"): lambda v: v in ("rational", "log") or "kind must be rational|log",
    ("solver", "route"): lambda v: v in ("dense", "variational", "both") or "route must be dense|variational|both",
    ("solver", "k"): _within("k", 1, MAX_LEVELS),
    ("solver", "tol"): lambda v: v > 0 or "tol > 0",
    ("solver", "max_iter"): lambda v: v >= 1 or "max_iter >= 1",
    ("channel", "kappa"): lambda v: 1 <= abs(v) <= MAX_CHANNEL or f"1 <= |kappa| <= {MAX_CHANNEL}",
    ("params", "c"): _within("c", 1.0, 1e6),
    ("params", "m"): _within("m", 1e-3, 1e3),
    ("params", "Z"): _within("Z", 0.0, MAX_CHARGE),
    **{("experiments", key): lambda v: (len(v) > 0 and _finite_numbers(v)
                                        or "needs at least one value, all finite numbers")
       for key in ("R_values", "eta_values")},
    ("experiments", "Z_values"): _all_within(0.0, MAX_CHARGE),
    # the exhaustion drop compares the smallest and the largest size, so a
    # single size could never show a collapse
    ("experiments", "grid_sizes"): lambda v: (
        _all_within(16, MAX_GRID_N, integral=True)(v) is True and len({int(x) for x in v}) >= 2
        or f"needs at least two distinct integer sizes, all in [16, {MAX_GRID_N}]"),
    ("experiments", "commutator_n"): _within("commutator_n", 16, MAX_GRID_N // 2),
    ("experiments", "inequality_n"): _within("inequality_n", 16, MAX_GRID_N),
    **{("checks", key): lambda v: v >= 1 or "needs at least one sample"
       for key in ("boundary_samples", "perturbation_samples", "trace_samples")},
    ("output", "formats"): lambda v: (all(f in ("json", "csv") for f in v)
                                      or "formats must be drawn from json|csv"),
}


def _coerce(default, value, key):
    if default is None:
        return value
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        raise ConfigurationError(f"key {key}: expected a boolean, got {value!r}")
    if isinstance(default, (int, float)) and isinstance(value, bool):
        raise ConfigurationError(f"key {key}: expected a number, got {value!r}")
    if isinstance(default, int) and isinstance(value, (int, float)):
        if isinstance(value, float) and not value.is_integer():   # also NaN and inf
            raise ConfigurationError(f"key {key}: expected an integer, got {value!r}")
        return int(value)
    if isinstance(default, float) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:                                     # an integer beyond 1e308
            raise ConfigurationError(f"key {key}: expected a finite number") from None
    if isinstance(default, str) and isinstance(value, str):
        return value
    if isinstance(default, list) and isinstance(value, list):
        return value
    raise ConfigurationError(f"key {key}: expected {type(default).__name__}, got {value!r}")


def _merge(config, incoming, prefix=""):
    for key, value in incoming.items():
        path = f"{prefix}{key}"
        if key not in config:
            raise ConfigurationError(f"unknown configuration key {path!r}")
        if isinstance(config[key], dict):
            if not isinstance(value, dict):
                raise ConfigurationError(f"key {path!r} expects a table")
            _merge(config[key], value, prefix=f"{path}.")
        else:
            config[key] = _coerce(config[key], value, path)


def _apply_override(config, assignment):
    if "=" not in assignment:
        raise ConfigurationError(f"override {assignment!r} is not key=value")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigurationError(f"unknown configuration key {key!r}")
        node = node[part]
    leaf = parts[-1]
    # allow bare leaf names that are unambiguous, e.g. --set Z=2
    if leaf not in node:
        hits = [(sect, tbl) for sect, tbl in config.items()
                if isinstance(tbl, dict) and leaf in tbl]
        if node is config and len(hits) == 1:
            node = hits[0][1]
        else:
            raise ConfigurationError(f"unknown configuration key {key!r}")
    node[leaf] = _coerce(node[leaf], value, key)


def _validate(config):
    for (section, key), check in _VALIDATORS.items():
        value = config[section][key]
        if value is None:
            continue
        verdict = check(value)
        if verdict is not True:
            raise ConfigurationError(f"configuration key {section}.{key}: {verdict}")


def parse_config(path=None, overrides=()):
    """Validated configuration: defaults <- file <- overrides."""
    config = copy.deepcopy(_DEFAULT_CONFIG)
    if path is not None:
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path}: invalid JSON ({exc})")
        if not isinstance(data, dict):
            raise ConfigurationError(f"config file {path}: top level must be an object")
        _merge(config, data)
    for assignment in overrides:
        _apply_override(config, assignment)
    _validate(config)
    return config


def _params(config):
    p = config["params"]
    return PhysParams(c=p["c"], m=p["m"], Z=p["Z"])


def _spectrum_grid(config, params):
    g = config["grid"]
    if g["kind"] == "log":
        return binding_grid(max(params.Z, 1.0), params, n=g["n"])
    s = g["s"]
    if s is None:
        s = params.Z if params.Z >= 1 else 1.0
    return build_grid(g["n"], s)


def _check(name, value, threshold, ok):
    return {"name": name, "value": value, "threshold": threshold, "ok": bool(ok)}


# ---------------------------------------------------------------------------
# command implementations: each returns (payload, checks)


def _run_spectrum(config):
    params = _params(config)
    channel = ChannelSpec.from_kappa(config["channel"]["kappa"])
    grid = _spectrum_grid(config, params)
    op = assemble_operator(grid, channel, params, scheme=config["grid"]["scheme"])
    route = config["solver"]["route"]
    k = min(config["solver"]["k"], op.n)
    payload = {"mc2": params.mc2}
    checks = []
    dense = var = None
    if route in ("dense", "both"):
        dense = dense_spectrum(op, k)
        payload["dense"] = {
            "eigenvalues": dense.eigenvalues.tolist(),
            "bindings": dense.binding_energies().tolist(),
            "residuals": dense.residuals.tolist(),
            "bound_flags": dense.bound_flags().tolist(),
        }
        checks.append(_check("dense_residuals_small", float(dense.residuals.max()),
                             1e-7 * params.mc2, dense.residuals.max() < 1e-7 * params.mc2))
    if route in ("variational", "both"):
        var = variational_spectrum(op, k, tol=config["solver"]["tol"],
                                   max_iter=config["solver"]["max_iter"])
        payload["variational"] = {
            "eigenvalues": var.eigenvalues.tolist(),
            "bindings": var.binding_energies().tolist(),
            "residuals": var.residuals.tolist(),
        }
        checks.append(_check("variational_residuals_small", float(var.residuals.max()),
                             1e-7 * params.mc2, var.residuals.max() < 1e-7 * params.mc2))
    if dense is not None and var is not None:
        gap = float(np.abs(dense.eigenvalues - var.eigenvalues).max())
        checks.append(_check("route_equivalence", gap, 1e-8 * params.mc2,
                             gap < 1e-8 * params.mc2))
    ref = dense if dense is not None else var
    bound = ref.eigenvalues[ref.bound_flags()]
    if params.Z > 0 and params.in_subordinacy_window():
        checks.append(_check("bound_states_in_gap",
                             float(bound.min()) if bound.size else params.mc2,
                             0.0, bool(np.all(bound > 0)) if bound.size else True))
    payload["grid"] = ref.grid_meta
    return payload, checks


def _run_dtn_check(config):
    params = _params(config)
    rng = np.random.default_rng(config["seed"])
    grid = _spectrum_grid(config, params)
    xg = default_x_grid(params)
    nb = config["checks"]["boundary_samples"]
    npert = config["checks"]["perturbation_samples"]
    ntr = config["checks"]["trace_samples"]

    energy_err = []
    dtn_err = []
    for _ in range(nb):
        u = random_boundary(grid, rng)
        fld = extend(u, xg, params)
        e_mom = dirichlet_energy(u, "momentum", params).value
        e_x = dirichlet_energy(fld, "x_quadrature", params).value
        energy_err.append(abs(e_mom - e_x) / e_mom)
        exact = dtn_apply(u, params)
        fd = dtn_finite_difference(u, params)
        floor = 1e-30 * np.abs(exact.values).max()
        dtn_err.append(float(np.max(np.abs(fd.values - exact.values)
                                    / np.maximum(np.abs(exact.values), floor))))

    min_viol = []
    for _ in range(npert):
        u = random_boundary(grid, rng)
        bump = zero_trace_bump(grid, xg, params, random_boundary(grid, rng).values,
                               rate=params.mc2 * rng.uniform(0.5, 2.0))
        e0, e1 = minimality_check(u, bump, rng.uniform(0.02, 0.5), params)
        min_viol.append((e0 - e1) / e0)

    margins = []
    for _ in range(ntr):
        u = random_boundary(grid, rng)
        rates = params.mc2 * rng.uniform(0.5, 4.0, size=grid.n)
        res = trace_inequality_margin(exponential_field(u, rates, xg), params)
        margins.append(res.margin / res.scale)
    u = random_boundary(grid, rng)
    eq = trace_inequality_margin(
        exponential_field(u, np.full(grid.n, params.mc2), xg), params)

    payload = {
        "energy_relative_error_max": max(energy_err),
        "dtn_richardson_error_max": max(dtn_err),
        "minimality_violation_max": max(min_viol),
        "trace_margin_min": min(margins),
        "trace_equality_margin": eq.margin / eq.scale,
        "samples": {"boundary": nb, "perturbations": npert, "trace": ntr},
    }
    checks = [
        _check("energy_route_agreement", max(energy_err), 1e-7, max(energy_err) < 1e-7),
        _check("dtn_richardson", max(dtn_err), 1e-8, max(dtn_err) < 1e-8),
        _check("minimality", max(min_viol), 1e-10, max(min_viol) < 1e-10),
        _check("trace_margin", min(margins), -1e-10, min(margins) >= -1e-10),
        _check("trace_equality_case", abs(eq.margin / eq.scale), 1e-10,
               abs(eq.margin / eq.scale) < 1e-10),
    ]
    return payload, checks


def _run_inequalities(config):
    params = _params(config)
    n = config["experiments"]["inequality_n"]
    reports = [hardy_check(params=params),
               kato_check(params=params, n=n),
               tix_check(params=params, n=n)]
    payload = {"reports": [
        {"name": r.inequality_name, "trial_family": r.trial_family_description,
         "max_ratio": r.max_ratio, "constant": r.theoretical_constant,
         "margin": r.margin, "samples": r.sample_count, "ratios": list(r.ratios)}
        for r in reports]}
    checks = [_check(f"{r.inequality_name}_bounded", r.max_ratio,
                     r.theoretical_constant, r.satisfied) for r in reports]
    return payload, checks


def _run_commutator(config):
    params = _params(config)
    exp = config["experiments"]
    grid = build_log_grid(exp["commutator_n"], 1e-4, 1e3)
    rep = commutator_decay(exp["R_values"], grid=grid,
                           kappa=config["channel"]["kappa"], params=params)
    payload = {"R_values": rep.R_values, "norms": rep.norms,
               "fitted_slope": rep.fitted_slope, "fit_residual": rep.fit_residual}
    checks = [
        _check("slope_in_window", rep.fitted_slope, [-1.15, -0.85],
               -1.15 <= rep.fitted_slope <= -0.85),
        _check("fit_residual", rep.fit_residual, 0.1, rep.fit_residual < 0.1),
        _check("norms_decreasing", rep.norms[-1], rep.norms[0],
               all(a > b for a, b in zip(rep.norms, rep.norms[1:]))),
    ]
    return payload, checks


def _run_scaling(config):
    params = _params(config)
    rep = scaling_limit(config["experiments"]["eta_values"],
                        kappa=config["channel"]["kappa"], params=params)
    payload = {"eta_values": rep.eta_values, "form_values": rep.form_values,
               "leading_coefficient": rep.leading_coefficient,
               "oracle_coefficient": rep.oracle_coefficient,
               "remainder_exponent": rep.remainder_exponent,
               "monotone_divergence": rep.monotone_divergence}
    rel = abs(rep.leading_coefficient - rep.oracle_coefficient) / rep.oracle_coefficient
    checks = [
        _check("leading_coefficient_match", rel, 0.02, rel < 0.02),
        _check("remainder_exponent", rep.remainder_exponent, 1.7,
               rep.remainder_exponent >= 1.7),
        _check("monotone_divergence", rep.monotone_divergence, True,
               rep.monotone_divergence),
    ]
    return payload, checks


def _run_critical_scan(config):
    params = _params(config)
    exp = config["experiments"]
    rep = critical_coupling_scan(exp["Z_values"], grid_sizes=exp["grid_sizes"],
                                 kappa=config["channel"]["kappa"], params=params)
    payload = {"stability_tol": rep.stability_tol, "collapse_drop": rep.collapse_drop,
               "critical_charge": params.critical_charge,
               "rows": [{"Z": r.Z, "grid_sizes": r.grid_sizes,
                         "lambda1_fixed": r.lambda1_fixed,
                         "lambda1_exhaustion": r.lambda1_exhaustion,
                         "variation_fixed": r.variation_fixed,
                         "exhaustion_drop": r.exhaustion_drop,
                         "stable": r.stable, "collapsed": r.collapsed}
                        for r in rep.rows]}
    checks = []
    for r in rep.rows:
        if r.Z < params.critical_charge:
            checks.append(_check(f"Z={r.Z:g}_stable", r.variation_fixed,
                                 rep.stability_tol, r.stable and not r.collapsed))
        else:
            checks.append(_check(f"Z={r.Z:g}_collapsed", r.exhaustion_drop,
                                 rep.collapse_drop, r.collapsed))
    return payload, checks


def _run_nonrel(config):
    params = _params(config)
    n = max(config["grid"]["n"], 300)
    Z = params.Z if params.Z > 0 else 1.0
    l = ChannelSpec.from_kappa(config["channel"]["kappa"]).l_up
    grid = build_grid(n, max(Z, 1.0))
    k = config["solver"]["k"]
    vals = nonrel_spectrum(grid, Z, l, k, params)
    exact = [-Z**2 / (2.0 * (l + 1 + j) ** 2) for j in range(k)]
    errors = [abs(v - e) for v, e in zip(vals, exact)]
    payload = {"Z": Z, "l": l, "levels": list(range(l + 1, l + 1 + k)),
               "computed": vals.tolist(), "exact": exact, "errors": errors}
    checks = [_check("hydrogen_levels", max(errors), 1e-4, max(errors) < 1e-4)]
    return payload, checks


_RUNNERS = {
    "spectrum": _run_spectrum,
    "dtn-check": _run_dtn_check,
    "inequalities": _run_inequalities,
    "commutator-decay": _run_commutator,
    "scaling-limit": _run_scaling,
    "critical-scan": _run_critical_scan,
    "nonrel-limit": _run_nonrel,
}

_CONSTANT_TABLE = {
    "hardy": HARDY_CONSTANT,
    "kato": KATO_CONSTANT,
    "tix": TIX_CONSTANT,
}


@dataclass
class RunReport:
    command: str
    config: dict
    results: dict
    checks: list
    constants: dict
    version: str
    ok: bool
    input_hash: str
    report_hash: str
    timings: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha(obj):
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def run_command(command, config) -> RunReport:
    """Execute one command; deterministic report for a fixed configuration."""
    if command not in _RUNNERS:
        raise ConfigurationError(
            f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    t0 = time.perf_counter()
    payload, checks = _RUNNERS[command](config)
    elapsed = time.perf_counter() - t0
    params = _params(config)
    constants = dict(_CONSTANT_TABLE, critical_charge=params.critical_charge)
    core = {"command": command, "config": config, "version": __version__}
    report = RunReport(
        command=command, config=config, results=payload, checks=checks,
        constants=constants, version=__version__,
        ok=all(c["ok"] for c in checks),
        input_hash=_sha(core),
        report_hash=_sha({**core, "results": payload, "checks": checks}),
        timings={"seconds": elapsed})
    return report


# ---------------------------------------------------------------------------
# persistence


def _g17(x):
    return format(float(x), ".17g")


def _csv_rows(report):
    r = report.results
    cmd = report.command
    if cmd == "spectrum":
        routes = [k for k in ("dense", "variational") if k in r]
        head = ["k"] + [f"{route}_{col}" for route in routes
                        for col in ("eigenvalue", "binding", "residual")]
        rows = []
        nk = len(r[routes[0]]["eigenvalues"])
        for i in range(nk):
            row = [str(i + 1)]
            for route in routes:
                row += [_g17(r[route]["eigenvalues"][i]), _g17(r[route]["bindings"][i]),
                        _g17(r[route]["residuals"][i])]
            rows.append(row)
        return head, rows
    if cmd == "commutator-decay":
        return ["R", "norm"], [[_g17(R), _g17(v)]
                               for R, v in zip(r["R_values"], r["norms"])]
    if cmd == "scaling-limit":
        return ["eta", "form_value"], [[_g17(e), _g17(v)]
                                       for e, v in zip(r["eta_values"], r["form_values"])]
    if cmd == "critical-scan":
        head = ["Z", "n", "lambda1_fixed", "lambda1_exhaustion"]
        rows = []
        for row in r["rows"]:
            for n, lf, le in zip(row["grid_sizes"], row["lambda1_fixed"],
                                 row["lambda1_exhaustion"]):
                rows.append([_g17(row["Z"]), str(n), _g17(lf), _g17(le)])
        return head, rows
    if cmd == "inequalities":
        return (["name", "max_ratio", "constant", "margin"],
                [[q["name"], _g17(q["max_ratio"]), _g17(q["constant"]),
                  _g17(q["margin"])] for q in r["reports"]])
    if cmd == "nonrel-limit":
        return (["level", "computed", "exact", "error"],
                [[str(n), _g17(c), _g17(e), _g17(err)] for n, c, e, err in
                 zip(r["levels"], r["computed"], r["exact"], r["errors"])])
    # dtn-check and anything else: flatten the checks
    return (["check", "value", "ok"],
            [[c["name"], _g17(c["value"]) if isinstance(c["value"], (int, float))
              else str(c["value"]), str(c["ok"])] for c in report.checks])


def write_report(report: RunReport, formats=None, destination="."):
    """Persist a report; JSON is complete, CSV holds the flat tables."""
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)
    formats = report.config["output"]["formats"] if formats is None else formats
    written = []
    stem = report.command.replace("-", "_")
    if "json" in formats:
        path = dest / f"{stem}_report.json"
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        written.append(path)
    if "csv" in formats:
        head, rows = _csv_rows(report)
        path = dest / f"{stem}_table.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(head)
            writer.writerows(rows)
        written.append(path)
    return written


def read_report(path) -> RunReport:
    """Inverse of write_report's JSON output."""
    data = json.loads(Path(path).read_text())
    return RunReport(**data)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="brspec",
        description="Spectral solver and verification suite for the "
                    "Brown-Ravenhall operator of a one-electron atom.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="JSON configuration file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dot-path configuration override")
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config, args.overrides)
        report = run_command(args.command, config)
    except BrspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    written = write_report(report, destination=config["output"]["directory"])
    for c in report.checks:
        status = "PASS" if c["ok"] else "FAIL"
        print(f"{status} {c['name']}: value={c['value']} threshold={c['threshold']}")
    for path in written:
        print(f"wrote {path}")
    print(f"{report.command}: {'ok' if report.ok else 'CHECKS FAILED'} "
          f"({report.timings['seconds']:.1f}s)  report_hash={report.report_hash[:16]}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
