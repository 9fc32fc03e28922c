"""Command-line entry point: configuration, run orchestration, persistence.

Configuration is the defaults, then a JSON file, then ``--set key=value``
overrides; an override is read as the one-key table {"a": {"b": value}}
and merged exactly like the file, and every key has one declared rule, a
range or a choice.  Each command is declared once, in ``_COMMANDS``, with
its runner and its CSV schema.  A check carries a comparator and a
threshold, and its verdict is ``value op threshold``.  Every command
produces a RunReport that echoes the exact configuration, carries a
deterministic content hash, and serializes losslessly to JSON (plus a
flat CSV table for external plotting).  Exit status is 1 when a check
fails and 2 on bad input.
"""

import argparse
import copy
import csv
import hashlib
import json
import math
import operator
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import __version__
from .channels import KATO_CONSTANT, MAX_CHANNEL, TIX_CONSTANT, ChannelSpec, critical_charge
from .errors import BrspecError, ConfigurationError
from .extension import default_x_grid, dtn_certificate
from .assemble import assemble_operator
from .experiments import (commutator_decay, critical_coupling_scan, hardy_check, kato_check,
                          scaling_limit, tix_check)
from .grids import build_grid
from .params import HARDY_CONSTANT, SPEED_OF_LIGHT, PhysParams
from .spectra import binding_grid, dense_spectrum, nonrel_spectrum, variational_spectrum

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
    # read by no command (dtn-check bounds every trace, it draws none);
    # accepted so that configurations and benchmark steps that set it still run
    "seed": 12345,
    "output": {"directory": ".", "formats": ["json"]},
}


# Stated ranges.  Sizes stop where one dense matrix passes 128 MB (the
# commutator acts on two channel copies, 2n x 2n); the physical scales
# keep m c^2, Z and the grid windows far inside floating-point range; the
# iteration counts bound the length of a run.  Inside them every
# command runs to a report (checks may fail at the extremes); outside,
# parse_config raises ConfigurationError.
MAX_GRID_N = 4096
MAX_CHARGE = 1e3
MAX_LEVELS = 64


class _Range(NamedTuple):
    """Numbers in [lo, hi]; a list needs ``least`` elements, each in range."""
    lo: float
    hi: float
    least: int = 1
    integral: bool = False

    def accepts(self, x):
        # integers compare exactly at any size; floats must be finite
        return ((isinstance(x, int) and not isinstance(x, bool)
                 or isinstance(x, float) and math.isfinite(x)
                 and (x.is_integer() or not self.integral))
                and self.lo <= x <= self.hi)

    def __str__(self):
        return f">= {self.lo:g} and <= {self.hi:g}"


class _Choice(tuple):
    """One of the options; a list may hold each of them once."""
    least = 0
    accepts = tuple.__contains__

    def __str__(self):
        return "one of " + "|".join(map(str, self))


# one rule per key; output.directory is any path, made before the run
_RULES = {
    "params.c": _Range(1.0, 1e6),
    "params.m": _Range(1e-3, 1e3),
    "params.Z": _Range(0.0, MAX_CHARGE),
    "channel.kappa": _Choice(tuple(k for k in range(-MAX_CHANNEL, MAX_CHANNEL + 1) if k)),
    "grid.n": _Range(16, MAX_GRID_N),
    "grid.s": _Range(1e-6, 1e6),                  # or null: the charge scale
    "grid.scheme": _Choice(("nystrom", "galerkin")),
    "grid.kind": _Choice(("rational", "log")),
    "solver.route": _Choice(("dense", "variational", "both")),
    "solver.k": _Range(1, MAX_LEVELS),
    "solver.tol": _Range(1e-14, 0.1),
    "solver.max_iter": _Range(1, 10_000),
    # the fits need two points: the decay rate two norms, the remainder
    # exponent two successive differences, the exhaustion drop two sizes
    "experiments.R_values": _Range(1e-6, 1e6, least=2),
    "experiments.eta_values": _Range(1e-6, 0.5, least=3),
    "experiments.Z_values": _Range(0.0, MAX_CHARGE),
    "experiments.grid_sizes": _Range(16, MAX_GRID_N, least=2, integral=True),
    "experiments.commutator_n": _Range(16, MAX_GRID_N // 2),
    "experiments.inequality_n": _Range(16, MAX_GRID_N),
    "seed": _Range(0, math.inf),
    "output.formats": _Choice(("json", "csv")),
}


def _get(config, key):
    for part in key.split("."):
        config = config[part]
    return config


def _coerce(default, value, key):
    """``value`` as the type of the key's default (null: any value, for its rule)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if default is None or isinstance(default, (str, list)) and type(value) is type(default):
        return value
    if isinstance(default, int) and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if isinstance(default, float) and number and abs(value) <= sys.float_info.max:
        return float(value)
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


def _override(assignment):
    """``a.b=v`` as the table {"a": {"b": v}}; v is read as JSON when it
    parses, and a string key keeps the text itself unless it is a JSON string."""
    key, eq, raw = assignment.partition("=")
    if not eq:
        raise ConfigurationError(f"override {assignment!r} is not key=value")
    parts = key.split(".")
    # a bare leaf name is accepted when one section alone has it, e.g. Z=2
    owners = [section for section, table in _DEFAULT_CONFIG.items()
              if isinstance(table, dict) and key in table]
    if key not in _DEFAULT_CONFIG and len(owners) == 1:
        parts = owners + parts
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    try:
        default = _get(_DEFAULT_CONFIG, ".".join(parts))
    except (KeyError, TypeError):                           # unknown: _merge names it
        default = None
    if isinstance(default, str) and not isinstance(value, str):
        value = raw                                         # a directory named 123
    for part in reversed(parts):
        value = {part: value}
    return value


def _validate(config):
    for key, rule in _RULES.items():
        value = _get(config, key)
        if value is None:                                   # only grid.s defaults to null
            continue
        many = isinstance(_get(_DEFAULT_CONFIG, key), list)
        items = value if many else [value]
        # a repeated value breaks the fits: a zero difference of the scaling
        # forms, a norm ratio of exactly 1
        if not (all(map(rule.accepts, items)) and len(set(items)) == len(items) >= rule.least):
            need = (f"needs at least {rule.least} values, all distinct, each" if many
                    else key)
            raise ConfigurationError(f"configuration key {key}: {need} {rule}")


def parse_config(path=None, overrides=()):
    """Validated configuration: defaults <- file <- overrides, merged alike."""
    config = copy.deepcopy(_DEFAULT_CONFIG)
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:                # unreadable, or not JSON
            raise ConfigurationError(f"config file {path}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError(f"config file {path}: top level must be an object")
        _merge(config, data)
    for assignment in overrides:
        _merge(config, _override(assignment))
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


# a check's verdict is ``value op threshold``; "in" is a closed interval
OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
       "==": operator.eq, "in": lambda value, window: window[0] <= value <= window[1]}


def _check(name, value, op, threshold):
    return {"name": name, "value": value, "op": op, "threshold": threshold,
            "ok": bool(OPS[op](value, threshold))}


# ---------------------------------------------------------------------------
# command implementations: each returns (payload, checks, diagnostics); the
# diagnostics describe how the numerics behaved and stay out of report_hash

_ROUTES = ("dense", "variational")

# The residual gates take the accuracy asked of either route, 1e-7 mc^2, but
# never less than RESIDUAL_ROUNDING times the operator's scale max |A_ii|
# (lambda(p_max) plus the potential's diagonal): an eigenpair rounded to
# doubles leaves a residual of about eps ||A||, and converged ``eigh`` pairs
# were measured at 0.5-2.5 eps max |A_ii| on n = 32 to 1600 grids.
RESIDUAL_ROUNDING = 1e3 * np.finfo(float).eps


def _run_spectrum(config):
    params = _params(config)
    channel = ChannelSpec.from_kappa(config["channel"]["kappa"])
    grid = _spectrum_grid(config, params)
    op = assemble_operator(grid, channel, params, scheme=config["grid"]["scheme"])
    solver = config["solver"]
    k = min(solver["k"], op.n)
    payload, checks, runs, diagnostics = {"mc2": params.mc2}, [], [], {}
    gate = max(1e-7 * params.mc2, RESIDUAL_ROUNDING * float(np.abs(op.matrix.diagonal()).max()))
    for route in _ROUTES:
        if solver["route"] not in (route, "both"):
            continue
        res = (dense_spectrum(op, k) if route == "dense" else
               variational_spectrum(op, k, tol=solver["tol"], max_iter=solver["max_iter"]))
        payload[route] = {"eigenvalues": res.eigenvalues.tolist(),
                          "bindings": res.binding_energies().tolist(),
                          "residuals": res.residuals.tolist()}
        checks.append(_check(f"{route}_residuals_small", float(res.residuals.max()),
                             "<", gate))
        runs.append(res)
        if res.trace is not None:
            diagnostics[route] = {"block_iterations": len(res.trace.gradient_norms),
                                  "levels": [asdict(r) for r in res.trace.levels]}
    if "dense" in payload:
        payload["dense"]["bound_flags"] = runs[0].bound_flags().tolist()
    if len(runs) == 2:
        gap = float(np.abs(runs[0].eigenvalues - runs[1].eigenvalues).max())
        checks.append(_check("route_equivalence", gap, "<", 1e-8 * params.mc2))
    bound = runs[0].eigenvalues[runs[0].bound_flags()]
    if 0 < params.Z < critical_charge(params, channel.kappa):
        # a positive charge always binds: with no level below the continuum
        # edge the grid has lost the ground state, so the lowest level is
        # compared with that edge, which it fails
        if bound.size:
            checks.append(_check("bound_states_in_gap", float(bound.min()), ">", 0.0))
        else:
            checks.append(_check("bound_states_in_gap", float(runs[0].eigenvalues.min()),
                                 "<", runs[0].edge))
    domain = [float(end) if np.isfinite(end) else "inf" for end in grid.domain]
    payload["grid"] = {"kind": grid.kind, "n": int(grid.n),
                       "mapping_scale": float(grid.mapping_scale), "domain": domain}
    return payload, checks, diagnostics


def _run_dtn_check(config):
    params = _params(config)
    xg = default_x_grid(params)
    payload, tail = dtn_certificate(_spectrum_grid(config, params).nodes, xg, params)
    checks = [
        _check("energy_route_agreement", payload["energy_relative_error_max"], "<", 1e-7),
        _check("dtn_richardson", payload["dtn_richardson_error_max"], "<", 1e-8),
        _check("minimality", payload["minimality_violation_max"], "<", 1e-10),
        _check("trace_margin", payload["trace_margin_min"], ">=", -1e-10),
        _check("trace_equality_case", abs(payload["trace_equality_margin"]), "<", 1e-10),
    ]
    diagnostics = {"x_quadrature": {"nodes": xg.nodes.size, "tail_ratio_max": tail,
                                    "tails_ok": tail <= 1e-12}}
    return payload, checks, diagnostics


def _run_inequalities(config):
    params = _params(config)
    n = config["experiments"]["inequality_n"]
    reports = [hardy_check(),
               kato_check(n=n),
               tix_check(params=params, n=n)]
    payload = {"reports": [
        {"name": r.inequality_name, "trial_family": r.trial_family_description,
         "max_ratio": r.max_ratio, "constant": r.theoretical_constant,
         "margin": r.margin, "samples": r.sample_count, "ratios": list(r.ratios)}
        for r in reports]}
    checks = [_check(f"{r.inequality_name}_bounded", r.max_ratio, "<=", r.bound)
              for r in reports]
    return payload, checks, {}


def _run_commutator(config):
    params = _params(config)
    exp = config["experiments"]
    rep = commutator_decay(exp["R_values"], n=exp["commutator_n"],
                           kappa=config["channel"]["kappa"], params=params)
    payload = {"R_values": rep.R_values, "norms": rep.norms,
               "fitted_slope": rep.fitted_slope, "fit_residual": rep.fit_residual}
    checks = [
        _check("slope_in_window", rep.fitted_slope, "in", [-1.15, -0.85]),
        _check("fit_residual", rep.fit_residual, "<", 0.1),
        _check("norms_decreasing", max(b / a for a, b in zip(rep.norms, rep.norms[1:])),
               "<", 1.0),
    ]
    return payload, checks, {}


def _run_scaling(config):
    params = _params(config)
    rep = scaling_limit(config["experiments"]["eta_values"],
                        kappa=config["channel"]["kappa"], params=params)
    payload = asdict(rep)
    rel = abs(rep.leading_coefficient - rep.oracle_coefficient) / rep.oracle_coefficient
    checks = [
        _check("leading_coefficient_match", rel, "<", 0.02),
        _check("remainder_exponent", rep.remainder_exponent, ">=", 1.7),
        _check("monotone_divergence", rep.monotone_divergence, "==", True),
    ]
    return payload, checks, {}


def _run_critical_scan(config):
    params = _params(config)
    exp = config["experiments"]
    kappa = config["channel"]["kappa"]
    rep = critical_coupling_scan(exp["Z_values"], grid_sizes=exp["grid_sizes"],
                                 kappa=kappa, params=params)
    z_c = critical_charge(params, kappa)
    payload = {"stability_tol": rep.stability_tol, "collapse_drop": rep.collapse_drop,
               "critical_charge": z_c, "rows": [asdict(r) for r in rep.rows]}
    checks = []
    for r in rep.rows:
        if r.Z < z_c:
            # kept boolean: as a number, the drop would read as a headroom of this check
            checks += [_check(f"Z={r.Z:g}_stable", r.variation_fixed, "<", rep.stability_tol),
                       _check(f"Z={r.Z:g}_positive", min(r.lambda1_fixed), ">", 0.0),
                       _check(f"Z={r.Z:g}_no_collapse",
                              r.exhaustion_drop > rep.collapse_drop, "==", False)]
        else:
            checks.append(_check(f"Z={r.Z:g}_collapsed", r.exhaustion_drop, ">",
                                 rep.collapse_drop))
    return payload, checks, {"eigen": rep.eigen}


def _run_nonrel(config):
    params = _params(config)
    n = max(config["grid"]["n"], 300)
    Z = params.Z if params.Z > 0 else 1.0
    l = ChannelSpec.from_kappa(config["channel"]["kappa"]).l_up
    grid = build_grid(n, max(Z, 1.0) * params.m)
    k = config["solver"]["k"]
    vals = nonrel_spectrum(grid, l, k, replace(params, Z=Z))
    exact = [-params.m * Z**2 / (2.0 * (l + 1 + j) ** 2) for j in range(k)]
    errors = [abs(v - e) for v, e in zip(vals, exact)]
    payload = {"Z": Z, "l": l, "levels": list(range(l + 1, l + 1 + k)),
               "computed": vals.tolist(), "exact": exact, "errors": errors}
    checks = [_check("hydrogen_levels", max(errors), "<", 1e-4)]
    return payload, checks, {}


# ---------------------------------------------------------------------------
# the report, and the command table: each command's runner and CSV schema


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
    diagnostics: dict = field(default_factory=dict)     # like timings, not hashed

    def to_dict(self):
        return asdict(self)


class _Command(NamedTuple):
    run: Callable[[dict], tuple]              # config -> (results, checks, diagnostics)
    header: tuple                             # CSV columns, the same for every config
    rows: Callable[[RunReport], Iterable]     # one cell per column; None leaves it empty


def _spectrum_rows(report):
    # a route that did not run leaves its cells empty
    runs = [report.results.get(route) for route in _ROUTES]
    levels = len(next(run for run in runs if run)["eigenvalues"])
    return [[i + 1] + [run[key][i] if run else None for run in runs
                       for key in ("eigenvalues", "bindings", "residuals")]
            for i in range(levels)]


def _columns(*keys):
    return lambda report: zip(*(report.results[key] for key in keys))


_COMMANDS = {
    "spectrum": _Command(
        _run_spectrum,
        ("k",) + tuple(f"{route}_{col}" for route in _ROUTES
                       for col in ("eigenvalue", "binding", "residual")),
        _spectrum_rows),
    "dtn-check": _Command(
        _run_dtn_check, ("check", "value", "ok"),
        lambda report: [(c["name"], c["value"], c["ok"]) for c in report.checks]),
    "inequalities": _Command(
        _run_inequalities, ("name", "max_ratio", "constant", "margin"),
        lambda report: [(q["name"], q["max_ratio"], q["constant"], q["margin"])
                        for q in report.results["reports"]]),
    "commutator-decay": _Command(_run_commutator, ("R", "norm"),
                                 _columns("R_values", "norms")),
    "scaling-limit": _Command(_run_scaling, ("eta", "form_value"),
                              _columns("eta_values", "form_values")),
    "critical-scan": _Command(
        _run_critical_scan, ("Z", "n", "lambda1_fixed", "lambda1_exhaustion"),
        lambda report: [(row["Z"], *cells) for row in report.results["rows"]
                        for cells in zip(row["grid_sizes"], row["lambda1_fixed"],
                                         row["lambda1_exhaustion"])]),
    "nonrel-limit": _Command(_run_nonrel, ("level", "computed", "exact", "error"),
                             _columns("levels", "computed", "exact", "errors")),
}
COMMANDS = tuple(_COMMANDS)


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def run_command(command, config) -> RunReport:
    """Execute one command; deterministic report for a fixed configuration."""
    if command not in _COMMANDS:
        raise ConfigurationError(
            f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    t0 = time.perf_counter()
    payload, checks, diagnostics = _COMMANDS[command].run(config)
    elapsed = time.perf_counter() - t0
    constants = {"hardy": HARDY_CONSTANT, "kato": KATO_CONSTANT, "tix": TIX_CONSTANT,
                 "critical_charge": critical_charge(_params(config),
                                                    config["channel"]["kappa"])}
    core = {"command": command, "config": config, "version": __version__}
    return RunReport(
        command=command, config=config, results=payload, checks=checks,
        constants=constants, version=__version__,
        ok=all(c["ok"] for c in checks),
        input_hash=_sha(core),
        report_hash=_sha({**core, "results": payload, "checks": checks}),
        timings={"seconds": elapsed}, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# persistence


def _cell(value):
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def write_report(report: RunReport, formats=None, destination="."):
    """Persist a report; JSON is complete, CSV holds the command's flat table."""
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
        table = _COMMANDS[report.command]
        path = dest / f"{stem}_table.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.header)
            writer.writerows([_cell(v) for v in row] for row in table.rows(report))
        written.append(path)
    return written


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
        # an output directory that cannot be made fails before the run, not after it
        Path(config["output"]["directory"]).mkdir(parents=True, exist_ok=True)
        report = run_command(args.command, config)
    except (BrspecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    written = write_report(report, destination=config["output"]["directory"])
    for c in report.checks:
        status = "PASS" if c["ok"] else "FAIL"
        print(f"{status} {c['name']}: {c['value']} {c['op']} {c['threshold']}")
    for path in written:
        print(f"wrote {path}")
    print(f"{report.command}: {'ok' if report.ok else 'CHECKS FAILED'} "
          f"({report.timings['seconds']:.1f}s)  report_hash={report.report_hash[:16]}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
