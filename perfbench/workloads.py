"""Benchmark workloads, the output quantities checked against the reference,
and the headroom of each gated check.

Each workload is a list of brspec CLI commands with ``--set`` overrides.
Only ``dtn-check`` draws random numbers; the benchmark seed becomes its
config ``seed``.  Every other command is deterministic and ignores it.
Why each workload exists is written down in README.md beside this file.

This module imports nothing outside the standard library, so the harness
can use it before any numerical library is loaded.
"""

import math

Z_SCAN = (100, 110, 115, 120, 122, 124, 130, 140)

WORKLOADS = {
    "spectrum": [("spectrum", (f"params.Z={Z}",)) for Z in (1, 40, 120)],
    "dense-fine": [("spectrum", (f"params.Z={Z}", "solver.route=dense",
                                 "grid.kind=log", "grid.n=1600"))
                   for Z in (1, 40, 80)],
    "z-scan": [("critical-scan",
                ("experiments.Z_values=[" + ",".join(map(str, Z_SCAN)) + "]",))],
    "verify": [("dtn-check", ()), ("inequalities", ()), ("commutator-decay", ()),
               ("scaling-limit", ()), ("nonrel-limit", ())],
}

SEEDED = ("dtn-check",)


def steps(workload, seed):
    """(label, command, overrides) in run order; the label keys the reference."""
    out = []
    for command, overrides in WORKLOADS[workload]:
        label = " ".join((command,) + overrides)
        if command in SEEDED:
            overrides = overrides + (f"seed={int(seed)}",)
        out.append((label, command, list(overrides)))
    return out


# ---------------------------------------------------------------------------
# reference quantities
#
# quantities(command, results, config) yields (name, value, gates, abs_tol,
# rel_tol).  A quantity is recorded as reference only when every one of its
# gates that the command reports passes; a quantity whose gate fails has no
# reference (a fix will change it) but its checks still count.  The
# tolerances come from the gates:
#   eigenvalues   1e-8 mc^2 absolute, the route-equivalence gate
#   sharp-constant ratios   1e-9 relative, the slack of ``satisfied``
#   slopes, norms, coefficients, exponents   1e-6 relative, far inside every
#                 gate window and far above rounding-level reorderings
#   hydrogen levels   1e-6 absolute, one percent of the 1e-4 level gate
# dtn-check has no reference: its outputs are rounding-level error maxima
# over seeded random samples, and its gates already bound them.

EIGEN_TOL = 1e-8
RATIO_RTOL = 1e-9
FIT_RTOL = 1e-6
LEVEL_ATOL = 1e-6


def _mc2(config):
    return config["params"]["m"] * config["params"]["c"] ** 2


def quantities(command, results, config):
    eig = EIGEN_TOL * _mc2(config)
    if command == "spectrum":
        for route in ("dense", "variational"):
            if route in results:
                gates = [f"{route}_residuals_small", "bound_states_in_gap"]
                if route == "variational":
                    gates.append("route_equivalence")
                yield (f"{route}.eigenvalues", results[route]["eigenvalues"],
                       gates, eig, 0.0)
    elif command == "critical-scan":
        for row in results["rows"]:
            if row["Z"] < results["critical_charge"]:
                gate = [f"Z={row['Z']:g}_stable"]
                for key in ("lambda1_fixed", "lambda1_exhaustion"):
                    yield f"Z={row['Z']:g}.{key}", row[key], gate, eig, 0.0
    elif command == "inequalities":
        for rep in results["reports"]:
            yield (f"{rep['name']}.max_ratio", rep["max_ratio"],
                   [f"{rep['name']}_bounded"], 0.0, RATIO_RTOL)
    elif command == "commutator-decay":
        yield ("fitted_slope", results["fitted_slope"],
               ["slope_in_window", "fit_residual"], 0.0, FIT_RTOL)
        yield "norms", results["norms"], ["norms_decreasing"], 0.0, FIT_RTOL
    elif command == "scaling-limit":
        for key in ("leading_coefficient", "oracle_coefficient"):
            yield key, results[key], ["leading_coefficient_match"], 0.0, FIT_RTOL
        yield ("remainder_exponent", results["remainder_exponent"],
               ["remainder_exponent"], 0.0, FIT_RTOL)
    elif command == "nonrel-limit":
        yield "computed", results["computed"], ["hydrogen_levels"], LEVEL_ATOL, 0.0


def mismatch(actual, ref):
    """None when ``actual`` matches the reference entry, else a message."""
    want = ref["value"]
    a = actual if isinstance(actual, list) else [actual]
    w = want if isinstance(want, list) else [want]
    if len(a) != len(w):
        return f"length {len(a)} != reference {len(w)}"
    for i, (x, y) in enumerate(zip(a, w)):
        tol = ref["abs_tol"] + ref["rel_tol"] * abs(y)
        if not abs(float(x) - y) <= tol:
            return f"[{i}] {float(x)!r} vs reference {y!r} (tol {tol:.3g})"
    return None


# ---------------------------------------------------------------------------
# headroom of a gated check: value/threshold oriented so that 1.0 sits at
# the gate and lower is better.  Interval gates use the distance from the
# centre over the half-width; lower-bound gates invert the ratio.  Gates
# that are not a numeric comparison (monotonicity flags, the sign test of
# bound_states_in_gap with threshold 0) have no headroom.  The ratio is
# clamped to [FLOOR, CEIL]: accuracy at rounding level far inside a gate is
# not resolved, and a check failing by more than CEIL-fold reads CEIL (its
# failure is counted by the pass fraction).

HEADROOM_FLOOR = 0.01
HEADROOM_CEIL = 10.0
_NOT_RATIO = ("norms_decreasing", "bound_states_in_gap")
_LOWER_BOUND = ("remainder_exponent", "trace_margin")


def _real(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def headroom(check):
    name, v, t = check["name"], check["value"], check["threshold"]
    if name in _NOT_RATIO:
        return None
    if isinstance(t, list) and len(t) == 2 and _real(v):
        lo, hi = t
        ratio = abs(v - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
    elif _real(v) and _real(t) and t != 0:
        v, t = float(v), float(t)
        if name in _LOWER_BOUND or name.endswith("_collapsed"):
            ratio = t / v if t > 0 and v != 0 else v / t
        else:
            ratio = v / t
    else:
        return None
    if not check["ok"]:
        ratio = max(ratio, 1.0)
    if math.isnan(ratio):
        ratio = HEADROOM_CEIL
    return min(max(ratio, HEADROOM_FLOOR), HEADROOM_CEIL)
