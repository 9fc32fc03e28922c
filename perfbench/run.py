"""brspec benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness imports no numerical
library itself.  It measures set-up time in fresh interpreters, then runs
the workload in one worker process (perfbench/worker.py) that repeats the
workload's brspec command list for ``--seconds`` seconds, checks every
output against perfbench/reference.json, and reports.

With ``--trace 0`` the result carries the end-to-end metrics (see
BENCHMARK.json); with ``--trace 1`` it carries the per-layer metrics of
traced passes, and the tracing overhead against untraced passes made in
the same process.  A traced run also writes its spans to
``.perfbench/trace-<workload>-seed<N>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (commands run), ``failed`` (commands that
raised) and ``metrics``.  The lines before it give provenance, every
failing check and every reference mismatch.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import thread_env        # noqa: E402  (imports no numpy)
from workloads import HEADROOM_CEIL, WORKLOADS  # noqa: E402

SETUP_PROBES = 2      # fresh interpreters timed for set-up on each side of the worker
DEADLINE_S = 170.0    # the whole run must end within 180 s


def _spawn(args, deadline):
    """Start the worker with a CLOCK_MONOTONIC stamp; its JSON line, or exit."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT)] + args
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], env=thread_env(),
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: worker exceeded the {DEADLINE_S:.0f} s budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: worker failed with exit status {proc.returncode}")
    return json.loads(lines[-1])


def _provenance(worker):
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "brspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "nproc": worker["nproc"], "threads": worker["threads"],
            **worker["versions"]}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _unit(layer_metric):
    if layer_metric.endswith(".s"):
        return "s"
    return "fraction" if layer_metric == "trace.overhead_frac" else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description="brspec benchmark harness")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "brspec" / "__init__.py").is_file():
        print(f"perfbench: no brspec source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        run += ["--trace-file", str(trace_file)]
    # set-up probes before and after the workload, so that their median
    # spans the same stretch of machine time as the passes
    probes = 0 if args.trace else SETUP_PROBES
    setups = [_spawn(["--probe"], deadline)["setup_s"] for _ in range(probes)]
    w = _spawn(run, deadline)
    setups += [w["setup_s"]] + [_spawn(["--probe"], deadline)["setup_s"]
                                for _ in range(probes)]

    evals = w["evals"]
    checks = sum(e["checks"] for e in evals)
    mismatches = [m for e in evals for m in e["mismatches"]]
    failed_checks = sum(e["checks_failed"] for e in evals) + len(mismatches)
    fail_frac = failed_checks / (checks + len(mismatches))
    raised = sum(e["raised"] for e in evals)
    attempted = sum(e["commands"] for e in evals)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(w['walls'])} untraced passes, wall_s={w['walls']}")
    print("provenance " + json.dumps(_provenance(w), sort_keys=True))
    first = evals[0]
    print(f"checks per pass: attempted={first['checks']} failed={first['checks_failed']} "
          f"check_fail_frac={fail_frac:.6g}; reference: compared={first['compared']} "
          f"mismatched={len(mismatches)}")
    for line in first["failing"]:
        print("  FAIL " + line)
    for line in sorted(set(mismatches)):
        print("  MISMATCH " + line)

    if args.trace:
        layers = w["layers"]
        traced = statistics.median(w["traced_walls"])
        layers["trace.overhead_frac"] = traced / statistics.median(w["walls"]) - 1.0
        busy = sum(v["s"] for v in w["spans_by_name"].values())
        print(f"traced passes: {len(w['traced_walls'])}, wall_s={w['traced_walls']}; "
              f"self time of all spans {busy:.4g} s over the first traced pass; "
              f"counts repeat across passes: {w['counts_repeat']}; spans in {trace_file}")
        for name, v in sorted(w["spans_by_name"].items(), key=lambda kv: -kv[1]["s"]):
            print(f"  span {name}: self_s={v['s']:.6g} calls={v['calls']} count={v['count']}")
        metrics = {k: _metric(v, _unit(k)) for k, v in layers.items()}
    else:
        headroom = [h for e in evals for h in e["headroom"]]
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(statistics.median(w["walls"]), "s"),
            "check_pass_frac": _metric(1.0 - fail_frac, "fraction"),
            "headroom_worst": _metric(max(headroom, default=HEADROOM_CEIL), "ratio"),
            "peak_rss_mb": _metric(w["peak_rss_mb"], "MB"),
        }
    print(json.dumps({"correct": not mismatches and not raised, "attempted": attempted,
                      "failed": raised, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
