"""The workload process: runs one benchmark workload against the checkout's
``src/brspec`` and prints one JSON line with what it measured.

    python3 perfbench/worker.py --root ROOT --spawned-at T --probe
    python3 perfbench/worker.py --root ROOT --spawned-at T --workload W \\
        --seed N --seconds S --trace 0|1 [--trace-file PATH]

``--spawned-at`` is the CLOCK_MONOTONIC reading the parent took just before
starting this interpreter; the difference to the moment ``brspec`` is
imported and ready is the set-up time.  ``--probe`` stops there.

Thread pinning: the sweep threads (BRSPEC_THREADS) times the BLAS/OpenMP
threads per caller stay within ``nproc``.  The variables are set before
numpy is imported, here and in the environment the harness passes down.
"""

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
import traceback

import workloads

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def thread_env():
    """This environment with sweep threads = nproc and one BLAS thread per caller."""
    env = dict(os.environ, BRSPEC_THREADS=str(nproc()))
    env.update((var, "1") for var in THREAD_VARS)
    return env


def _versions():
    import numpy
    import scipy

    def blas(cfg):
        deps = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


class Workload:
    """One workload's command list, run pass by pass and checked."""

    def __init__(self, name, seed, reference):
        from brspec.cli import parse_config, run_command
        self._parse_config = parse_config
        self._run_command = run_command
        self.steps = workloads.steps(name, seed)
        self.reference = reference

    def run_pass(self, tracer=None):
        """Run the list once; (wall seconds, evaluation of the outputs).

        Only the commands are timed.  A command that raises is a failed
        operation and fails every check it has in the reference.
        """
        outcome = []
        t0 = time.perf_counter()
        for label, command, overrides in self.steps:
            span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
            try:
                with span:
                    report = self._run_command(command, self._parse_config(None, overrides))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                report = None
            outcome.append((label, command, report))
        wall = time.perf_counter() - t0
        return wall, self._evaluate(outcome)

    def _evaluate(self, outcome):
        ev = {"commands": 0, "raised": 0, "checks": 0, "checks_failed": 0,
              "compared": 0, "mismatches": [], "headroom": [], "failing": []}
        for label, command, report in outcome:
            ref = self.reference.get(label, {})
            ev["commands"] += 1
            if report is None:
                expected = len(ref.get("checks", ())) or 1
                ev["raised"] += 1
                ev["checks"] += expected
                ev["checks_failed"] += expected
                ev["failing"].append(f"{label}: raised")
                continue
            for c in report.checks:
                ev["checks"] += 1
                h = workloads.headroom(c)
                if h is not None:
                    ev["headroom"].append(h)
                if not c["ok"]:
                    ev["checks_failed"] += 1
                    ev["failing"].append(f"{label}: {c['name']} value={c['value']} "
                                         f"threshold={c['threshold']}")
            got = {name: value for name, value, *_ in
                   workloads.quantities(command, report.results, report.config)}
            for name, entry in ref.get("quantities", {}).items():
                ev["compared"] += 1
                why = ("missing from the output" if name not in got
                       else workloads.mismatch(got[name], entry))
                if why is not None:
                    ev["mismatches"].append(f"{label}: {name} {why}")
        return ev


def _another(start, seconds, walls):
    """Whether one more pass, as long as the median so far, ends in time."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def measure(work, seconds):
    """Untraced passes for ``seconds`` (at least one): (walls, evaluations)."""
    walls, evals = [], []
    start = time.perf_counter()
    while not walls or _another(start, seconds, walls):
        wall, ev = work.run_pass()
        walls.append(wall)
        evals.append(ev)
    return walls, evals


def measure_traced(work, seconds):
    """A warm-up pass, then alternating untraced and traced passes for
    ``seconds`` (at least one of each).

    Returns (untraced walls, traced walls, evaluations, per traced pass its
    (layer metrics, span totals by name), spans of the first traced pass).
    """
    from brspec.cli import COMMANDS
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    known = tracer.boundary_names()
    walls, traced, evals, layers, first_spans = [], [], [], [], None
    start = time.perf_counter()
    evals.append(work.run_pass()[1])                     # warm-up
    while not walls or _another(start, seconds, [u + t for u, t in zip(walls, traced)]):
        wall, ev = work.run_pass()
        walls.append(wall)
        evals.append(ev)
        tracer.reset()
        with tracer:
            wall, ev = work.run_pass(tracer)
        traced.append(wall)
        evals.append(ev)
        layers.append(layer_metrics(tracer.spans, COMMANDS, known))
        if first_spans is None:
            first_spans = list(tracer.spans)
    return walls, traced, evals, layers, first_spans


def _span_records(spans):
    index = {id(s): i for i, s in enumerate(spans)}
    threads = {}
    return [{"name": s.name, "thread": threads.setdefault(s.thread, len(threads)),
             "start": s.start, "end": s.end, "count": s.count,
             "parent": index.get(id(s.parent))}
            for s in spans]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    os.environ.update(thread_env())
    src = os.path.realpath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import brspec.cli
    ready = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if not os.path.realpath(brspec.cli.__file__).startswith(src + os.sep):
        print(f"brspec imported from {brspec.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"setup_s": ready}))
        return 0

    import resource
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference.json")) as fh:
        reference = json.load(fh)["workloads"][args.workload]
    work = Workload(args.workload, args.seed, reference)

    out = {"setup_s": ready, "versions": _versions(), "nproc": nproc(),
           "threads": {k: os.environ[k] for k in ("BRSPEC_THREADS",) + THREAD_VARS}}
    if args.trace:
        walls, traced, evals, layers, spans = measure_traced(work, args.seconds)
        seconds = {k: statistics.fmean(m[0][k] for m in layers)
                   for k in layers[0][0] if k.endswith(".s")}
        counts = [{k: v for k, v in m[0].items() if not k.endswith(".s")} for m in layers]
        out.update(traced_walls=traced, layers={**seconds, **counts[0]},
                   counts_repeat=all(c == counts[0] for c in counts),
                   spans_by_name=layers[0][1])
        if args.trace_file:
            os.makedirs(os.path.dirname(os.path.abspath(args.trace_file)), exist_ok=True)
            with open(args.trace_file, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "spans": _span_records(spans)}, fh)
    else:
        walls, evals = measure(work, args.seconds)
    out.update(walls=walls, evals=evals,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
