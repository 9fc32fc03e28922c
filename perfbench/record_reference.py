"""Record perfbench/reference.json from the checkout's current source.

    python3 perfbench/record_reference.py

Runs every workload's command list once and stores, per command, the names
of its gated checks and every reference quantity (workloads.quantities)
whose gates all pass.  A quantity whose gate fails is not recorded: a fix
will change it.  The reference is meant to be recorded once, from the
commit that defines the benchmark, and left alone by changes that claim a
speed-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import thread_env  # noqa: E402


def main():
    os.environ.update(thread_env())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from brspec.cli import parse_config, run_command

    out = {}
    for name in workloads.WORKLOADS:
        out[name] = {}
        for label, command, overrides in workloads.steps(name, seed=0):
            report = run_command(command, parse_config(None, overrides))
            ok = {c["name"]: c["ok"] for c in report.checks}
            entry = {"checks": sorted(ok), "quantities": {}}
            for qname, value, gates, abs_tol, rel_tol in workloads.quantities(
                    command, report.results, report.config):
                if all(ok.get(g, True) for g in gates):
                    entry["quantities"][qname] = {
                        "value": value, "abs_tol": abs_tol, "rel_tol": rel_tol,
                        "gates": [g for g in gates if g in ok]}
            out[name][label] = entry
            print(f"{name}: {label}: {len(entry['quantities'])} quantities, "
                  f"failing gates {[g for g, v in ok.items() if not v]}")
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout.strip() or None
    doc = {"recorded_at_commit": sha, "workloads": out}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
