"""Self-tests of the benchmark harness (about two minutes).

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=1, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spectrum_run():
    return _run("spectrum", trace=0)


def test_end_to_end_names_match_benchmark_json(spectrum_run):
    res = _result(spectrum_run)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]


def test_spectrum_counts_the_seed_failures(spectrum_run):
    """Pins the seed's known defects: 3 of 12 checks fail and are counted.

    A change that fixes them updates this expectation.
    """
    res = _result(spectrum_run)
    line = next(l for l in spectrum_run.stdout.splitlines() if l.startswith("checks per pass"))
    assert re.search(r"attempted=12 failed=3 check_fail_frac=0\.25;", line), line
    assert res["metrics"]["check_pass_frac"]["value"] == pytest.approx(9 / 12)
    assert res["correct"] and res["failed"] == 0


@pytest.mark.parametrize("workload", ["z-scan", "verify"])
def test_traced_runs_repeat_exact_counts(workload):
    first, second = (_result(_run(workload, trace=1, seed=s)) for s in (1, 2))
    assert sorted(first["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] == "count"]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["correct"] and second["correct"]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("verify", trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
