import ast
import os
import subprocess
import sys
from pathlib import Path

import brspec


def test_no_private_cross_module_imports():
    """Modules share only public names: no ``from .module import _name``."""
    offenders = []
    for path in sorted(Path(brspec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}" for alias in node.names
                              if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not offenders, offenders


def test_cli_import_leaves_quadrature_unloaded():
    """``import brspec.cli`` loads no scipy quadrature, special-function, optimizer
    or sparse module; the few functions that need them import them on first call."""
    src = str(Path(brspec.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, brspec.cli; print(' '.join(m for m in ('scipy.integrate', "
             "'scipy.special', 'scipy.optimize', 'scipy.sparse') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == []


def test_runs_start_no_quadrature_and_no_threads():
    """No production path reaches scipy's quadrature or starts a thread: the
    default ``spectrum`` (at n = 64), ``scaling-limit`` and a small
    ``critical-scan`` run without either.  ``concurrent.futures`` itself is loaded by numpy.testing under scipy, so
    the probe counts thread starts instead of looking for that module."""
    src = str(Path(brspec.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = """
import sys, threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: started.append(self.name) or start(self)
from brspec.cli import parse_config, run_command
run_command("spectrum", parse_config(overrides=["grid.n=64"]))
run_command("scaling-limit", parse_config())
run_command("critical-scan", parse_config(overrides=["experiments.grid_sizes=[32,48]"]))
print(" ".join(["scipy.integrate"] * ("scipy.integrate" in sys.modules) + started))
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == []
