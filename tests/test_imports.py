import ast
import os
import subprocess
import sys
from pathlib import Path

import brspec


def test_no_private_cross_module_imports():
    """Modules share only public names: no ``from .module import _name``, and the
    tests' oracles import no ``_name`` from the package, so that they share no
    private code with what they check."""
    oracles = Path(__file__).with_name("oracles.py")
    offenders = []
    for path in sorted(Path(brspec.__file__).parent.glob("*.py")) + [oracles]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "brspec"):
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}" for alias in node.names
                              if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not offenders, offenders


# where the command line starts: ``main``, the entry points it wraps, and the
# command table
ENTRY_POINTS = {"main", "run_command", "parse_config", "COMMANDS"}
# the benchmark's tracer times subtraction_integral_adaptive by name for its
# fallback metrics, so the tests' adaptive oracle stays in the package until
# the benchmark drops them
UNREACHED_BY_DESIGN = ["subtraction_integral_adaptive"]


def _definitions(path):
    """(names bound, statement) of each top-level def, class and assignment of a module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield {node.name}, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}, node


def test_every_top_level_name_is_reached_from_the_cli():
    """The package holds what a command runs: every top-level name is reachable
    by name from the CLI's entry points.  A reached statement reaches every
    name it mentions, as a name or as an attribute, and an assignment is
    reached when one of its targets is; test-only code lives in the tests."""
    defs = [d for path in sorted(Path(brspec.__file__).parent.glob("*.py"))
            for d in _definitions(path)]
    reached, frontier = set(), set(ENTRY_POINTS)
    while frontier:
        reached |= frontier
        frontier = {n.id if isinstance(n, ast.Name) else n.attr
                    for names, node in defs if names & frontier
                    for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))} - reached
    unreached = sorted(name for names, _ in defs for name in names - reached)
    assert unreached == UNREACHED_BY_DESIGN, unreached


def _defaulted(fn, skip):
    """(name, position) of each defaulted parameter of ``fn``; the position
    counts from the first argument a call passes (None: keyword-only)."""
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    return ([(arg.arg, i - skip) for i, arg in enumerate(args) if i >= first]
            + [(arg.arg, None) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if default is not None])


def test_every_defaulted_parameter_has_a_caller():
    """Every defaulted parameter of a public function or method is passed, by
    keyword or by position, by some call in the package or its tests; a class
    call counts for its ``__init__``.  Calls are matched by name, and one that
    unpacks ``*args`` or ``**kwargs`` counts as passing everything."""
    package = Path(brspec.__file__).parent
    sources = sorted(package.glob("*.py"))
    knobs = []              # (where, callee name, parameter, position)
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                knobs += [(f"{path.name}: {node.name}", node.name, *param)
                          for param in _defaulted(node, 0)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and (
                            fn.name == "__init__" or not fn.name.startswith("_")):
                        # the package has no static methods: self or cls comes first
                        callee = node.name if fn.name == "__init__" else fn.name
                        knobs += [(f"{path.name}: {node.name}.{fn.name}", callee, *param)
                                  for param in _defaulted(fn, 1)]
    calls = {}
    for path in sources + sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def passes(call, name, position):
        return (any(k.arg in (name, None) for k in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or position is not None and len(call.args) > position)

    unset = [f"{where}({name})" for where, callee, name, position in knobs
             if not any(passes(c, name, position) for c in calls.get(callee, []))]
    assert not unset, unset


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
