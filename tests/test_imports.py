import ast
import os
import subprocess
import sys
from pathlib import Path

import brspec
from brspec.cli import _DEFAULT_CONFIG


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


# dataclasses whose instances the CLI serializes whole with ``asdict``, so that
# every field reaches a report without being read by name
SERIALIZED_WHOLE = {"RunReport", "LevelRecord"}
# fields kept with no reader in the package, and why
UNREAD_BY_DESIGN = {
    # the eigenvector columns are the route's output beside the eigenvalues;
    # the ground state's fitted tail exponent, the first eigenfunction
    # observable planned for the report, will read them
    "SpectralResult.eigenvectors",
}


def _is_dataclass(node):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def _package_classes():
    """(classes, attribute names read) over the package's modules."""
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(brspec.__file__).parent.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [cls for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)], read


def test_every_dataclass_field_is_read():
    """Every field of a dataclass in the package is read by attribute somewhere
    in the package, or its class is serialized whole by ``asdict``: a field
    that nothing reads is state carried for nobody."""
    classes, read = _package_classes()
    fields = {cls.name: [f.target.id for f in cls.body if isinstance(f, ast.AnnAssign)]
              for cls in classes if _is_dataclass(cls)}
    assert SERIALIZED_WHOLE <= fields.keys()
    unread = sorted(f"{name}.{field}" for name, names in fields.items()
                    if name not in SERIALIZED_WHOLE for field in names if field not in read)
    assert unread == sorted(UNREAD_BY_DESIGN), unread


# public methods and properties kept with no reader in the package, and why
UNCALLED_BY_DESIGN = set()


def test_every_public_method_is_read():
    """Every public method and property of a class in the package is read by
    attribute somewhere in the package: one that only the tests read is test
    code, and belongs in the tests."""
    classes, read = _package_classes()
    unread = sorted(f"{cls.name}.{fn.name}" for cls in classes for fn in cls.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                    and fn.name not in read)
    assert unread == sorted(UNCALLED_BY_DESIGN), unread


# configuration keys that no command reads, and why
UNREAD_KEYS_BY_DESIGN = {
    # dtn-check bounds every trace and draws none, but the benchmark's
    # workloads set seed=N on every dtn-check, so the key stays accepted
    "seed",
}


def test_every_config_key_is_read():
    """Every leaf key of the default configuration is read by a string
    subscript in the package, each part of its dotted path: a key that
    nothing reads is a setting that changes nothing."""
    def leaves(table, prefix=()):
        for key, value in table.items():
            if isinstance(value, dict):
                yield from leaves(value, prefix + (key,))
            else:
                yield prefix + (key,)

    subscripts = {node.slice.value
                  for path in Path(brspec.__file__).parent.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                  and isinstance(node.slice.value, str)}
    unread = {".".join(key) for key in leaves(_DEFAULT_CONFIG)
              if not set(key) <= subscripts}
    assert unread <= UNREAD_KEYS_BY_DESIGN, sorted(unread - UNREAD_KEYS_BY_DESIGN)


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
    """No production path reaches scipy's quadrature or special functions, or
    starts a thread: the default ``spectrum`` (at n = 64), ``scaling-limit``,
    ``commutator-decay`` and a small ``critical-scan`` run without any of them,
    each probed right after it ran.  ``concurrent.futures`` itself is loaded by
    numpy.testing under scipy, so the probe counts thread starts instead of
    looking for that module."""
    src = str(Path(brspec.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = """
import sys, threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: started.append(self.name) or start(self)
from brspec.cli import parse_config, run_command
for command, overrides in (("spectrum", ["grid.n=64"]), ("scaling-limit", []),
                           ("commutator-decay", []),
                           ("critical-scan", ["experiments.grid_sizes=[32,48]"])):
    run_command(command, parse_config(overrides=overrides))
    print(" ".join([f"{command}:{m}" for m in ("scipy.integrate", "scipy.special")
                    if m in sys.modules] + started))
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == []
