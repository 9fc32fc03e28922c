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
