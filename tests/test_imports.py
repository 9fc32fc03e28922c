import ast
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
