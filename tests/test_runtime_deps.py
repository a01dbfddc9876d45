"""The runtime needs only numpy: every absolute import of the package is
the standard library or numpy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "oddcycle"


def test_package_imports_only_the_standard_library_and_numpy():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert {name for _, name in found} >= {"numpy"}
    assert [(f, name) for f, name in sorted(found) if name != "numpy" and name not in sys.stdlib_module_names] == []
