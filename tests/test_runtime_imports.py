"""The runtime depends on numpy and the standard library only."""

import ast
import sys
from pathlib import Path

import bufpart

ALLOWED = {"numpy", "bufpart", "__future__"} | set(sys.stdlib_module_names)


def test_src_imports_only_numpy_and_the_standard_library():
    package = Path(bufpart.__file__).parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], []).append(path.name)
    assert "numpy" in found
    assert {top: files for top, files in found.items() if top not in ALLOWED} == {}
