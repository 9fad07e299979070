"""Every imported name is used: a stdlib ``ast`` scan of the library and
the tests, standing in for a linter's unused-import rule.

A name bound by ``import`` or ``from ... import`` must be read somewhere
in its module.  Package ``__init__.py`` files, which re-export, and
import statements marked ``# noqa: F401`` are skipped, as are
``__future__`` imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "frobdiv").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(path):
    """(line, name) for each name imported in ``path`` and never read."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa: F401\n"
                      "from json import dumps, loads as read\n"
                      "read('1')\n")
    assert unused_imports(module) == [(1, "os"), (3, "dumps")]
