"""Every imported name is used, and every definition of the library is
referenced: stdlib ``ast`` scans standing in for a linter's unused-import
and dead-code rules.  Importing the command line loads none of the
heavier stdlib modules it does not need, and a full analysis of kS3 in a
fresh interpreter never imports ``hashlib`` or OpenSSL's ``_hashlib``:
the input digest is taken with the interpreter's built-in SHA-256
(``_sha2`` or ``_sha256``), which equals ``hashlib.sha256``.  The
analysis test is skipped on an interpreter built without either module.

A name bound by ``import`` or ``from ... import`` must be read somewhere
in its module.  Package ``__init__.py`` files, which re-export, and
import statements marked ``# noqa: F401`` are skipped, as are
``__future__`` imports.

Each module-level function and class of ``src/frobdiv``, and each method
of such a class that is not a dunder, must have its name read somewhere
in ``src/``, ``tests/`` or ``perfbench/``: as a name, an attribute or an
imported name, or inside a string in ``perfbench/``, whose tracer binds
functions by dotted name.  A string in the library, such as a docstring,
does not count."""

import ast
import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from frobdiv.report import input_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "frobdiv"
MODULES = sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")])


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


def definitions(path):
    """(line, name) of each module-level function and class in ``path``,
    and of each method of such a class that is not a dunder."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend((m.lineno, m.name) for m in node.body
                       if isinstance(m, ast.FunctionDef)
                       and not (m.name.startswith("__")
                                and m.name.endswith("__")))
    return out


def names_read(path, strings):
    """The names ``path`` reads: loaded names and attributes, the parts of
    imported names and, when ``strings``, every identifier in a string."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def unreferenced(modules, readers, string_readers):
    """(module name, line, name) for each definition in ``modules`` whose
    name no file of ``readers`` or ``string_readers`` reads."""
    read = set()
    for path in readers:
        read |= names_read(path, False)
    for path in string_readers:
        read |= names_read(path, True)
    return [(path.name, line, name) for path in modules
            for line, name in definitions(path) if name not in read]


def test_no_unreferenced_definition():
    readers = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    perfbench = list((ROOT / "perfbench").glob("*.py"))
    assert unreferenced(sorted(SRC.glob("*.py")), readers, perfbench) == []


def test_scan_finds_an_unreferenced_definition(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(textwrap.dedent('''\
        def used():
            """Names orphan, which no one reads."""


        def orphan():
            pass


        def traced():
            pass


        class Kept:
            def __init__(self):
                pass

            def method(self):
                pass

            def dead(self):
                pass
        '''))
    user = tmp_path / "user.py"
    user.write_text("from lib import Kept, used\n"
                    "used()\nKept().method()\n'dead'\n")
    bench = tmp_path / "bench.py"
    bench.write_text("SPANS = ['lib.traced']\n")
    assert unreferenced([lib], [lib, user], [bench]) == [
        ("lib.py", 5, "orphan"), ("lib.py", 20, "dead")]


# Modules the import path of ``frobdiv.cli`` does without.  An analysis
# process is mostly start-up, and a run without byte-code caching
# compiles every module it imports from source.
UNNEEDED_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                    "typing")


def test_cli_import_loads_no_unneeded_module():
    # -S: no site module, which may import some of these itself
    probe = ("import sys, frobdiv.cli; "
             "print(sorted(set(sys.modules) & set(sys.argv[1:])), "
             "'frobdiv.cli' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", probe,
                           *UNNEEDED_MODULES, "json"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # json is loaded, which shows that the probe sees the modules
    assert proc.stdout.split() == ["['json']", "True"]


# Builds kS3, analyses it with every check and prints the modules of the
# OpenSSL-backed hashlib that the run imported.
ANALYSIS_PROBE = textwrap.dedent("""\
    import contextlib, io, sys
    from frobdiv.cli import main
    path = sys.argv[1]
    built = main(["build", "--group", "S3", "--out", path])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["analyze", path, "--check", "all"])
    print(built, code, "overall: PASS" in out.getvalue(),
          sorted({"hashlib", "_hashlib"} & set(sys.modules)))
    """)


def test_analysis_loads_no_openssl(tmp_path):
    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        pytest.skip("no built-in SHA-256 module in this interpreter")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", ANALYSIS_PROBE,
                           str(tmp_path / "ks3.json")], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "True", "[]"]


@pytest.mark.parametrize("text", ["", "frobdiv",
                                  "\u03b6\u2086 = e^(2\u03c0i/6)"],
                         ids=["empty", "ascii", "non-ascii"])
def test_input_digest_is_sha256(text):
    assert input_digest(text) == hashlib.sha256(text.encode()).hexdigest()
