"""Every function the benchmark's tracer binds by name still exists.

``perfbench/traced.py`` looks each name of its ``TRACED`` table up with
``_lookup`` before it wraps it; a renamed or deleted function would stop
the traced benchmark run with a KeyError.  The file is read and executed
here without being imported, so no byte code is written next to it."""

import importlib
import types
from pathlib import Path

import pytest

TRACED_PY = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _load_traced():
    module = types.ModuleType("perfbench_traced")
    module.__file__ = str(TRACED_PY)
    code = compile(TRACED_PY.read_text(), str(TRACED_PY), "exec")
    exec(code, module.__dict__)
    return module


traced = _load_traced()
NAMES = [(module, func) for module, funcs in traced.TRACED.items()
         for func in funcs]


@pytest.mark.parametrize("module,func", NAMES,
                         ids=[f"{m}.{f}" for m, f in NAMES])
def test_traced_name_resolves(module, func):
    owner = importlib.import_module(f"frobdiv.{module}")
    assert callable(traced._lookup(owner, func))


def test_table_names_the_stages_it_times():
    assert {"StructureConstantAlgebra.center_basis",
            "TensorSquareAlgebra.mult"} <= set(traced.TRACED["algebra"])
    assert "integrals" in traced.TRACED["hopf"]
    assert "modular_split" in traced.TRACED["modular"]
    assert "Matrix.kernel" in traced.TRACED["linalg"]


def test_counted_scalar_operations_resolve():
    scalars = importlib.import_module("frobdiv.scalars")
    for cls_name, methods in traced.SCALAR_OPS.values():
        cls = getattr(scalars, cls_name)
        for method in methods:
            assert callable(cls.__dict__[method])
