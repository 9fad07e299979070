"""Every function the benchmark's tracer binds by name still exists.

``perfbench/traced.py`` looks each name of its ``TRACED`` table up with
``_lookup`` before it wraps it; a renamed or deleted function would stop
the traced benchmark run with a KeyError.  The file is read and executed
here without being imported, so no byte code is written next to it."""

import importlib
import types
from pathlib import Path

import pytest

from frobdiv import integrals

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


def _builds():
    """kS3, k^S3 and D(S3) over Q(zeta_6), each built twice."""
    from frobdiv import drinfeld_double, dual_hopf, group_algebra, named_group
    G = named_group("S3")
    return [[group_algebra(G, conductor=6),
             dual_hopf(group_algebra(G, conductor=6)),
             drinfeld_double(G, verify=False)[0]] for _ in range(2)]


def test_repeat_keys_tell_algebras_apart():
    """The counting tracer keys each verified Hopf algebra and each split
    algebra: the keys read the unit, the counit and the Frobenius form,
    which are sparse vectors, besides the tables.  Two builds of one
    algebra share a key, and kS3 and k^S3 have different ones."""
    first, second = _builds()
    for H, again in zip(first, second):
        assert traced._hopf_key(H) == traced._hopf_key(again)
        assert (traced._algebra_key(H.algebra)
                == traced._algebra_key(again.algebra))
        assert len({traced._hopf_key(H), traced._hopf_key(again)}) == 1
        assert (traced._raw_vec(integrals(H).lam)
                == traced._raw_vec(integrals(again).lam))
    kG, dual, _ = first
    assert traced._hopf_key(kG) != traced._hopf_key(dual)
    assert traced._algebra_key(kG.algebra) != traced._algebra_key(dual.algebra)


def test_counted_scalar_operations_resolve():
    scalars = importlib.import_module("frobdiv.scalars")
    for cls_name, methods in traced.SCALAR_OPS.values():
        cls = getattr(scalars, cls_name)
        for method in methods:
            assert callable(cls.__dict__[method])
