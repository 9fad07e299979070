import json

import pytest

from frobdiv import (QQ, CyclotomicField, Rat, integrals, group_algebra,
                     named_group)
from frobdiv.cli import main
from frobdiv.serialize import (
    SchemaError,
    algebra_from_json,
    algebra_to_json,
    canonical_dumps,
    hopf_from_json,
    hopf_to_json,
    is_hopf_doc,
)

from conftest import delta_form, group_algebra_plain


def test_algebra_round_trip():
    A = group_algebra_plain("S3")
    lam = delta_form(A)
    doc = algebra_to_json(A, lam)
    B, lam2 = algebra_from_json(doc)
    assert B.dim == A.dim and B.table == A.table and B.unit == A.unit
    assert lam2 == lam
    # the serialized form is byte-stable
    assert canonical_dumps(doc) == canonical_dumps(algebra_to_json(B, lam2))


def test_cyclotomic_round_trip():
    K = CyclotomicField(6)
    A = group_algebra_plain("C6", field=K)
    # scalar with zeta coordinates survives exactly
    lam = {i: K.zeta() ** i / K.from_rat(3) for i in range(6)}
    doc = algebra_to_json(A, lam)
    B, lam2 = algebra_from_json(doc)
    assert B.field.conductor == 6
    assert lam2 == lam


def test_hopf_round_trip():
    H = group_algebra(named_group("S3"))
    I = integrals(H)
    R = {0: H.field.one}
    doc = hopf_to_json(H, lam=I.lam, R=R)
    assert is_hopf_doc(doc)
    H2, lam2, R2 = hopf_from_json(doc)
    assert H2.algebra.table == H.algebra.table
    assert H2.delta == H.delta
    assert H2.counit == H.counit
    assert H2.antipode.entries == H.antipode.entries
    assert lam2 == I.lam and R2 == R
    assert canonical_dumps(hopf_to_json(H2, lam2, R2)) == canonical_dumps(doc)


@pytest.mark.parametrize("group", ["S3", "C4", "D4", "Q8"])
def test_built_double_round_trip(tmp_path, group):
    # the R-matrix is read back as a sparse element and written out again
    # as the same sorted [flat, "scalar"] pairs
    out = tmp_path / "double.json"
    assert main(["build", "--group", group, "--as", "double",
                 "--out", str(out)]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert canonical_dumps(hopf_to_json(*hopf_from_json(doc))) + "\n" == text


def test_schema_errors():
    A = group_algebra_plain("C2")
    doc = algebra_to_json(A)
    for key in ("dim", "field", "structure_constants", "unit"):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(SchemaError):
            algebra_from_json(broken)
    bad_index = dict(doc)
    bad_index["structure_constants"] = [[0, 0, 5, "1"]]
    with pytest.raises(SchemaError):
        algebra_from_json(bad_index)
    bad_dim = dict(doc)
    bad_dim["dim"] = 0
    with pytest.raises(SchemaError):
        algebra_from_json(bad_dim)


def test_hopf_schema_errors():
    H = group_algebra(named_group("C2"))
    doc = hopf_to_json(H)
    for key in ("comultiplication", "counit", "antipode"):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(SchemaError):
            hopf_from_json(broken)
    bad = dict(doc)
    bad["antipode"] = [[0, 9, "1"]]
    with pytest.raises(SchemaError):
        hopf_from_json(bad)


@pytest.mark.parametrize("text,value", [
    ("1.5", Rat(3, 2)), ("+2", Rat(2)), (" 3 ", Rat(3)), ("1_000", Rat(1000)),
    ("-4/6", Rat(-2, 3))])
def test_rational_document_reads_fraction_strings(text, value):
    # a rational document reads whatever fractions.Fraction reads
    doc = algebra_to_json(group_algebra_plain("C2"))
    doc["unit"] = [text, "0"]
    A = algebra_from_json(doc)[0]
    assert A.unit[0] == QQ.from_rat(value)
    assert QQ.format(A.unit[0]) == str(value)


def test_bad_scalar_string():
    A = group_algebra_plain("C2")
    doc = algebra_to_json(A)
    doc["unit"] = ["1", "z6"]  # cyclotomic generator in a rational doc
    with pytest.raises(Exception):
        algebra_from_json(doc)
