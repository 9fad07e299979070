"""Ingestion under generated documents: ``frobdiv analyze`` run in-process
on algebra and Hopf documents of dimension at most 4, each a built or
hand-written document with one key removed, mistyped, put out of range or
given a malformed entry.  Every run must end with a documented exit code
(0, 1, 2 or 3) and raise nothing.

Fields keep conductors with phi(n) <= 16 (the random integers stay in
[-2, 8]): the work of an analysis grows with phi(n).  The bad conductors
include 10^8, which ``scalars.MAX_PHI`` refuses before the field is
built."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from frobdiv import (dual_hopf, drinfeld_double, group_algebra, integrals,
                     named_group)
from frobdiv.cli import CHECKS, main
from frobdiv.serialize import algebra_to_json, hopf_to_json

from conftest import matrix_algebra_2x2


def _hopf_doc(H, R=None):
    return hopf_to_json(H, lam=integrals(H).lam, R=R)


def _bases():
    C2, C3, C4 = (named_group(g) for g in ("C2", "C3", "C4"))
    D, Q = drinfeld_double(C2)
    M2 = matrix_algebra_2x2()
    return {
        "kC2": _hopf_doc(group_algebra(C2)),
        "kC4": _hopf_doc(group_algebra(C4, conductor=4)),
        "k^C3": _hopf_doc(dual_hopf(group_algebra(C3, conductor=3))),
        "D(C2)": _hopf_doc(D, Q.R),
        "M2": algebra_to_json(M2, {0: M2.field.one, 3: M2.field.one}),
        # Q[x]/(x^2) with the nondegenerate form x -> 1: not semisimple
        "dual numbers": {"dim": 2, "field": {"type": "rational"},
                         "unit": ["1", "0"], "lambda": ["0", "1"],
                         "structure_constants": [[0, 0, 0, "1"],
                                                 [0, 1, 1, "1"],
                                                 [1, 0, 1, "1"]]},
        "Q": {"dim": 1, "field": {"type": "rational"}, "unit": ["1"],
              "structure_constants": [[0, 0, 0, "1"]]},
    }


BASES = _bases()
CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 12]
KEYS = ["dim", "field", "structure_constants", "unit", "lambda", "name",
        "comultiplication", "counit", "antipode", "R"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(-2, 8)
    | st.sampled_from(["", "0", "1", "-1/2", "z", "1 + 1*z", "1/0", "z^9",
                       "abc", "2*z^3", " 3 "]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS + ["type", "conductor"]), inner,
                      max_size=3),
    max_leaves=8)

fields = st.sampled_from(
    [{"type": "rational"}]
    + [{"type": "cyclotomic", "conductor": n} for n in CONDUCTORS]
    + [{"type": "cyclotomic", "conductor": bad}
       for bad in (0, -1, "3", 2.5, True, None, 10 ** 8)]
    + [{"type": "cyclotomic"}, {"type": "real"}, "Q", None, []])


@st.composite
def documents(draw):
    """A base document and one change to it."""
    doc = json.loads(json.dumps(BASES[draw(st.sampled_from(sorted(BASES)))]))
    change = draw(st.sampled_from(["none", "drop", "replace", "entry",
                                   "index", "scalar", "field", "dim"]))
    lists = [k for k, v in doc.items() if isinstance(v, list) and v]
    if change == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif change == "replace":
        doc[draw(st.sampled_from(KEYS))] = draw(json_values)
    elif change == "entry" and lists:
        key = draw(st.sampled_from(sorted(lists)))
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(json_values)
    elif change == "index" and lists:
        key = draw(st.sampled_from(sorted(lists)))
        entry = doc[key][draw(st.integers(0, len(doc[key]) - 1))]
        if isinstance(entry, list):
            entry[draw(st.integers(0, len(entry) - 1))] = draw(
                st.sampled_from([-1, doc["dim"], doc["dim"] ** 2, 99, True,
                                 None, "0", 1.5]))
    elif change == "scalar" and lists:
        # a well-formed scalar in place of another: the document parses
        key = draw(st.sampled_from(sorted(lists)))
        entries = doc[key]
        pos = draw(st.integers(0, len(entries) - 1))
        value = draw(st.sampled_from(["0", "2", "-1", "1/2", "z", "1 + 1*z",
                                      "1/3*z^2"]))
        if isinstance(entries[pos], list):
            entries[pos][-1] = value
        else:
            entries[pos] = value
    elif change == "field":
        doc["field"] = draw(fields)
    elif change == "dim":
        doc["dim"] = draw(st.sampled_from([0, -1, 1, 3, 5, "2", 2.0, True,
                                           None]))
    return doc


def run(doc, args, tmp):
    path = tmp / "doc.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["analyze", str(path), *args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _changed(name, **changes):
    """A base document with some keys replaced, or dropped when None."""
    doc = json.loads(json.dumps(BASES[name]))
    for key, value in changes.items():
        if value is None:
            doc.pop(key)
        else:
            doc[key] = value
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@example(doc=_changed("D(C2)", R=None), check="schneider", lam="regular",
         conductor=None)
@example(doc=BASES["dual numbers"], check="fd", lam="custom", conductor=None)
@example(doc=_changed("kC2", field={"type": "cyclotomic", "conductor": "3"}),
         check="all", lam="regular", conductor=None)
@example(doc=BASES["M2"], check="fd", lam="delta-one", conductor=12)
@given(doc=documents(), check=st.sampled_from(CHECKS),
       lam=st.sampled_from(["regular", "regular", "delta-one", "custom"]),
       conductor=st.sampled_from([None, None, 1, 2, 3, 4, 6, 12]))
def test_generated_documents_exit_with_a_documented_code(tmp, doc, check,
                                                         lam, conductor):
    args = ["--check", check, "--lambda", lam]
    if conductor is not None:
        args += ["--conductor", str(conductor)]
    code, err = run(doc, args, tmp)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
