import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from frobdiv.cli import CHECKS, main
from frobdiv.scalars import rat
from frobdiv.serialize import algebra_to_json, canonical_dumps

from conftest import delta_form, group_algebra_plain

SRC = Path(__file__).resolve().parent.parent / "src"


def build(tmp_path, *args, name="in.json"):
    out = tmp_path / name
    code = main(["build", *args, "--out", str(out)])
    assert code == 0
    return out


def test_build_then_analyze_group_algebra(tmp_path, capsys):
    inp = build(tmp_path, "--group", "S3")
    out = tmp_path / "report.txt"
    code = main(["analyze", str(inp), "--check", "all", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "overall: PASS" in text and "[FAIL]" not in text


def test_analyze_json_format(tmp_path):
    inp = build(tmp_path, "--group", "C2")
    out = tmp_path / "report.json"
    code = main(["analyze", str(inp), "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    assert any(s["name"].startswith("frobenius") for s in doc["sections"])


def test_reports_byte_identical_across_primes(tmp_path):
    inp = build(tmp_path, "--group", "S3")
    outs = []
    for i, p in enumerate((13, 19, 31)):
        out = tmp_path / f"r{i}.json"
        code = main(["analyze", str(inp), "--check", "fd", "--prime", str(p),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_dual_reports_byte_identical_across_primes(tmp_path):
    # k^Q8 over Q(zeta_24): eight blocks and eight CRT components, every
    # section of --check all
    inp = build(tmp_path, "--group", "Q8", "--as", "dual")
    outs = []
    for i, p in enumerate((73, 97, 193)):
        out = tmp_path / f"r{i}.json"
        code = main(["analyze", str(inp), "--conductor", "24", "--check",
                     "all", "--prime", str(p), "--format", "json",
                     "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["status"] == "pass"


def test_same_prime_reports_identical(tmp_path):
    inp = build(tmp_path, "--group", "S3")
    texts = []
    for i in range(2):
        out = tmp_path / f"t{i}.txt"
        assert main(["analyze", str(inp), "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_plain_algebra_delta_one(tmp_path):
    A = group_algebra_plain("S3")
    doc = algebra_to_json(A)
    inp = tmp_path / "alg.json"
    inp.write_text(canonical_dumps(doc))
    code = main(["analyze", str(inp), "--lambda", "delta-one",
                 "--out", str(tmp_path / "o.txt")])
    assert code == 0


def test_degenerate_lambda_exit_1(tmp_path):
    A = group_algebra_plain("C2")
    lam = [A.field.one, A.field.one]  # annihilates 1 - g
    doc = algebra_to_json(A, lam)
    inp = tmp_path / "alg.json"
    inp.write_text(canonical_dumps(doc))
    out = tmp_path / "o.txt"
    code = main(["analyze", str(inp), "--lambda", "custom",
                 "--out", str(out)])
    assert code == 1
    assert "ideal witness" in out.read_text()


def test_non_semisimple_custom_form_inapplicable_exit_1(tmp_path):
    # the dual numbers Q[x]/(x^2) with the nondegenerate form x -> 1: the
    # form is fine, but the algebra has the radical Q x
    doc = {"dim": 2, "field": {"type": "rational"}, "unit": ["1", "0"],
           "structure_constants": [[0, 0, 0, "1"], [0, 1, 1, "1"],
                                   [1, 0, 1, "1"]],
           "lambda": ["0", "1"]}
    inp = tmp_path / "dual_numbers.json"
    inp.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "frobdiv.cli", "analyze",
                           str(inp), "--lambda", "custom", "--format",
                           "json"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ""
    fd = json.loads(proc.stdout)["sections"][-1]
    assert fd["name"] == "frobenius divisibility"
    assert fd["status"] == "inapplicable"
    assert fd["items"] == [["semisimple", "no"], ["radical witness", "[0, 1]"]]


def test_rescaled_form_inapplicable_exit_1(tmp_path, capsys):
    A = group_algebra_plain("S3")
    four = A.field.from_rat(rat(4))
    lam = [four * c for c in delta_form(A)]
    doc = algebra_to_json(A, lam)
    inp = tmp_path / "alg.json"
    inp.write_text(canonical_dumps(doc))
    out = tmp_path / "o.txt"
    code = main(["analyze", str(inp), "--lambda", "custom",
                 "--out", str(out)])
    assert code == 1
    assert "not a rational integer" in out.read_text()


def test_corrupted_input_exit_2(tmp_path, capsys):
    inp = tmp_path / "bad.json"
    inp.write_text('{"dim": 2, "unit": ["1", "0"]}')
    assert main(["analyze", str(inp)]) == 2
    # perturbed structure constants fail the axiom check, also exit 2
    A = group_algebra_plain("S3")
    doc = algebra_to_json(A)
    doc["structure_constants"] = [
        e if e[:2] != [3, 4] else [3, 4, (e[2] + 1) % 6, e[3]]
        for e in doc["structure_constants"]]
    inp2 = tmp_path / "bad2.json"
    inp2.write_text(canonical_dumps(doc))
    assert main(["analyze", str(inp2)]) == 2


def test_corrupted_hopf_input_exit_2(tmp_path):
    inp = build(tmp_path, "--group", "S3")
    doc = json.loads(inp.read_text())
    # Delta(x_1) = x_1 (x) x_1 becomes 2 x_1 (x) x_1
    doc["comultiplication"] = [
        e if e[1] != 1 else [e[0], 1, "2"] for e in doc["comultiplication"]]
    bad = tmp_path / "bad_hopf.json"
    bad.write_text(canonical_dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "frobdiv.cli", "analyze",
                           str(bad)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 2
    assert "Hopf axioms fail" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_split_hopf_inapplicable_exit_1(tmp_path):
    # over Q the degree-2 block of kQ8 is the quaternions, not M_2(Q)
    # the FD pipeline runs first whatever the check, and every other
    # section reads its split
    inp = build(tmp_path, "--group", "Q8", "--conductor", "1")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for check in CHECKS:
        proc = subprocess.run([sys.executable, "-m", "frobdiv.cli", "analyze",
                               str(inp), "--check", check, "--format",
                               "json"], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        fd = doc["sections"][-1]
        assert fd["name"] == "frobenius divisibility (FD)"
        assert fd["status"] == "inapplicable"
        assert ["reason", "non-split component present"] in fd["items"]


# per check: Frobenius structures, Wedderburn splits, representation rings
# and quasitriangular checks (quasitriangular_verify, factorizable_check)
BUILDS = {"fd": (2, 1, 0, 0), "zhu": (2, 1, 0, 0),
          "class-equation": (3, 2, 1, 0), "schneider": (3, 2, 1, 1),
          "all": (3, 2, 1, 1)}


@pytest.mark.parametrize("check", CHECKS)
def test_hopf_analysis_builds_each_frobenius_structure_once(tmp_path,
                                                            monkeypatch,
                                                            check):
    import frobdiv.hopf as hopf_mod
    inp = build(tmp_path, "--group", "C2", "--as", "double")
    calls = {}
    for name in ("frobenius_structure", "central_primitive_idempotents",
                 "representation_ring", "quasitriangular_verify",
                 "factorizable_check", "integrals", "hopf_casimir",
                 "dual_algebra"):
        calls[name] = []

        def counted(*args, original=getattr(hopf_mod, name), name=name,
                    **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(hopf_mod, name, counted)
    code = main(["analyze", str(inp), "--check", check,
                 "--out", str(tmp_path / "o.txt")])
    assert code == 0
    structures, splits, rings, quasitriangular = BUILDS[check]
    # (H, lambda), (H*, Lambda0) and, for the ring, (R(H), delta)
    built = [(A.name, tuple(map(str, lam)))
             for A, lam in calls["frobenius_structure"]]
    assert len(built) == len(set(built)) == structures
    assert len(calls["central_primitive_idempotents"]) == splits
    assert len(calls["representation_ring"]) == rings
    assert len(calls["quasitriangular_verify"]) == quasitriangular
    assert len(calls["factorizable_check"]) == quasitriangular
    for name in ("integrals", "hopf_casimir", "dual_algebra"):
        assert len(calls[name]) == 1, name


def test_missing_file_exit_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


MALFORMED = {
    "cyclotomic-without-conductor": {"field": {"type": "cyclotomic"}},
    "scalar-not-a-number": {"unit": ["abc"]},
    "field-as-string": {"field": "rational"},
    "structure-constants-not-a-list": {"structure_constants": {"0": 1}},
    "name-not-a-string": {"name": 5},
    # JSON true and false are not indices, although Python counts them as
    # ints: each document below would otherwise read as a valid kC1
    "dim-true": {"dim": True},
    "structure-constant-index-false": {
        "structure_constants": [[False, False, False, "1"]]},
    "scalar-of-5001-digits": {"unit": ["1" * 5001]},
}


def assert_invalid_input(path, *args):
    """``frobdiv analyze`` exits 2 with one line on stderr, no traceback
    and no report."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "frobdiv.cli", "analyze",
                           str(path), *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("invalid input: ")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""
    return proc.stderr


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_document_exit_2(tmp_path, name):
    doc = {"dim": 1, "field": {"type": "rational"},
           "structure_constants": [[0, 0, 0, "1"]], "unit": ["1"]}
    doc.update(MALFORMED[name])
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(doc))
    assert_invalid_input(inp)


def as_booleans(section):
    """The entries of a section with each index 0 or 1 written as JSON
    false or true; a valid section stays valid but for that."""
    return lambda doc: {section: [
        [bool(x) if type(x) is int and x in (0, 1) else x for x in entry]
        for entry in doc[section]]}


MALFORMED_HOPF = {
    "comultiplication-not-a-list": {"comultiplication": 7},
    "antipode-null": {"antipode": None},
    "R-not-a-list": {"R": {"0": "1"}},
    "name-not-a-string": {"name": 5},
    "comultiplication-boolean-index": as_booleans("comultiplication"),
    "antipode-boolean-index": as_booleans("antipode"),
    "R-boolean-index": as_booleans("R"),
}


@pytest.mark.parametrize("name", MALFORMED_HOPF)
def test_malformed_hopf_section_exit_2(tmp_path, name):
    doc = json.loads(build(tmp_path, "--group", "C2", "--as",
                           "double").read_text())
    update = MALFORMED_HOPF[name]
    doc.update(update(doc) if callable(update) else update)
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(doc))
    assert_invalid_input(inp)


def test_dim_beyond_listed_constants_exit_2(tmp_path):
    # each basis element needs a structure constant: C2's four cannot
    # fill a basis of 50, and the document is refused before its table
    doc = json.loads(build(tmp_path, "--group", "C2").read_text())
    assert len(doc["structure_constants"]) == 4
    doc["dim"] = 50
    doc["unit"] += ["0"] * 48
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(doc))
    err = assert_invalid_input(inp)
    assert "dim 50 needs at least 50 structure constants" in err
    assert "lists 4" in err


@pytest.mark.parametrize("conductor", ["0", "-6"])
def test_non_positive_conductor_exit_2(tmp_path, capsys, conductor):
    inp = build(tmp_path, "--group", "S3")
    capsys.readouterr()
    assert main(["analyze", str(inp), "--conductor", conductor]) == 2
    assert main(["build", "--group", "S3", "--conductor", conductor,
                 "--out", str(tmp_path / "never.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("invalid input: ") == 2
    assert not (tmp_path / "never.json").exists()


def test_conductor_one_on_a_rational_document(tmp_path):
    # kQ8 built over Q: --conductor 1 embeds Q into Q, to the same report
    inp = build(tmp_path, "--group", "Q8", "--conductor", "1")
    assert json.loads(inp.read_text())["field"] == {"type": "rational"}
    outs = [tmp_path / "plain.json", tmp_path / "conductor-1.json"]
    codes = [main(["analyze", str(inp), "--format", "json", "--out",
                   str(outs[0])]),
             main(["analyze", str(inp), "--conductor", "1", "--format",
                   "json", "--out", str(outs[1])])]
    assert codes[0] == codes[1]
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_conductor_one_on_a_document_over_q_zeta_1(tmp_path):
    # kS3 over Q with its field written as Q(zeta_1): --conductor 1 maps
    # it into Q, to the sections of the rational document
    inp = build(tmp_path, "--group", "S3", "--conductor", "1")
    doc = json.loads(inp.read_text())
    doc["field"] = {"type": "cyclotomic", "conductor": 1}
    zeta_1 = tmp_path / "zeta-1.json"
    zeta_1.write_text(json.dumps(doc))
    outs = [tmp_path / "plain.json", tmp_path / "zeta-1-report.json"]
    codes = [main(["analyze", str(inp), "--format", "json", "--out",
                   str(outs[0])]),
             main(["analyze", str(zeta_1), "--conductor", "1", "--format",
                   "json", "--out", str(outs[1])])]
    assert codes[0] == codes[1]
    sections = [json.loads(out.read_text())["sections"] for out in outs]
    assert sections[0] == sections[1]


def test_conductor_one_on_a_cyclotomic_document_exit_2(tmp_path):
    inp = build(tmp_path, "--group", "C4")  # over Q(zeta_4)
    err = assert_invalid_input(inp, "--conductor", "1")
    assert "conductor 1 is not a multiple of 4" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on the digits of an integer string")
def test_oversized_scalar_is_not_echoed(tmp_path):
    limit = sys.get_int_max_str_digits()
    doc = {"dim": 1, "field": {"type": "rational"},
           "structure_constants": [[0, 0, 0, "1"]],
           "unit": ["1" * (limit + 701)]}
    inp = tmp_path / "big.json"
    inp.write_text(json.dumps(doc))
    err = assert_invalid_input(inp)
    assert len(err) < 300 and f"({limit} digits)" in err
    assert "'" + "1" * 40 + "'..." in err


@pytest.mark.parametrize("scalar", ["1" * 5001, "1/" + "3" * 5001,
                                    "2 + " + "1" * 5001 + "*z"])
def test_scalar_over_the_digit_limit_exit_2(tmp_path, scalar):
    # the limit is the library's own, on every Python version: the message
    # names it and gives no advice about the interpreter
    doc = {"dim": 1, "field": {"type": "cyclotomic", "conductor": 3},
           "structure_constants": [[0, 0, 0, "1"]], "unit": [scalar]}
    inp = tmp_path / "big.json"
    inp.write_text(json.dumps(doc))
    err = assert_invalid_input(inp)
    assert "an integer has 5001 digits, more than the limit (4300 digits)" \
        in err
    assert "sys." not in err and len(err) < 300


def test_schneider_needs_r_matrix(tmp_path, capsys):
    inp = build(tmp_path, "--group", "C2")  # no R in a group-algebra build
    assert main(["analyze", str(inp), "--check", "schneider"]) == 2


def test_bad_prime_exit_3(tmp_path, capsys):
    inp = build(tmp_path, "--group", "S3")
    # 5 is below twice the dimension and 2 mod 3: rejected up front
    assert main(["analyze", str(inp), "--check", "fd", "--prime", "5"]) == 3


def test_build_dual_and_analyze(tmp_path):
    inp = build(tmp_path, "--group", "S3", "--as", "dual")
    code = main(["analyze", str(inp), "--check", "class-equation",
                 "--out", str(tmp_path / "o.txt")])
    assert code == 0


def test_build_from_table(tmp_path):
    tbl = tmp_path / "table.json"
    tbl.write_text(json.dumps({"table": [[0, 1], [1, 0]]}))
    out = build(tmp_path, "--table", str(tbl))
    doc = json.loads(out.read_text())
    assert doc["dim"] == 2


MALFORMED_TABLES = {
    "top-level-list": [1, 2],
    "no-table-key": {},
    "table-not-a-list": {"table": 5},
    "string-entry": {"table": [["a"]]},
    "float-entry": {"table": [[0, 1], [1, 0.5]]},
    # JSON true and false are not elements, although Python counts them as
    # ints: this table would otherwise read as C2
    "boolean-entries": {"table": [[False, True], [True, False]]},
}


def build_malformed_table(tmp_path, name):
    """``frobdiv build --table`` on MALFORMED_TABLES[name], run as a
    process so that a traceback would show on its stderr."""
    tbl = tmp_path / "table.json"
    tbl.write_text(json.dumps(MALFORMED_TABLES[name]))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "frobdiv.cli", "build",
                           "--table", str(tbl)], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", MALFORMED_TABLES)
def test_build_malformed_table_exit_2(tmp_path, name):
    """``frobdiv build --table`` exits 2 with one line on stderr, no
    traceback and no document."""
    proc = build_malformed_table(tmp_path, name)
    assert proc.returncode == 2
    assert proc.stderr.startswith("invalid group: ")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_build_table_file_without_table_names_the_key(tmp_path):
    proc = build_malformed_table(tmp_path, "no-table-key")
    assert "missing key 'table'" in proc.stderr
