import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import frobdiv.cli as cli
import frobdiv.hopf as hopf
from frobdiv import named_group
from frobdiv.cli import CHECKS, main
from frobdiv.integrality import (InapplicableHypothesis,
                                 NotASymmetricHomomorphism)
from frobdiv.scalars import MAX_PHI, conductor_error, rat
from frobdiv.serialize import MAX_DIM, algebra_to_json, canonical_dumps

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
    lam = {0: A.field.one, 1: A.field.one}  # annihilates 1 - g
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
    lam = {k: four * c for k, c in delta_form(A).items()}
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
    built = [(A.name, tuple(sorted((k, str(c)) for k, c in lam.items())))
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
    # kS3 over Q with its field written as Q(zeta_1), which is Q: with
    # --conductor 1 or without it, the sections of the rational document,
    # whose field line reads Q
    inp = build(tmp_path, "--group", "S3", "--conductor", "1")
    doc = json.loads(inp.read_text())
    doc["field"] = {"type": "cyclotomic", "conductor": 1}
    zeta_1 = tmp_path / "zeta-1.json"
    zeta_1.write_text(json.dumps(doc))
    runs = [[inp], [zeta_1, "--conductor", "1"], [zeta_1]]
    codes, sections = [], []
    for k, (path, *flags) in enumerate(runs):
        out = tmp_path / f"report-{k}.json"
        codes.append(main(["analyze", str(path), *flags, "--format", "json",
                           "--out", str(out)]))
        sections.append(json.loads(out.read_text())["sections"])
    assert codes == [codes[0]] * 3
    assert sections == [sections[0]] * 3
    assert ["field", "Q"] in sections[0][0]["items"]


def test_conductor_one_on_a_cyclotomic_document_exit_2(tmp_path):
    inp = build(tmp_path, "--group", "C4")  # over Q(zeta_4)
    err = assert_invalid_input(inp, "--conductor", "1")
    assert "conductor 1 is not a multiple of 4" in err


def _report_at(tmp_path, inp, conductor):
    """(exit code, report, field) of ``analyze --check all`` at a
    conductor, with the field line taken out of the report."""
    out = tmp_path / f"conductor-{conductor}.json"
    code = main(["analyze", str(inp), "--check", "all", "--format", "json",
                 "--conductor", conductor, "--out", str(out)])
    report = json.loads(out.read_text())
    items = report["sections"][0]["items"]
    field = next(v for k, v in items if k == "field")
    items.remove(["field", field])
    return code, report, field


@pytest.mark.parametrize("group, kind, conductors", [
    ("C2", "group-algebra", ("1", "2")),
    ("S3", "double", ("3", "6")),
])
def test_conductor_half_of_one_that_is_2_mod_4(tmp_path, group, kind,
                                               conductors):
    # Q(zeta_2m') = Q(zeta_m') for odd m': a document over Q(zeta_2) or
    # Q(zeta_6) is read at --conductor 1 or 3 with zeta_2m' as
    # -zeta_m'^((m'+1)/2), to the report at its own conductor but for the
    # field line
    inp = build(tmp_path, "--group", group, "--as", kind)
    half, own = (_report_at(tmp_path, inp, c) for c in conductors)
    assert half[0] == own[0] == 0
    assert half[1] == own[1]
    assert (half[2], own[2]) == ({"1": "Q", "3": "Q(zeta_3)"}[conductors[0]],
                                f"Q(zeta_{conductors[1]})")


@pytest.mark.parametrize("group, conductor, source", [
    ("S3", "2", 6), ("S3", "4", 6), ("C4", "2", 4), ("Q8", "3", 4)])
def test_conductor_outside_both_embeddings_exit_2(tmp_path, group,
                                                  conductor, source):
    inp = build(tmp_path, "--group", group)
    err = assert_invalid_input(inp, "--conductor", conductor)
    assert f"conductor {conductor} is not a multiple of {source}" in err


def test_dim_above_the_limit_exit_2(tmp_path):
    # dim 20000 with c_0j^j = 1: a document of about 560 KB whose table
    # would hold 4e8 cells is refused before the table is built
    dim = 20000
    doc = {"dim": dim, "field": {"type": "rational"},
           "structure_constants": [[0, j, j, "1"] for j in range(dim)],
           "unit": ["1"] + ["0"] * (dim - 1)}
    inp = tmp_path / "huge.json"
    inp.write_text(json.dumps(doc))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    err = assert_invalid_input(inp)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert f"dim {dim} is above the limit {MAX_DIM}" in err
    assert (after.ru_utime + after.ru_stime
            - before.ru_utime - before.ru_stime) < 1.0


def field_bound_args(tmp_path, case):
    """The arguments of ``frobdiv`` for one input that names a field
    above MAX_PHI."""
    if case.startswith("analyze"):
        c2 = build(tmp_path, "--group", "C2")
        return ["analyze", str(c2), "--check", "fd", "--conductor",
                "1000000000"]
    if case == "document":
        inp = tmp_path / "field.json"
        inp.write_text(json.dumps(
            {"dim": 1, "field": {"type": "cyclotomic", "conductor": 10 ** 8},
             "structure_constants": [[0, 0, 0, "1"]], "unit": ["1"]}))
        return ["analyze", str(inp)]
    if case.startswith("build --conductor"):
        return ["build", "--group", "C2", "--conductor", "1000000000"]
    # kC97, whose exponent 97 has phi = 96
    tbl = tmp_path / "c97-table.json"
    tbl.write_text(json.dumps(
        {"table": [[(a + b) % 97 for b in range(97)] for a in range(97)]}))
    return ["build", "--table", str(tbl)]


@pytest.mark.parametrize("case", ["analyze --conductor 10^9", "document",
                                  "build --conductor 10^9",
                                  "build --table C97"])
def test_field_above_the_limit_exit_2(tmp_path, case):
    # refused before the field is built: one line on stderr, no traceback,
    # and under 2 s of CPU
    args = field_bound_args(tmp_path, case)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "frobdiv.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("invalid input: conductor ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert f"limit {MAX_PHI}" in proc.stderr
    assert (after.ru_utime + after.ru_stime
            - before.ru_utime - before.ru_stime) < 2.0


def test_field_bound():
    # phi(105) = phi(210) = 48 pass; phi(106) = 52 does not, and a
    # conductor above 2 MAX_PHI^2 is refused by its size alone
    assert conductor_error(105) is None and conductor_error(210) is None
    assert "phi(106) = 52" in conductor_error(106)
    assert "phi(4608) = 1536" in conductor_error(2 * MAX_PHI ** 2)
    assert "above 4608" in conductor_error(4609)


def test_build_above_the_dim_limit_exit_2(tmp_path):
    # D(C70) has dim 70^2 = 4900 > MAX_DIM: refused before the table is
    # checked, with one line on stderr, no traceback and under 2 s of CPU
    tbl = tmp_path / "c70-table.json"
    tbl.write_text(json.dumps(
        {"table": [[(a + b) % 70 for b in range(70)] for a in range(70)]}))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "frobdiv.cli", "build",
                           "--table", str(tbl), "--as", "double",
                           "--conductor", "1"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"invalid input: the double of a group of order "
                           f"70 has dim 4900, above the limit {MAX_DIM}\n")
    assert (after.ru_utime + after.ru_stime
            - before.ru_utime - before.ru_stime) < 2.0


class CyclicRow:
    """Row a of the Cayley table of C_n, made on demand."""

    def __init__(self, a, n):
        self.a, self.n = a, n

    def __len__(self):
        return self.n

    def __getitem__(self, b):
        return (self.a + b) % self.n


def test_build_of_order_above_the_dim_limit_exit_2(tmp_path, monkeypatch,
                                                   capsys):
    # the table of C4097, whose group algebra has dim 4097 > MAX_DIM, is
    # refused by its number of rows before ``group_from_table`` reads
    # them; the rows are made on demand, so no 4097^2 cells are held
    n = MAX_DIM + 1
    monkeypatch.setattr(cli, "load_path", lambda path: {
        "table": [CyclicRow(a, n) for a in range(n)]})

    def unreachable(*args, **kwargs):
        raise AssertionError("group_from_table ran")

    monkeypatch.setattr(cli, "group_from_table", unreachable)
    assert main(["build", "--table", str(tmp_path / "c4097-table.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"invalid input: the group-algebra of a group of order {n} has dim "
        f"{n}, above the limit {MAX_DIM}\n")


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


@pytest.mark.parametrize("check, error", [
    ("schneider_check", NotASymmetricHomomorphism("unit not preserved")),
    ("class_equation_check",
     InapplicableHypothesis("Gamma^mu(1) is not scalar")),
], ids=["schneider-D(S3)", "class-equation-kS3"])
def test_failed_internal_check_exit_3(tmp_path, capsys, monkeypatch, check,
                                      error):
    # a hypothesis the checks establish before they read it, failing inside
    # one of them, is an internal inconsistency: exit 3, one line
    kind = ["--as", "double"] if check == "schneider_check" else []
    inp = build(tmp_path, "--group", "S3", *kind)

    def failing(session):
        raise error

    monkeypatch.setattr(hopf, check, failing)
    capsys.readouterr()
    assert main(["analyze", str(inp), "--check", "all"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"internal inconsistency: {error}\n"


@pytest.mark.parametrize("command", ["analyze", "build"])
def test_unwritable_out_exit_2(tmp_path, capsys, command):
    inp = build(tmp_path, "--group", "C2")
    out = str(tmp_path / "missing-dir" / "x.json")
    args = ([command, str(inp)] if command == "analyze"
            else [command, "--group", "C2"])
    capsys.readouterr()
    assert main([*args, "--out", out]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("cannot write output: ")
    assert err.count("\n") == 1 and "missing-dir" in err


def test_schneider_needs_r_matrix(tmp_path, capsys):
    inp = build(tmp_path, "--group", "C2")  # no R in a group-algebra build
    assert main(["analyze", str(inp), "--check", "schneider"]) == 2


@pytest.mark.parametrize("mode", ["delta-one", "custom"])
def test_lambda_on_a_hopf_document_exit_2(tmp_path, capsys, mode):
    inp = build(tmp_path, "--group", "S3")  # carries a "lambda" entry
    assert main(["analyze", str(inp), "--lambda", mode]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "--lambda applies to algebra documents" in err
    assert main(["analyze", str(inp), "--lambda", "regular",
                 "--check", "fd"]) == 0


def _scaled_s3_over_q(tmp_path):
    """kS3 over Q on the basis 13 x_g (not a Hopf document): every
    structure constant is 13 and the unit is x_e / 13, so 13 divides a
    structure-constant denominator."""
    G = named_group("S3")
    doc = {"dim": G.order, "field": {"type": "rational"},
           "structure_constants": [[i, j, G.table[i][j], "13"]
                                   for i in range(G.order)
                                   for j in range(G.order)],
           "unit": ["1/13" if i == G.identity else "0"
                    for i in range(G.order)]}
    inp = tmp_path / "scaled.json"
    inp.write_text(json.dumps(doc))
    return inp


BAD_PRIMES = {
    # kS3 over Q(zeta_6), dim 6
    "not-prime": (None, "10", "10 is not prime"),
    "not-1-mod-n": (None, "5", "5 is not 1 mod the conductor 6"),
    "below-twice-dim": (None, "7", "7 is not greater than twice the "
                                   "dimension"),
    "divides-denominator": (_scaled_s3_over_q, "13",
                            "13 divides a structure-constant denominator"),
    # the least strong pseudoprime to the twelve Miller-Rabin bases
    "proof-bound": (None, "318665857834031151167461",
                    "318665857834031151167461 is not below "
                    "318665857834031151167461, under which the primality "
                    "test is a proof"),
}


@pytest.mark.parametrize("case", sorted(BAD_PRIMES))
def test_bad_prime_exit_2(tmp_path, capsys, case):
    # a --prime that breaks the good-prime policy is invalid input,
    # rejected before any analysis with one line
    make, prime, reason = BAD_PRIMES[case]
    inp = make(tmp_path) if make else build(tmp_path, "--group", "S3")
    capsys.readouterr()
    assert main(["analyze", str(inp), "--check", "fd", "--prime",
                 prime]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"invalid input: {reason}\n"


def test_large_prime_with_a_large_factor_below_p(tmp_path, capsys):
    # p = 2q + 1 for a prime q: the root of unity mod p is found without
    # factoring p - 1
    inp = build(tmp_path, "--group", "C2")
    capsys.readouterr()
    assert main(["analyze", str(inp), "--check", "fd", "--prime",
                 "20000000000000002559"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_bad_prime_found_downstream_exit_3(tmp_path, capsys):
    # Q(sqrt 13) = Q[x]/(x^2 - 13) passes the policy at 13, but is not
    # semisimple mod 13: the pinned prime fails in the modular pipeline
    doc = {"dim": 2, "field": {"type": "rational"},
           "structure_constants": [[0, 0, 0, "1"], [0, 1, 1, "1"],
                                   [1, 0, 1, "1"], [1, 1, 0, "13"]],
           "unit": ["1", "0"]}
    inp = tmp_path / "sqrt13.json"
    inp.write_text(json.dumps(doc))
    assert main(["analyze", str(inp), "--prime", "13"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("modular pipeline failed: ")
    assert err.count("\n") == 1
    assert main(["analyze", str(inp), "--out", str(tmp_path / "r")]) == 1


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
