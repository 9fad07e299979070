"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass line when it succeeds; a failing assert
surfaces as a normal pytest failure for that criterion.
"""

import random
import time

import pytest

from frobdiv import (
    DegenerateForm,
    HopfAnalysis,
    InapplicableHypothesis,
    Matrix,
    QQ,
    Rat,
    TensorSquareAlgebra,
    central_primitive_idempotents,
    class_equation_check,
    drinfeld_double,
    dual_hopf,
    factorizable_check,
    frobenius_divisibility_verdict,
    frobenius_structure,
    group_algebra,
    is_integral_over_Z,
    named_group,
    quasitriangular_verify,
    schneider_check,
    zhu_check,
)
from frobdiv.algebra import StructureConstantAlgebra
from frobdiv.linalg import sparse

from conftest import delta_form, group_algebra_plain, matrix_algebra_2x2
from dense_oracle import matrix_trace
from identity_oracle import (casimir_square_components,
                             check_casimir_identities, evaluate, reconstruct,
                             trace_via_casimir, verify_cprid_formula)

GROUPS = ("C2", "C6", "S3", "D4", "Q8", "A4")
EXPECTED_DEGREES = {
    "C2": [1, 1], "C6": [1] * 6, "S3": [1, 1, 2], "D4": [1, 1, 1, 1, 2],
    "Q8": [1, 1, 1, 1, 2], "A4": [1, 1, 1, 3],
}


def _session(name):
    G = named_group(name)
    return HopfAnalysis(group_algebra(G, conductor=G.exponent))


def ok(num, text):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_01_group_algebra_divisibility():
    for name in GROUPS:
        t0 = time.monotonic()
        S = _session(name)
        H, frob, data = S.H, S.frobenius, S.wedderburn
        order = H.dim
        assert sorted(data.degrees) == EXPECTED_DEGREES[name]
        assert all(order % d == 0 for d in data.degrees)
        T = TensorSquareAlgebra(H.algebra)
        cert = is_integral_over_Z(H.field, T.dim, T.unit,
                                  lambda z: T.mult(frob.casimir, z))
        assert cert.integral
        # both sides of the divisibility equivalence, cross-checked
        # internally; an EquivalenceViolation would escape the assert
        verdict = frobenius_divisibility_verdict(frob, data)
        assert verdict.holds and verdict.direct == [True] * len(data.degrees)
        assert time.monotonic() - t0 < 10.0
    ok(1, "divisibility and expected degrees for all six group algebras")


def test_criterion_02_casimir_identity_suite():
    rng = random.Random(3)
    fixtures = [
        (group_algebra_plain("C2"), None), (group_algebra_plain("S3"), None),
        (group_algebra_plain("D4"), None), (matrix_algebra_2x2(),
                                            {0: QQ.one, 3: QQ.one}),
    ]
    for A, lam in fixtures:
        F = frobenius_structure(A, lam if lam else delta_form(A))
        assert check_casimir_identities(F).passed
        for _ in range(50):
            ent = [[QQ.from_rat(Rat(rng.randint(-9, 9)))
                    for _ in range(A.dim)] for _ in range(A.dim)]
            f = Matrix(QQ, ent)
            assert trace_via_casimir(F, f) == matrix_trace(f)
        chi = A.regular_character()
        g1 = F.gamma_one()
        for i in range(A.dim):
            a = {i: QQ.one}
            assert A.apply_form(chi, a) == evaluate(F, A.multiply(g1, a))
            assert reconstruct(F, a) == a
    ok(2, "Casimir identities, trace formula, regular character, "
          "reconstruction")


def test_criterion_03_central_primitive_idempotents():
    for name in ("C2", "S3", "D4"):
        A = group_algebra_plain(name)
        F = frobenius_structure(A, delta_form(A))
        data = central_primitive_idempotents(A, frobenius=F)
        assert all(verify_cprid_formula(F, data))
    A = group_algebra_plain("S3")
    F = frobenius_structure(A, delta_form(A))
    data = central_primitive_idempotents(A, frobenius=F)
    sixth, third = QQ.from_rat(Rat(1, 6)), QQ.from_rat(Rat(1, 3))
    sym = [sixth] * 6
    sgn = [sixth, -sixth, -sixth, -sixth, sixth, sixth]
    std = [third + third, QQ.zero, QQ.zero, QQ.zero, -third, -third]

    def key(v):
        return [(k, c.sort_key()) for k, c in sorted(v.items())]

    assert (sorted(data.idempotents, key=key)
            == sorted(map(sparse, [sym, sgn, std]), key=key))
    ok(3, "idempotent formula on all fixtures; explicit QS3 idempotents")


def test_criterion_04_casimir_square_components():
    S = _session("S3")
    H, frob, data = S.H, S.frobenius, S.wedderburn
    # off-diagonal vanishing and the element identity are asserted inside
    c_mat, csq_mat = casimir_square_components(frob, data)
    K = H.field
    diag = sorted(K.as_rat(csq_mat[s][s]) for s in range(3))
    assert diag == [Rat(9), Rat(36), Rat(36)]
    for s in range(3):
        d = data.degrees[s]
        assert K.as_rat(csq_mat[s][s]) == Rat(H.dim, d) ** 2
    ok(4, "Casimir square diagonal {36, 36, 9} for kS3; off-diagonal zero")


def test_criterion_05_hopf_integrals_and_casimir():
    from frobdiv import hopf_casimir
    for name in GROUPS:
        S = _session(name)
        H, I = S.H, S.integrals
        one = H.field.one
        assert I.Lambda == dict.fromkeys(range(H.dim), one)
        assert I.lam == {0: one}
        # four-way equality, dual-basis agreement, Gamma^lambda(1) = dim,
        # Gamma^Lambda(eps) = 1 are all asserted inside
        hopf_casimir(S)
    for H in (dual_hopf(group_algebra(named_group("S3"))),
              drinfeld_double(named_group("C2"))[0]):
        hopf_casimir(HopfAnalysis(H))
    ok(5, "integrals and the four-way Casimir identity on every Hopf "
          "instance")


def test_criterion_06_class_equation():
    t0 = time.monotonic()
    rep = class_equation_check(_session("S3"))
    assert sorted(rep.induced_dims) == [1, 2, 3]
    assert rep.holds
    assert time.monotonic() - t0 < 30.0
    for build in ("D4", "Q8"):
        t0 = time.monotonic()
        assert class_equation_check(_session(build)).holds
        assert time.monotonic() - t0 < 30.0
    t0 = time.monotonic()
    Hd = dual_hopf(group_algebra(named_group("S3")))
    assert class_equation_check(HopfAnalysis(Hd)).holds
    assert time.monotonic() - t0 < 30.0
    ok(6, "class equation for kS3 {1,2,3}, kD4, kQ8 and (kS3)*")


def test_criterion_07_zhu():
    for name in GROUPS:
        entries = zhu_check(_session(name))
        for e in entries:
            assert e.central
            assert e.identity_ok  # e(S) dim/d = Lambda <- chi_{S*}
            assert e.integral and e.divides
    ok(7, "Zhu divisibility with the proof identity on every group algebra")


def test_criterion_08_schneider():
    t0 = time.monotonic()
    G = named_group("S3")
    H, Q = drinfeld_double(G)
    assert Q.report.passed
    S = HopfAnalysis(H, Q.R)
    S.quasitriangular = Q
    data = S.wedderburn
    assert sorted(data.degrees) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert sum(d * d for d in data.degrees) == 36
    assert all(36 % (d * d) == 0 for d in data.degrees)
    fv = S.factorizable
    assert fv.factorizable and fv.rank == 36
    sch = schneider_check(S)
    assert all(sch.psi_checks.values())
    assert sch.holds
    assert time.monotonic() - t0 < 300.0
    # kS3 with the trivial R-matrix: quasitriangular but not factorizable
    Hs = group_algebra(G, conductor=G.exponent)
    Qs = quasitriangular_verify(Hs, {0: Hs.field.one})
    assert Qs.report.passed
    vs = factorizable_check(Qs)
    assert not vs.factorizable and vs.rank == 1
    ok(8, "D(S3) factorizable with degrees {1,1,2,2,2,2,3,3}; "
          "(kS3, 1(x)1) not factorizable")


def test_criterion_09_negative_controls():
    # degenerate form, with a witness spanning an ideal in the radical
    A = group_algebra_plain("C2")
    lam = {0: QQ.one, 1: QQ.one}
    with pytest.raises(DegenerateForm) as exc:
        frobenius_structure(A, lam)
    w = exc.value.witness
    for j in range(A.dim):
        assert A.apply_form(lam, A.multiply(w, {j: QQ.one})) == QQ.zero
    # perturbed structure constants fail verification
    S3 = group_algebra_plain("S3")
    bad = [[dict(S3.table[i][j]) for j in range(6)] for i in range(6)]
    (k, c), = bad[3][4].items()
    bad[3][4] = {(k + 1) % 6: c}
    assert not StructureConstantAlgebra(QQ, 6, bad, S3.unit).verify().passed
    # rescaling the kC2 form by 3 gives Gamma(1) = 2/3, not an integer
    C2 = group_algebra_plain("C2")
    three = QQ.from_rat(Rat(3))
    F = frobenius_structure(C2, {k: three * c
                                 for k, c in delta_form(C2).items()})
    data = central_primitive_idempotents(C2)
    with pytest.raises(InapplicableHypothesis, match="2/3"):
        frobenius_divisibility_verdict(F, data)
    ok(9, "degenerate form, perturbed constants, and rescaled form all "
          "rejected")


def test_criterion_10_determinism(tmp_path):
    from frobdiv.cli import main
    fixtures = []
    s3 = tmp_path / "s3.json"
    assert main(["build", "--group", "S3", "--out", str(s3)]) == 0
    fixtures.append((s3, "all"))
    d4 = tmp_path / "d4.json"
    assert main(["build", "--group", "D4", "--out", str(d4)]) == 0
    fixtures.append((d4, "fd"))
    for path, check in fixtures:
        reports = []
        for i, p in enumerate((13, 19, 31) if check == "all" else
                              (17, 41, 73)):
            out = tmp_path / f"{path.stem}-{i}.json"
            assert main(["analyze", str(path), "--check", check,
                         "--prime", str(p), "--format", "json",
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]
    # WedderburnData agrees field by field across primes
    A = group_algebra_plain("S3")
    F = frobenius_structure(A, delta_form(A))
    runs = [central_primitive_idempotents(A, frobenius=F, prime=p)
            for p in (13, 19, 31)]
    for other in runs[1:]:
        assert other.idempotents == runs[0].idempotents
        assert other.degrees == runs[0].degrees
        assert other.block_dims == runs[0].block_dims
        assert other.center_dims == runs[0].center_dims
        assert other.characters == runs[0].characters
        assert other.split_certified == runs[0].split_certified
    ok(10, "three distinct good primes give identical data and reports")
