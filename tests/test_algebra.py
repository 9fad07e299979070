import random

import pytest

from frobdiv import (
    CyclotomicField,
    DegenerateForm,
    Matrix,
    NotATraceForm,
    QQ,
    Rat,
    StructureConstantAlgebra,
    frobenius_structure,
)
from frobdiv.algebra import TensorSquareAlgebra, contract_left, contract_right
from frobdiv.linalg import sparse

from conftest import delta_form, group_algebra_plain, matrix_algebra_2x2
from dense_oracle import dense_commutator_space, matrix_trace
from identity_oracle import (casimir_trace, check_casimir_identities,
                             dual_basis, evaluate, reconstruct,
                             trace_via_casimir)


def rq(x):
    return QQ.from_rat(Rat(x))


def test_group_algebra_verifies():
    A = group_algebra_plain("S3")
    rep = A.verify()
    assert rep.passed


def test_perturbed_constants_rejected():
    A = group_algebra_plain("S3")
    bad = [[dict(A.table[i][j]) for j in range(A.dim)] for i in range(A.dim)]
    # nudge one product; a group table with a single wrong entry is no
    # longer associative
    (k, c), = bad[3][4].items()
    bad[3][4] = {(k + 1) % A.dim: c}
    B = StructureConstantAlgebra(QQ, A.dim, bad, A.unit)
    rep = B.verify()
    assert not rep.passed and rep.failures


def test_center_and_commutator_dims():
    S3 = group_algebra_plain("S3")
    assert len(S3.center_basis()) == 3
    assert len(dense_commutator_space(S3)) == 3
    M2 = matrix_algebra_2x2()
    assert len(M2.center_basis()) == 1
    C6 = group_algebra_plain("C6")
    assert len(C6.center_basis()) == 6
    assert len(dense_commutator_space(C6)) == 0


def test_regular_character_oracle():
    A = group_algebra_plain("S3")
    assert A.regular_character() == {0: rq(6)}


def test_delta_form_gram_c2():
    A = group_algebra_plain("C2")
    F = frobenius_structure(A, delta_form(A))
    # gram[i][j] = <delta_1, g_i g_j> is the identity, and so is its
    # inverse: the Casimir element is g_0 (x) g_0 + g_1 (x) g_1
    assert F.casimir == {0: QQ.one, 3: QQ.one}
    # dual basis of g_i is g_{i^{-1}} = g_i here
    assert dual_basis(F) == [{0: QQ.one}, {1: QQ.one}]
    # Gamma(1) = sum g_i g_i^{-1} = 2 * 1
    assert F.gamma_one() == {0: rq(2)}


def test_dual_basis_defining_property():
    A = group_algebra_plain("S3")
    F = frobenius_structure(A, delta_form(A))
    dual = dual_basis(F)
    for i in range(A.dim):
        for j in range(A.dim):
            v = evaluate(F, A.multiply({i: QQ.one}, dual[j]))
            assert v == (QQ.one if i == j else QQ.zero)


def test_casimir_identity_suite():
    for name in ("S3", "D4", "Q8"):
        A = group_algebra_plain(name)
        F = frobenius_structure(A, delta_form(A))
        rep = check_casimir_identities(F)
        assert rep.passed, (name, rep.failures)


def test_trace_formula_random_endomorphisms():
    A = group_algebra_plain("S3")
    F = frobenius_structure(A, delta_form(A))
    rng = random.Random(7)
    for _ in range(50):
        ent = [[rq(rng.randint(-9, 9)) for _ in range(6)] for _ in range(6)]
        f = Matrix(QQ, ent)
        direct = matrix_trace(f)
        assert trace_via_casimir(F, f) == direct


def test_regular_character_via_casimir_trace():
    # <chi_reg, a> = <lambda, Gamma(1) a> for any trace form lambda
    A = group_algebra_plain("S3")
    F = frobenius_structure(A, delta_form(A))
    chi = A.regular_character()
    g1 = F.gamma_one()
    for i in range(A.dim):
        a = {i: QQ.one}
        lhs = A.apply_form(chi, a)
        rhs = evaluate(F, A.multiply(g1, a))
        assert lhs == rhs
    assert g1 == casimir_trace(F, A.unit)


def test_reconstruction_identity():
    A = group_algebra_plain("D4")
    F = frobenius_structure(A, delta_form(A))
    rng = random.Random(11)
    for _ in range(20):
        a = sparse([rq(rng.randint(-6, 6)) for _ in range(A.dim)])
        assert reconstruct(F, a) == a


def test_matrix_algebra_frobenius():
    # ordinary trace form on M2(Q): lam(e11) = lam(e22) = 1
    A = matrix_algebra_2x2()
    lam = {0: QQ.one, 3: QQ.one}
    F = frobenius_structure(A, lam)
    # Gamma(1) = dim of the simple module squared over ... = 2 * 1 for trace form
    assert F.gamma_one() == {0: rq(2), 3: rq(2)}
    assert check_casimir_identities(F).passed


def test_not_a_trace_form():
    A = matrix_algebra_2x2()
    # lam(e12) = 1 is not symmetric: lam(e12 e21)=lam(e11)=0 but
    # lam(e21 e12)=lam(e22)=0; use lam(e11)=1 only, which fails on e12/e21
    lam = {0: QQ.one}
    with pytest.raises(NotATraceForm):
        frobenius_structure(A, lam)


def test_degenerate_form_witness():
    # on C2, lam = chi at both points of the same value annihilates (1 - g)
    A = group_algebra_plain("C2")
    lam = {0: QQ.one, 1: QQ.one}
    with pytest.raises(DegenerateForm) as exc:
        frobenius_structure(A, lam)
    w = exc.value.witness
    # witness spans the radical of the form: lam(w * x_j) = 0 for all j
    assert w and all(w.values())
    for j in range(A.dim):
        assert A.apply_form(lam, A.multiply(w, {j: QQ.one})) == QQ.zero


def test_tensor_square_contractions():
    A = group_algebra_plain("C2")
    F = frobenius_structure(A, delta_form(A))
    T = TensorSquareAlgebra(A)
    c = F.casimir
    # c = 1 (x) 1 + g (x) g, as a sparse element without zeros
    assert c == {0: QQ.one, 3: QQ.one}
    # (lam (x) id)(c) = 1 and (id (x) lam)(c) = 1
    assert contract_left(F.lam, c, A.dim) == A.unit
    assert contract_right(F.lam, c, A.dim) == A.unit
    # switch is an involution, and swaps the legs of 1 (x) g
    assert T.switch(T.switch(c)) == c
    assert T.switch({1: QQ.one}) == {2: QQ.one}


def test_cyclotomic_group_algebra():
    K = CyclotomicField(3)
    A = group_algebra_plain("C3", field=K)
    assert A.verify().passed
    F = frobenius_structure(A, delta_form(A))
    assert F.gamma_one()[0] == K.from_rat(3)
    assert check_casimir_identities(F).passed
