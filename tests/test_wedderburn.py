import random

import pytest

from frobdiv import (
    CyclotomicField,
    Poly,
    QQ,
    Rat,
    central_primitive_idempotents,
    drinfeld_double,
    field_roots,
    frobenius_structure,
    group_algebra,
    named_group,
)
from frobdiv.algebra import combine
from frobdiv.linalg import sparse
from frobdiv.scalars import Cyc
from frobdiv.wedderburn import gamma_one_eigenvalue

from conftest import delta_form, group_algebra_plain, matrix_algebra_2x2
from dense_oracle import permute_algebra
from identity_oracle import (casimir_square_components,
                             irreducible_characters, verify_cprid_formula)


def rq(x, y=1):
    return QQ.from_rat(Rat(x, y))


def vec_key(v):
    """A sort key for a sparse vector of scalars, which have no order of
    their own."""
    return [(k, c.sort_key()) for k, c in sorted(v.items())]


def s3_setup():
    A = group_algebra_plain("S3")
    F = frobenius_structure(A, delta_form(A))
    data = central_primitive_idempotents(A, frobenius=F)
    return A, F, data


def test_qs3_idempotents_explicit():
    # basis order: e, (12), (13), (23), (123), (132)
    A, F, data = s3_setup()
    assert data.degrees == [1, 1, 2]
    sixth, third = rq(1, 6), rq(1, 3)
    sym = [sixth] * 6
    sgn = [sixth, -sixth, -sixth, -sixth, sixth, sixth]
    std = [rq(2, 3), rq(0), rq(0), rq(0), -third, -third]
    got = sorted(data.idempotents, key=vec_key)
    assert got == sorted(map(sparse, [sym, sgn, std]), key=vec_key)
    assert all(data.split_certified)


def test_qs3_block_data():
    A, F, data = s3_setup()
    assert data.block_dims == [1, 1, 4]
    assert data.center_dims == [1, 1, 1]
    assert data.num_blocks == 3
    # idempotent system: orthogonal, sum to 1
    for i, e in enumerate(data.idempotents):
        assert A.multiply(e, e) == e
        for j, f in enumerate(data.idempotents):
            if i != j:
                assert A.multiply(e, f) == {}
    assert combine((QQ.one, e) for e in data.idempotents) == A.unit


def test_qs3_characters():
    A, F, data = s3_setup()
    chars = irreducible_characters(A, data)
    triv = [rq(1)] * 6
    sgn = [rq(1), rq(-1), rq(-1), rq(-1), rq(1), rq(1)]
    std = [rq(2), rq(0), rq(0), rq(0), rq(-1), rq(-1)]
    assert (sorted(chars, key=vec_key)
            == sorted(map(sparse, [triv, sgn, std]), key=vec_key))
    # chi_S(e_T) = delta d
    for s, chi in enumerate(chars):
        for t, e in enumerate(data.idempotents):
            v = A.apply_form(chi, e)
            want = rq(data.degrees[s]) if s == t else rq(0)
            assert v == want


def test_determinism_across_primes():
    A = group_algebra_plain("S3")
    F = frobenius_structure(A, delta_form(A))
    runs = [central_primitive_idempotents(A, frobenius=F, prime=p)
            for p in (13, 19, 31)]
    base = runs[0]
    for other in runs[1:]:
        assert other.idempotents == base.idempotents
        assert other.degrees == base.degrees
        assert other.characters == base.characters


def test_cprid_formula():
    A, F, data = s3_setup()
    assert verify_cprid_formula(F, data) == [True, True, True]


def test_casimir_square_components_s3():
    A, F, data = s3_setup()
    c_mat, csq_mat = casimir_square_components(F, data)
    # diagonal of c: (dim/d)^2 / ... for the delta-form: {6, 6, 3/2}
    diag_c = sorted([c_mat[s][s] for s in range(3)], key=Cyc.sort_key)
    assert diag_c == sorted([rq(6), rq(6), rq(3, 2)], key=Cyc.sort_key)
    # d^2 (c^2)_{S,S} = Gamma(1)_S^2 = 36 in every block
    diag_sq = sorted([csq_mat[s][s] for s in range(3)], key=Cyc.sort_key)
    assert diag_sq == sorted([rq(36), rq(36), rq(9)], key=Cyc.sort_key)
    # off-diagonal vanishing was asserted internally; spot check
    assert c_mat[0][1] == rq(0) and csq_mat[0][1] == rq(0)


def test_gamma_one_eigenvalues_s3():
    A, F, data = s3_setup()
    # Gamma(1) = |G| for the point-evaluation form on a group algebra
    vals = [gamma_one_eigenvalue(F, data, s) for s in range(3)]
    assert vals == [rq(6), rq(6), rq(6)]


def test_kc2_components():
    A = group_algebra_plain("C2")
    F = frobenius_structure(A, delta_form(A))
    data = central_primitive_idempotents(A, frobenius=F)
    assert data.degrees == [1, 1]
    c_mat, csq_mat = casimir_square_components(F, data)
    assert [c_mat[s][s] for s in range(2)] == [rq(2), rq(2)]
    assert [csq_mat[s][s] for s in range(2)] == [rq(4), rq(4)]


def test_matrix_algebra_split():
    A = matrix_algebra_2x2()
    data = central_primitive_idempotents(A)
    assert data.degrees == [2]
    assert data.idempotents == [A.unit]
    assert data.split_certified == [True]


def test_trivial_algebra():
    from frobdiv import StructureConstantAlgebra
    A = StructureConstantAlgebra(QQ, 1, [[{0: QQ.one}]], [QQ.one])
    data = central_primitive_idempotents(A)
    assert data.degrees == [1] and data.idempotents == [{0: QQ.one}]


def test_q8_over_qi_vs_q():
    Qi = CyclotomicField(4)
    A = group_algebra_plain("Q8", field=Qi)
    data = central_primitive_idempotents(A)
    assert data.degrees == [1, 1, 1, 1, 2]
    assert all(data.split_certified)
    # over Q the quaternion block is a division algebra; no degree-2
    # irreducible module exists, so that block stays uncertified
    B = group_algebra_plain("Q8")
    dq = central_primitive_idempotents(B)
    assert dq.block_dims.count(4) == 1
    assert not all(dq.split_certified)
    assert sum(1 for x in dq.split_certified if not x) == 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 14, 17])
def test_split_certified_on_relabelled_ka4(seed):
    # in the bases of seeds 4, 5, 14 and 17 no echelon basis vector or
    # random combination of the degree-3 block has an eigenspace of
    # dimension 3 over Q(zeta_6); the images x_j e of the group elements do
    G = named_group("A4")
    A = group_algebra(G, conductor=G.exponent).algebra
    perm = list(range(A.dim))
    random.Random(seed).shuffle(perm)
    data = central_primitive_idempotents(permute_algebra(A, perm))
    assert data.degrees == [1, 1, 1, 3]
    assert all(data.split_certified)


def test_certificate_found_among_the_images(monkeypatch):
    import frobdiv.wedderburn as wedderburn
    tried = []
    original = wedderburn._split_candidates

    def recording(*args):
        for b in original(*args):
            tried.append(b)
            yield b

    monkeypatch.setattr(wedderburn, "_split_candidates", recording)
    G = named_group("A4")
    A = group_algebra(G, conductor=G.exponent).algebra
    perm = list(range(A.dim))
    random.Random(4).shuffle(perm)
    A = permute_algebra(A, perm)
    data = central_primitive_idempotents(A)
    e = data.idempotents[data.degrees.index(3)]
    images = [A.multiply({j: A.field.one}, e) for j in range(A.dim)]
    # only the degree-3 block needs a certificate; an image x_j e gave it
    assert all(data.split_certified)
    assert tried and tried[-1] in images


def test_split_certified_on_relabelled_double_s3():
    # in this basis each degree-3 block is certified by an element of rank
    # 1, whose minimal polynomial has degree 2 < 3; no candidate with a
    # minimal polynomial of degree 3 has a 3-dimensional eigenspace
    H, _ = drinfeld_double(named_group("S3"), verify=False)
    perm = list(range(H.dim))
    random.Random(2).shuffle(perm)
    data = central_primitive_idempotents(permute_algebra(H.algebra, perm))
    assert sorted(data.degrees) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert all(data.split_certified)


def test_field_roots_rational():
    # x^2 - 5x + 6
    roots = field_roots(QQ, [rq(6), rq(-5), rq(1)])
    assert roots == [rq(2), rq(3)]
    # x^2 + 1 has no rational roots
    assert field_roots(QQ, [rq(1), rq(0), rq(1)]) == []


def test_field_roots_gaussian():
    K = CyclotomicField(4)
    i = K.zeta()
    # x^2 + 1 = (x - i)(x + i) over Q(i)
    roots = field_roots(K, [K.one, K.zero, K.one])
    assert sorted(roots, key=Cyc.sort_key) == sorted([i, -i], key=Cyc.sort_key)


def _from_roots(field, roots):
    """Coefficients of prod (x - t) over the roots, ascending."""
    f = Poly(field, [field.one])
    for t in roots:
        f = f * Poly(field, [-t, field.one])
    return f.coeffs


def test_field_roots_repeated():
    # repeated roots are roots of the squarefree part f / gcd(f, f')
    assert field_roots(QQ, _from_roots(QQ, [rq(0), rq(0)])) == [rq(0)]
    assert field_roots(QQ, _from_roots(QQ, [rq(1), rq(1), rq(2)])) == \
        [rq(1), rq(2)]
    assert field_roots(QQ, [rq(1), rq(0), rq(1)]) == []
    K = CyclotomicField(4)
    i = K.zeta()
    assert field_roots(K, _from_roots(K, [i, i])) == [i]


def test_field_roots_conductor_24():
    # two roots, so 2^8 choices of roots mod p over the eight components
    K = CyclotomicField(24)
    z = K.zeta()
    roots = [K.zeta(7) * K.from_rat(Rat(2, 3)) - z, K.from_rat(Rat(-3))]
    want = sorted(roots, key=Cyc.sort_key)
    assert field_roots(K, _from_roots(K, roots)) == want
    # the first with multiplicity three, the second with multiplicity two
    assert field_roots(K, _from_roots(K, roots * 2 + roots[:1])) == want
