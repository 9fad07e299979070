import pytest

from frobdiv import (
    HopfAnalysis,
    HopfError,
    QQ,
    Rat,
    central_primitive_idempotents,
    class_equation_check,
    double_projection,
    drinfeld_double,
    dual_algebra,
    dual_hopf,
    factorizable_check,
    frobenius_divisibility_hopf,
    frobenius_structure,
    group_algebra,
    hopf_casimir,
    integrals,
    named_group,
    quasitriangular_verify,
    representation_ring,
    verify_hopf,
    zhu_check,
)
from frobdiv.hopf import HopfAlgebraData


def rq(x, y=1):
    return QQ.from_rat(Rat(x, y))


def s3_session():
    return HopfAnalysis(group_algebra(named_group("S3")))


def test_group_hopf_axioms():
    for name in ("C2", "S3", "Q8"):
        H = group_algebra(named_group(name))
        rep = verify_hopf(H)
        assert rep.passed, (name, rep.failures[:3])


def test_corrupted_antipode_fails():
    H = group_algebra(named_group("S3"))
    bad = HopfAlgebraData(H.algebra, H.delta, H.counit,
                          [{j: QQ.one} for j in range(6)], name="bad")
    rep = verify_hopf(bad)
    assert not rep.passed


def test_integrals_group_algebra():
    I = s3_session().integrals
    # Lambda = sum of group elements, normalized so <eps, Lambda> = 6
    assert I.Lambda == dict.fromkeys(range(6), rq(1))
    # lambda(g) = delta_{g, 1}
    assert I.lam == {0: rq(1)}
    assert I.Lambda0 == dict.fromkeys(range(6), rq(1, 6))


def test_integrals_reject_a_form_that_is_no_integral_of_the_dual():
    H = group_algebra(named_group("S3"))
    # Delta(x_e) = 2 x_e (x) x_e: (Id (x) lambda) Delta(x_e) = 2 x_e, while
    # lambda(x_e) 1 = x_e; the table, the counit and the integral are kept
    (e, _), = H.algebra.unit.items()
    delta = list(H.delta)
    delta[e] = {idx: 2 * c for idx, c in delta[e].items()}
    bad = HopfAlgebraData(H.algebra, delta, H.counit, H.antipode_columns)
    with pytest.raises(HopfError, match="not a two-sided integral of the "
                                        "dual"):
        integrals(bad)


def test_hopf_casimir_s3():
    c = hopf_casimir(s3_session())
    # c = sum_g g^{-1} (x) g for a group algebra
    G = named_group("S3")
    n = 6
    assert c == {G.inverse[g] * n + g: rq(1) for g in range(n)}


def test_dual_algebra_and_double_dual():
    H = group_algebra(named_group("S3"))
    dual = dual_algebra(H)
    # dual of a group algebra is the function algebra: pointwise product
    for i in range(6):
        for j in range(6):
            want = {i: QQ.one} if i == j else {}
            assert dual.table[i][j] == want
    # double dual has the original multiplication table
    dd = dual_hopf(dual_hopf(H))
    assert dd.algebra.table == H.algebra.table
    assert dd.delta == H.delta
    assert dd.counit == H.counit
    assert dd.antipode.entries == H.antipode.entries


def test_dual_hopf_is_hopf():
    H = group_algebra(named_group("S3"))
    Hd = dual_hopf(H)
    assert verify_hopf(Hd).passed
    Id = integrals(Hd)
    # integral of the dual is dim * delta_e
    assert Id.Lambda == {0: rq(6)}


def test_representation_ring_s3():
    S = s3_session()
    RR = representation_ring(S)
    W = S.wedderburn
    r = RR.ring.dim
    assert r == 3
    # locate the 2-dimensional character
    v = W.degrees.index(2)
    # V (x) V = 1 + sgn + V
    assert RR.ring.table[v][v] == {0: rq(1), 1: rq(1), 2: rq(1)}
    # duality: every S3 character is self-dual
    assert RR.dual_index == [0, 1, 2]
    # delta form picks out the trivial character only
    assert sum(1 for x in RR.frobenius.lam.values() if bool(x)) == 1


def test_representation_ring_casimir_is_diagonal_sum():
    # for the delta-form on R(H), the Casimir is sum_S [S] (x) [S*]
    RR = representation_ring(s3_session())
    r = RR.ring.dim
    assert RR.frobenius.casimir == {RR.dual_index[s] * r + s: rq(1)
                            for s in range(r)}


def test_frobenius_divisibility_hopf_s3():
    S = s3_session()
    verdict = frobenius_divisibility_hopf(S)
    assert verdict.holds
    assert verdict.gamma_one == 6
    assert sorted(S.wedderburn.degrees) == [1, 1, 2]


def test_zhu_group_algebra():
    entries = zhu_check(s3_session())
    assert len(entries) == 3
    for e in entries:
        assert e.central and e.identity_ok and e.integral and e.divides


def test_class_equation_s3():
    rep = class_equation_check(s3_session())
    assert sorted(rep.induced_dims) == [1, 2, 3]
    assert rep.holds


def test_class_equation_dual_s3():
    rep = class_equation_check(
        HopfAnalysis(dual_hopf(group_algebra(named_group("S3")))))
    assert all(6 % m == 0 for m in rep.induced_dims)
    assert rep.holds


def test_quasitriangular_trivial_r():
    # R = 1 (x) 1 is a quasitriangular structure on any cocommutative
    # commutative Hopf algebra; kC6 is both
    H = group_algebra(named_group("C6"))
    Q = quasitriangular_verify(H, {0: rq(1)})
    assert Q.report.passed
    v = factorizable_check(Q)
    assert not v.factorizable and v.rank == 1 and v.dim == 6


def test_drinfeld_double_c2():
    G = named_group("C2")
    H, Q = drinfeld_double(G)
    assert H.dim == 4
    assert verify_hopf(H).passed
    assert Q.report.passed
    I = integrals(H)
    frob = frobenius_structure(H.algebra, I.lam)
    W = central_primitive_idempotents(H.algebra, frob)
    assert W.degrees == [1, 1, 1, 1]
    v = factorizable_check(Q)
    assert v.factorizable and v.rank == 4


def test_double_projection_c2():
    G = named_group("C2")
    double, _ = drinfeld_double(G)
    target = group_algebra(G, field=double.field)
    pi = double_projection(G, double, target)
    # delta_x (x) g maps to [x = e] g
    m = G.order
    for x in range(m):
        for g in range(m):
            col = pi[x * m + g]
            want = {g: target.field.one} if x == G.identity else {}
            assert col == want


def test_double_projection_corrupted_map_rejected():
    G = named_group("C2")
    double, _ = drinfeld_double(G)
    target = group_algebra(G, field=double.field)
    pi = double_projection(G, double, target)
    bad = [dict(image) for image in pi]
    bad[1][0] = double.field.one  # no longer an algebra map
    from frobdiv.hopf import _verify_hopf_map
    with pytest.raises(HopfError):
        _verify_hopf_map(double, target, bad)
