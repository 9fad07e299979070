import pytest

import frobdiv.hopf as hopf
import frobdiv.integrality as integrality
from frobdiv import (
    CyclotomicField,
    HopfAnalysis,
    InapplicableHypothesis,
    NotASymmetricHomomorphism,
    QQ,
    Rat,
    central_primitive_idempotents,
    drinfeld_double,
    frobenius_divisibility_verdict,
    frobenius_structure,
    is_integral_scalar,
    named_group,
    relative_divisibility,
)
from frobdiv.integrality import (
    is_integral_over_Z,
    minimal_polynomial_over_Q,
    verify_symmetric_homomorphism,
)
from frobdiv.scalars import Cyc

from conftest import delta_form, group_algebra_plain
from ladder import LADDER, ladder_hopf


def rq(x, y=1):
    return QQ.from_rat(Rat(x, y))


def scalar_times(x):
    return lambda v: {0: x * v[0]}


def test_minpoly_scalar_rational():
    assert minimal_polynomial_over_Q(QQ, 1, {0: QQ.one},
                                     scalar_times(rq(3))) == \
        [Rat(-3), Rat(1)]
    assert minimal_polynomial_over_Q(QQ, 1, {0: QQ.one},
                                     scalar_times(rq(1, 2))) == \
        [Rat(-1, 2), Rat(1)]


def test_minpoly_cyclotomic_scalar():
    K = CyclotomicField(3)
    z = K.zeta()
    # minimal polynomial of zeta_3 over Q is x^2 + x + 1
    mp = minimal_polynomial_over_Q(K, 1, {0: K.one}, scalar_times(z))
    assert mp == [Rat(1), Rat(1), Rat(1)]
    # zeta_3 / 2 is not integral
    assert not is_integral_scalar(z / K.from_rat(2))


def test_minpoly_of_group_element():
    A = group_algebra_plain("C2")

    def times(a):
        return lambda v: A.multiply(a, v)

    unit = A.unit
    # g has minimal polynomial x^2 - 1
    assert minimal_polynomial_over_Q(QQ, 2, unit, times({1: rq(1)})) == \
        [Rat(-1), Rat(0), Rat(1)]
    # (1+g)/2 is idempotent: x^2 - x
    half = {0: rq(1, 2), 1: rq(1, 2)}
    assert minimal_polynomial_over_Q(QQ, 2, unit, times(half)) == \
        [Rat(0), Rat(-1), Rat(1)]
    cert = is_integral_over_Z(QQ, 2, unit, times(half))
    assert cert.integral  # idempotents are integral even with 1/2 coords


def test_sums_products_of_integral_elements():
    # ring-of-integers closure spot check in Q(zeta_5): z + z^-1 and
    # products of roots of unity stay integral
    K = CyclotomicField(5)
    z = K.zeta()
    for elt in (z, z * z, z + z ** 4, K.one + z, z * (K.one + z)):
        assert is_integral_scalar(elt)
    assert not is_integral_scalar(z / K.from_rat(3))


def test_verdict_s3_delta_form():
    A = group_algebra_plain("S3")
    F = frobenius_structure(A, delta_form(A))
    data = central_primitive_idempotents(A, frobenius=F)
    v = frobenius_divisibility_verdict(F, data)
    assert v.holds
    assert v.gamma_one == 6
    assert v.direct == [True, True, True]
    assert v.casimir_cert.integral


def test_verdict_rescaled_form_inapplicable():
    # rescaling the form by t scales Gamma(1) by 1/t; t=4 gives 3/2,
    # which is not a rational integer
    A = group_algebra_plain("S3")
    lam = {k: rq(4) * c for k, c in delta_form(A).items()}
    F = frobenius_structure(A, lam)
    data = central_primitive_idempotents(A)
    with pytest.raises(InapplicableHypothesis):
        frobenius_divisibility_verdict(F, data)


def test_verify_symmetric_homomorphism_negative():
    A = group_algebra_plain("C2")
    lam = delta_form(A)
    # identity map with a mismatched target form
    identity = [{0: rq(1)}, {1: rq(1)}]
    bad_mu = {0: rq(1), 1: rq(1, 2)}
    with pytest.raises(NotASymmetricHomomorphism):
        verify_symmetric_homomorphism(A, lam, A, bad_mu, identity)
    # a non-multiplicative map
    bad_phi = [{0: rq(1)}, {}]
    with pytest.raises(NotASymmetricHomomorphism):
        verify_symmetric_homomorphism(A, lam, A, lam, bad_phi)


def test_relative_divisibility_subgroup():
    # C2 < S3 via an order-2 element; phi sends 1 -> e, g -> (12)
    A = group_algebra_plain("C2")
    B = group_algebra_plain("S3")
    lam = delta_form(A)
    mu = delta_form(B)
    phi = [{0: rq(1)}, {1: rq(1)}]
    FA = frobenius_structure(A, lam)
    FB = frobenius_structure(B, mu)
    dA = central_primitive_idempotents(A, frobenius=FA)
    rep = relative_divisibility(A, FA, dA, B, FB, phi)
    # kS3 is free of rank 3 over kC2: both induced modules have dim 3
    assert rep.induced_dims == [3, 3]
    assert rep.scalars == [rq(2), rq(2)]
    assert rep.integral == [True, True]
    assert rep.ratio_checks == [True, True]


def test_relative_divisibility_unit_subalgebra():
    # k -> kS3: the one-dimensional case, scalars Gamma^mu(1)/dim = 6/6 = 1
    from frobdiv import StructureConstantAlgebra
    A = StructureConstantAlgebra(QQ, 1, [[{0: rq(1)}]], [rq(1)])
    B = group_algebra_plain("S3")
    lam = {0: rq(1)}
    mu = delta_form(B)
    phi = [{0: rq(1)}]
    FA = frobenius_structure(A, lam)
    FB = frobenius_structure(B, mu)
    dA = central_primitive_idempotents(A, frobenius=FA)
    rep = relative_divisibility(A, FA, dA, B, FB, phi)
    assert rep.induced_dims == [6]
    assert rep.scalars == [rq(1)]
    assert rep.integral == [True]
    assert rep.ratio_checks == [True]



def _scalars_tested(monkeypatch, session):
    """Every scalar that the Zhu, class-equation and (with an R-matrix)
    Schneider checks of ``session`` decide integrality of."""
    seen = []

    def recording(x):
        seen.append(x)
        return is_integral_scalar(x)

    monkeypatch.setattr(hopf, "is_integral_scalar", recording)
    monkeypatch.setattr(integrality, "is_integral_scalar", recording)
    hopf.zhu_check(session)
    hopf.class_equation_check(session)
    if session.R is not None:
        hopf.schneider_check(session)
    return seen


def _sessions():
    for entry in LADDER:
        yield "-".join(map(str, entry)), HopfAnalysis(ladder_hopf(*entry))
    for gname in ("S3", "D4"):
        H, Q = drinfeld_double(named_group(gname))
        yield f"D({gname})", HopfAnalysis(H, Q.R)


def test_denominator_rule_agrees_with_minimal_polynomial(monkeypatch):
    """On every scalar the checks test, for the ten ladder documents, D(S3)
    and D(D4), and on its half, the denominator rule gives the verdict of
    the Krylov minimal polynomial."""
    verdicts = set()
    for name, session in _sessions():
        seen = _scalars_tested(monkeypatch, session)
        assert seen, name
        for x in seen:
            field = x.field if isinstance(x, Cyc) else QQ
            for y in (x, x / field.from_rat(2)):
                cert = is_integral_over_Z(field, 1, {0: field.one},
                                          lambda v: {0: y * v[0]})
                assert is_integral_scalar(y) == cert.integral, (name, y)
                verdicts.add(cert.integral)
    assert verdicts == {True, False}
