import math

import pytest
from hypothesis import given, settings, strategies as st

from frobdiv import QQ, CyclotomicField, PrimeField, Rat, rational_reconstruct
from frobdiv.scalars import ConductorMismatch, cyclotomic_polynomial

# hand table of cyclotomic polynomials, ascending coefficients
KNOWN_PHI = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    10: [1, -1, 1, -1, 1],
    12: [1, 0, -1, 0, 1],
}


def test_cyclotomic_polynomials_known():
    for n, coeffs in KNOWN_PHI.items():
        assert cyclotomic_polynomial(n) == coeffs


def test_cyclotomic_polynomial_product():
    # prod over d | n of Phi_d = x^n - 1, checked for n up to 30
    for n in range(1, 31):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want


def test_zeta_has_exact_order():
    for n in (1, 2, 3, 4, 6, 8, 12, 30):
        K = CyclotomicField(n)
        z = K.zeta()
        acc = K.one
        for k in range(1, n):
            acc = acc * z
            assert acc != K.one, (n, k)
        assert acc * z == K.one


def test_zeta_is_root_of_its_polynomial():
    for n in (2, 3, 4, 6, 12, 15, 60):
        K = CyclotomicField(n)
        coeffs = cyclotomic_polynomial(n)
        acc = K.zero
        for c in reversed(coeffs):
            acc = acc * K.zeta() + K.from_rat(Rat(c))
        assert not bool(acc)


def test_zeta_negative_cases():
    K2 = CyclotomicField(2)
    assert K2.zeta() == K2.from_rat(Rat(-1))
    K6 = CyclotomicField(6)
    assert K6.zeta(3) == K6.from_rat(Rat(-1))
    # zeta_6 = 1 + zeta_3 relation: z6 - 1 is a primitive cube root
    z = K6.zeta()
    w = z - K6.one
    assert w * w * w == K6.one and w != K6.one


def test_inverse_oracle():
    K3 = CyclotomicField(3)
    z = K3.zeta()
    # 1/z3 = z3^2 = -1 - z3
    assert z.inv() == -K3.one - z
    assert z * z.inv() == K3.one


def test_conductor_mismatch():
    a = CyclotomicField(3).zeta()
    b = CyclotomicField(4).zeta()
    with pytest.raises(ConductorMismatch):
        a + b


def test_format_parse_round_trip():
    K = CyclotomicField(12)
    elems = [K.zero, K.one, K.zeta(), K.zeta(5) - K.from_rat(Rat(3, 7)),
             K.from_rat(Rat(-22, 7)) * K.zeta(2) + K.one]
    for x in elems:
        assert K.parse(K.format(x)) == x
    assert QQ.parse(QQ.format(QQ.from_rat(Rat(-3, 4)))) == QQ.from_rat(
        Rat(-3, 4))


def test_cyclotomic_arithmetic_surface():
    K = CyclotomicField(4)
    a, b = K.zeta(), K.one + K.zeta()
    # with i = zeta_4: i + (1+i) = 1+2i, i(1+i) = -1+i, i/(1+i) = (1+i)/2
    half = Rat(1, 2)
    assert a + b == K.element([1, 2])
    assert a - b == -K.one
    assert a * b == K.element([-1, 1])
    assert a / b == K.element([half, half])
    assert b.inv() * b == K.one


@st.composite
def cyc12(draw):
    K = CyclotomicField(12)
    coeffs = [Rat(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
              for _ in range(K.phi)]
    return K.element(coeffs)


@settings(max_examples=60, deadline=None)
@given(cyc12(), cyc12(), cyc12())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if bool(a):
        assert a * a.inv() == CyclotomicField(12).one


def test_prime_field():
    F = PrimeField(13)
    a, b = F.from_int(7), F.from_int(11)
    assert (a * b).residue == 77 % 13
    assert (a / b) * b == a
    assert (-a).residue == 6
    # prime-power residue ring: inverses of units still work
    R = PrimeField(49)
    x = R.from_int(4)
    assert (x * x.inv()).residue == 1


def test_rational_reconstruct_oracle():
    # 1/2 mod 49: 2*25 = 50 = 1, residue 25
    assert rational_reconstruct(25, 49) == Rat(1, 2)
    p = 10 ** 9 + 7
    M = p * p
    val = Rat(-355, 113)
    residue = (-355 * pow(113, -1, M)) % M
    assert rational_reconstruct(residue, M) == val
    # soundness: any successful reconstruction satisfies the congruence
    # and the height bound
    M = 1000003
    bound = math.isqrt(M // 2)
    for residue in (456420, 999999, 707):
        q = rational_reconstruct(residue, M)
        if q is not None:
            assert (int(q.numerator) - int(q.denominator) * residue) % M == 0
            assert abs(int(q.numerator)) <= bound
            assert 0 < int(q.denominator) <= bound


@settings(max_examples=80, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 1000))
def test_rational_reconstruct_round_trip(num, den):
    g = math.gcd(abs(num), den)
    num, den = num // g, den // g
    M = (10 ** 9 + 7) ** 2
    residue = (num * pow(den, -1, M)) % M
    assert rational_reconstruct(residue, M) == Rat(num, den)


def test_euler_phi():
    # the degree of Q(zeta_n) is phi(n)
    assert [CyclotomicField(n).phi for n in (1, 2, 3, 4, 6, 12, 60)] == \
        [1, 1, 2, 2, 2, 4, 16]


def test_qvec_round_trip():
    K = CyclotomicField(8)
    x = K.zeta(3) - K.from_rat(Rat(5, 3)) * K.zeta() + K.one
    assert K.from_qvec(K.to_qvec(x)) == x
