import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from frobdiv import (QQ, CyclotomicField, HopfAnalysis, Rat,
                     frobenius_divisibility_hopf, group_algebra, named_group)
from frobdiv.modular import BadPrime, component_root, reduce_scalar
from frobdiv.scalars import (ConductorMismatch, Cyc, cyclotomic_polynomial,
                             field_from_descriptor)
from frobdiv.serialize import hopf_from_json, hopf_to_json

from dense_oracle import (PrimeField, RefCyc, component_roots,
                          rational_reconstruct)

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
    # each operator on both sides, on rational values too: the short-cuts
    # must not mix two fields
    K3, K4 = CyclotomicField(3), CyclotomicField(4)
    for a, b in ((K3.zeta(), K4.zeta()), (K3.one, K4.one)):
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv, operator.eq):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ConductorMismatch):
                    op(x, y)


def _format_from_rats(x):
    """The written form of x from its rational coefficients ``rats()``."""
    terms = []
    for k, c in enumerate(x.rats()):
        if c:
            r = str(c)
            terms.append(r if k == 0 else f"{r}*z" if k == 1
                         else f"{r}*z^{k}")
    return " + ".join(terms) if terms else "0"


@pytest.mark.parametrize("n", [3, 4, 12, 24])
def test_format_matches_the_rational_coefficients(n):
    # integral, rational and general values, written from the numerators
    K = CyclotomicField(n)
    rng = random.Random(n)
    for kind in ("integral", "rational", "general") * 100:
        size = 1 if kind == "rational" else K.phi
        nums = [rng.choice((0, rng.randint(-60, 60))) for _ in range(size)]
        den = 1 if kind == "integral" else rng.randint(1, 36)
        x = K.from_nums(nums + [0] * (K.phi - size), den)
        assert K.format(x) == _format_from_rats(x)


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
    a, b = F.from_rat(7), F.from_rat(11)
    assert (a * b).residue == 77 % 13
    assert (a / b) * b == a
    assert (-a).residue == 6
    # prime-power residue ring: inverses of units still work
    R = PrimeField(49)
    x = R.from_rat(4)
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


def test_q_is_the_field_of_conductor_1():
    assert CyclotomicField(1) is QQ
    for desc in ({"type": "rational"}, {"type": "cyclotomic", "conductor": 1}):
        assert field_from_descriptor(desc) is QQ
    assert QQ.describe() == {"type": "rational"}


def test_every_scalar_of_a_q_algebra_is_a_cyc():
    # kS3 over Q, read from its document: its table, unit, Wedderburn
    # characters and Casimir certificate hold values of Q(zeta_1)
    doc = hopf_to_json(group_algebra(named_group("S3"), conductor=1))
    H = hopf_from_json(doc)[0]
    session = HopfAnalysis(H)
    cert = frobenius_divisibility_hopf(session).casimir_cert
    A = H.algebra
    scalars = ([c for row in A.table for cell in row for c in cell.values()]
               + list(A.unit.values())
               + [c for chi in session.wedderburn.characters
                  for c in chi.values()]
               + cert.min_poly)
    assert all(type(c) is Cyc and c.field is QQ for c in scalars)
    assert cert.poly_strings() == [QQ.format(c) for c in cert.min_poly]


def test_qvec_round_trip():
    K = CyclotomicField(8)
    x = K.zeta(3) - K.from_rat(Rat(5, 3)) * K.zeta() + K.one
    assert K.element(x.rats()) == x


# ---------------------------------------------------------------------------
# integer-numerator Cyc against the rational-tuple reference
# ---------------------------------------------------------------------------

CONDUCTORS = (2, 3, 4, 5, 8, 12, 24)
DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True)

coefficient = st.builds(
    Rat, st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7, 10 ** 12 + 39]),
    st.sampled_from([1, 1, 1, 2, 3, 4, 9, 10 ** 6]))


@st.composite
def cyc_pairs(draw):
    """(n, a, b): two coefficient lists of Q(zeta_n), each sometimes
    rational, so that both inverse paths run."""
    n = draw(st.sampled_from(CONDUCTORS))
    phi = CyclotomicField(n).phi

    def coeffs():
        cs = draw(st.lists(coefficient, min_size=phi, max_size=phi))
        if draw(st.integers(0, 3)) == 0:
            cs[1:] = [Rat(0)] * (phi - 1)
        return cs

    return n, coeffs(), coeffs()


def assert_normal(x):
    """Integer numerators over one positive denominator, lowest terms."""
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int for c in x.nums)
    assert len(x.nums) == x.field.phi
    assert math.gcd(x.den, *x.nums) == 1


def assert_same(K, x, ref):
    assert_normal(x)
    assert x.rats() == list(ref.coeffs)
    assert all(isinstance(c, Rat) for c in x.rats())


@DIFFERENTIAL
@given(cyc_pairs())
def test_arithmetic_matches_reference(case):
    n, a, b = case
    K = CyclotomicField(n)
    x, y = K.element(a), K.element(b)
    rx, ry = RefCyc(n, a), RefCyc(n, b)
    assert_same(K, x, rx)
    assert_same(K, x + y, rx + ry)
    assert_same(K, x - y, rx - ry)
    assert_same(K, -x, -rx)
    assert_same(K, x * y, rx * ry)
    assert_same(K, x ** 3, rx ** 3)
    assert_same(K, x ** 0, rx ** 0)
    assert (x == y) == (rx == ry)
    assert x - x == K.zero and (x - x).den == 1
    if any(b):
        assert_same(K, y.inv(), ry.inv())
        assert_same(K, x / y, rx / ry)
        assert_same(K, y ** -2, ry ** -2)
    else:
        with pytest.raises(ZeroDivisionError):
            y.inv()


@DIFFERENTIAL
@given(cyc_pairs())
def test_rational_factor_products_match_reference(case):
    # a product with a rational factor scales the other factor's
    # numerators; the rational sits on the left and on the right
    n, a, b = case
    K = CyclotomicField(n)
    r = [a[0]] + [Rat(0)] * (K.phi - 1)
    x, y = K.element(r), K.element(b)
    rx, ry = RefCyc(n, r), RefCyc(n, b)
    assert_same(K, x * y, rx * ry)
    assert_same(K, y * x, ry * rx)
    assert_same(K, x * x, rx * rx)
    assert_same(K, y * a[0], ry * rx)
    if a[0]:
        assert_same(K, y / x, ry / rx)


@DIFFERENTIAL
@given(cyc_pairs())
def test_hash_sort_key_format_match_reference(case):
    n, a, b = case
    K = CyclotomicField(n)
    x, y = K.element(a), K.element(b)
    rx, ry = RefCyc(n, a), RefCyc(n, b)
    # equal values built along different paths hash alike
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert x * y == y * x and hash(x * y) == hash(y * x)
    assert (hash(x) == hash(y)) or (rx != ry)
    assert x.sort_key() == rx.sort_key()
    assert (x.sort_key() < y.sort_key()) == (rx.sort_key() < ry.sort_key())
    assert K.format(x) == rx.format() == repr(x)
    assert K.parse(rx.format()) == x
    assert RefCyc.parse(n, K.phi, K.format(x)) == rx
    assert K.element(list(rx.coeffs)) == x
    if not any(a[1:]):
        assert x.is_rational() and K.as_rat(x) == a[0]
        # a rational value equals and hashes as its Rat (an integer as
        # its int), so a set holds the two once
        assert x == a[0] and hash(x) == hash(a[0]) and len({x, a[0]}) == 1
    assert len({K.one, 1, Rat(1)}) == 1 and len({K.zero, 0, False}) == 1
    half = Rat(1, 2)
    assert len({K.from_rat(half), half}) == 1
    # equal rational values of two fields hash alike, and == between two
    # fields raises, so a set that would hold both raises too
    with pytest.raises(ConductorMismatch):
        {K.one, CyclotomicField(K.conductor + 1).one}


# operands that the arithmetic reads without the power-basis product:
# ints, bools, Rats, a rational Cyc (drawn), one and zero
SHORT_CUT_OPERANDS = (0, 1, -1, 6, True, False, Rat(-3, 4), Rat(5),
                      "rational", "one", "zero")


@DIFFERENTIAL
@given(cyc_pairs(), st.sampled_from(SHORT_CUT_OPERANDS))
def test_short_cut_operands_match_reference(case, s):
    n, a, b = case
    K = CyclotomicField(n)
    zeros = [Rat(0)] * (K.phi - 1)
    s = {"rational": K.element([b[0]] + zeros), "one": K.one,
         "zero": K.zero}.get(s, s)
    rs = RefCyc(n, s.rats() if isinstance(s, Cyc) else [Rat(s)] + zeros)
    x, rx = K.element(a), RefCyc(n, a)
    results = [(x + s, rx + rs), (s + x, rs + rx), (x - s, rx - rs),
               (s - x, rs - rx), (x * s, rx * rs), (s * x, rs * rx)]
    if any(rs.coeffs):
        results.append((x / s, rx / rs))
    else:
        with pytest.raises(ZeroDivisionError):
            x / s
    if any(a):
        results.append((s / x, rs / rx))
    for got, want in results:
        assert isinstance(got, Cyc)
        assert_same(K, got, want)
    assert (x == s) == (s == x) == (rx == rs)
    assert (x != s) == (s != x) == (rx != rs)


def _good_prime(n, above):
    p = above + 1
    while p % n != 1 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


@DIFFERENTIAL
@given(cyc_pairs())
def test_reduce_scalar_matches_reference(case):
    n, a, _ = case
    K = CyclotomicField(n)
    x, rx = K.element(a), RefCyc(n, a)
    p = _good_prime(n, 10)
    for exp in (1, 2, 4):
        roots, M = component_roots(n, p, exp)
        for w in roots:
            try:
                want = rx.reduce(w, M)
            except BadPrime:
                with pytest.raises(BadPrime):
                    reduce_scalar(x, w, M)
            else:
                assert reduce_scalar(x, w, M) == want


@pytest.mark.parametrize("n", CONDUCTORS)
def test_reduce_scalar_bad_prime(n):
    K = CyclotomicField(n)
    p = _good_prime(n, 10)
    w = component_root(n, p, 1)
    # the denominator p sits on the last basis vector, or on 1 for phi = 1
    coeffs = [Rat(1, 2)] * K.phi
    coeffs[-1] = Rat(3, 5 * p)
    x = K.element(coeffs)
    assert x.den % p == 0
    with pytest.raises(BadPrime):
        reduce_scalar(x, w, p)
    with pytest.raises(BadPrime):
        RefCyc(n, coeffs).reduce(w, p)
    # a rational has the same residue at every root
    assert reduce_scalar(K.from_rat(Rat(3, 2)), w, p) == 3 * pow(2, -1, p) % p


@pytest.mark.parametrize("n", CONDUCTORS)
def test_one_zero_and_rational_embedding(n):
    K = CyclotomicField(n)
    three = K.element([3] + [0] * (K.phi - 1))
    assert K.from_rat(3) == three and hash(K.from_rat(3)) == hash(three)
    assert K.from_rat(Rat(6, 2)) == three
    half = K.element([Rat(-1, 2)] + [0] * (K.phi - 1))
    assert K.from_rat(Rat(-2, 4)) == half
    zeros = [K.zero, K.element([0] * K.phi), K.from_rat(Rat(0, 7)),
             K.element([Rat(1, 3)] * K.phi) - K.element([Rat(1, 3)] * K.phi)]
    for z in zeros:
        assert_normal(z)
        assert z.nums == (0,) * K.phi and z.den == 1 and not z
    assert K.one.inv() == K.one and (-K.one).inv() == -K.one
