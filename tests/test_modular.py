import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import frobdiv.modular as modular
import frobdiv.wedderburn as wedderburn
from frobdiv import CyclotomicField, QQ, Rat
from frobdiv.modular import (
    ComponentAlgebra,
    component_units,
    factor_mod_p,
    good_primes,
    hensel_lift_idempotent,
    ideal_lattice,
    is_prime,
    is_squarefree_mod,
    lift_cyclotomic_root,
    modular_split,
    precision_for,
    product_mod,
    prime_search,
    reconstruct_element,
    reduce_scalar,
    root_of_unity,
    roots_mod_p,
)

from conftest import group_algebra_plain, matrix_algebra_2x2
from dense_oracle import (interpolate_mod, lagrange_interpolate,
                          residue_list)


def test_is_prime():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert is_prime(10 ** 9 + 7)
    assert not is_prime(561)  # Carmichael


def root_order(z, p):
    k, x = 1, z % p
    while x != 1:
        k, x = k + 1, x * z % p
    return k


def test_cyclotomic_root_has_order_n():
    # every n dividing p - 1 for the primes p < 2000, and the conductors
    # 1 and 2 at p = 2q + 1 for a 64-bit prime q, whose p - 1 is never
    # factored
    for p in filter(is_prime, range(2, 2000)):
        for n in range(1, p):
            if (p - 1) % n == 0:
                assert root_order(root_of_unity(n, p), p) == n
    p = 20000000000000002559
    assert lift_cyclotomic_root(1, p, p ** 2) == 1
    assert lift_cyclotomic_root(2, p, p ** 2) == p ** 2 - 1


def test_proof_bound_is_a_defect():
    bound = modular.PRIME_PROOF_BOUND
    assert modular.prime_defect(bound, 1, 2, 1) == "size"
    assert modular.prime_defect(bound + 2, 1, 2, 1) == "size"
    # the bound is a strong pseudoprime to every base: is_prime passes it
    assert is_prime(bound)


def test_good_prime_policy():
    from frobdiv import CyclotomicField
    A = group_algebra_plain("C6", field=CyclotomicField(6))
    gen = good_primes(A)
    ps = [next(gen) for _ in range(3)]
    for p in ps:
        assert is_prime(p) and p % 6 == 1 and p > 12 and p % 2 and p % 3


def test_component_units():
    assert component_units(1) == [1]
    assert component_units(6) == [1, 5]
    assert component_units(12) == [1, 5, 7, 11]


def test_lift_cyclotomic_root():
    z = lift_cyclotomic_root(6, 7, 7)
    assert pow(z, 6, 7) == 1 and pow(z, 2, 7) != 1 and pow(z, 3, 7) != 1
    z2 = lift_cyclotomic_root(6, 7, 7 ** 4)
    assert z2 % 7 == z or pow(z2 % 7, 1, 7)  # reduces to a 6th root mod 7
    assert pow(z2, 6, 7 ** 4) == 1
    # Newton lift lands above the same mod-p root
    assert z2 % 7 == z


def test_reduce_scalar_rational():
    half = QQ.from_rat(Rat(1, 2))
    assert reduce_scalar(half, 1, 7) == 4  # 1/2 = 4 mod 7
    assert reduce_scalar(half, 1, 49) == 25


def test_squarefree_and_factor():
    # (x-1)^2 (x-2) over F_7, as an ascending int list
    f = [5, 5, 3, 1]
    assert not is_squarefree_mod(f, 7)
    sq = [2, 4, 1]  # (x-1)(x-2)
    assert is_squarefree_mod(sq, 7)
    fac = factor_mod_p(sq, 7, random.Random(0))
    assert fac == [[5, 1], [6, 1]]
    roots = roots_mod_p(sq, 7, random.Random(0))
    assert roots == [1, 2]


def test_roots_mod_p_irreducible():
    # x^2 + 1 has no roots mod 7 (7 = 3 mod 4)
    assert roots_mod_p([1, 0, 1], 7, random.Random(0)) == []
    assert factor_mod_p([1, 0, 1], 7, random.Random(0)) == [[1, 0, 1]]


def test_component_algebra_c2():
    A = group_algebra_plain("C2")
    comp = ComponentAlgebra(A, 1, 7)
    assert product_mod(comp.table, {1: 1}, {1: 1}, 7) == {0: 1}
    # left multiplication by g sends the basis vector 1 to g
    assert product_mod(comp.table, {1: 1}, {0: 1}, 7) == {1: 1}


def test_modular_split_c2():
    # QC2 mod 7: idempotents (1 +- g)/2 reduce to 4 + 4g and 4 + 3g
    A = group_algebra_plain("C2")
    blocks = modular_split(ComponentAlgebra(A, 1, 7))
    assert len(blocks) == 2
    elems = sorted(residue_list(b.central_idempotent, 2) for b in blocks)
    assert elems == [[4, 3], [4, 4]]
    assert all(b.degree == 1 and b.block_dim == 1 for b in blocks)


def test_modular_split_s3():
    A = group_algebra_plain("S3")
    blocks = modular_split(ComponentAlgebra(A, 1, 13))
    assert sorted(b.degree for b in blocks) == [1, 1, 2]
    assert sorted(b.block_dim for b in blocks) == [1, 1, 4]
    assert all(b.center_dim == 1 for b in blocks)
    # idempotents sum to the unit and are orthogonal mod 13
    comp = ComponentAlgebra(A, 1, 13)
    total = [0] * 6
    for b in blocks:
        e = residue_list(b.central_idempotent, 6)
        sq = product_mod(comp.table, b.central_idempotent,
                         b.central_idempotent, 13)
        assert residue_list(sq, 6) == [x % 13 for x in e]
        total = [(x + y) % 13 for x, y in zip(total, e)]
    assert total == [1, 0, 0, 0, 0, 0]


def test_modular_split_matrix_algebra():
    A = matrix_algebra_2x2()
    blocks = modular_split(ComponentAlgebra(A, 1, 11))
    assert len(blocks) == 1
    b = blocks[0]
    assert b.degree == 2 and b.block_dim == 4 and b.center_dim == 1


def test_modular_split_deterministic():
    A = group_algebra_plain("S3")
    a = modular_split(ComponentAlgebra(A, 1, 13))
    b = modular_split(ComponentAlgebra(A, 1, 13))
    assert [x.central_idempotent for x in a] == [x.central_idempotent for x in b]


def test_hensel_lift():
    # e = 4 + 4g idempotent mod 7 lifts to 25 + 25g mod 49
    A = group_algebra_plain("C2")
    comp49 = ComponentAlgebra(A, 1, 49)
    e = hensel_lift_idempotent(comp49, {0: 4, 1: 4}, 49)
    assert e == {0: 25, 1: 25}
    assert product_mod(comp49.table, e, e, 49) == e


def test_interpolate_mod():
    # f(x) = 2x + 3 through points (1,5), (2,7) mod 11
    coeffs = interpolate_mod([1, 2], [5, 7], 11)
    assert coeffs[0] % 11 == 3 and coeffs[1] % 11 == 2


@st.composite
def interpolation_points(draw):
    """Nodes with distinct residues mod p, lifted to Z/p^k, and values."""
    p = draw(st.sampled_from([5, 7, 13, 73]))
    M = p ** draw(st.integers(1, 4))
    k = draw(st.integers(1, min(p, 8)))
    residues = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k,
                             unique=True))
    nodes = [(r + p * draw(st.integers(0, M // p - 1))) % M
             for r in residues]
    values = draw(st.lists(st.integers(0, M - 1), min_size=k, max_size=k))
    return nodes, values, M


@settings(max_examples=80, deadline=None, derandomize=True)
@given(interpolation_points())
def test_interpolate_mod_matches_lagrange_formula(case):
    nodes, values, M = case
    coeffs = interpolate_mod(nodes, values, M)
    assert coeffs == lagrange_interpolate(list(zip(nodes, values)), M)
    for w, v in zip(nodes, values):
        assert sum(c * w ** i for i, c in enumerate(coeffs)) % M == v


def test_reconstruct_element_rational():
    # over Q, P^2 = 49 Z: D e = [1, -1] with D = 2 is [1, 48] mod 49, read
    # as symmetric residues within the bound 1
    L = ideal_lattice(1, 7, 2)
    got = reconstruct_element(QQ, {0: 1, 1: 48}, L, 1, 2)
    assert got == {0: QQ.from_rat(Rat(1, 2)), 1: QQ.from_rat(Rat(-1, 2))}
    # 25 = -24 mod 49 lies outside the bound: not such a vector
    assert reconstruct_element(QQ, {0: 1, 1: 25}, L, 1, 2) is None
    assert reconstruct_element(QQ, {0: 1, 1: 25}, L, 24, 2) == \
        {0: QQ.from_rat(Rat(1, 2)), 1: QQ.from_rat(Rat(-12))}


def test_reconstruct_element_gaussian():
    # 3 - 2i from its residue at the first root of x^2 + 1 mod 13^4 alone
    K = CyclotomicField(4)
    assert precision_for(2, 13, 3) == 4
    L = ideal_lattice(4, 13, 4)
    y = K.element([3, -2])
    r = reduce_scalar(y, L.root, L.modulus)
    assert reconstruct_element(K, {0: r}, L, 3, 1) == {0: y}
    assert reconstruct_element(K, {0: r}, L, 2, 1) is None
    # over the denominator 5 the same residue gives y / 5
    assert reconstruct_element(K, {0: r}, L, 3, 5) == \
        {0: y / K.from_rat(5)}


# conductors with phi = 1, 2, 4, 6, 8 and 10
RECOVERY_CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 22)


@st.composite
def bounded_integers(draw):
    """(conductor, prime, bound, coefficients within the bound)."""
    n = draw(st.sampled_from(RECOVERY_CONDUCTORS))
    p = next(prime_search(n, draw(st.sampled_from([2, 100, 1000])), 1))
    bound = draw(st.integers(1, 10 ** draw(st.integers(1, 12))))
    phi = CyclotomicField(n).phi
    nums = draw(st.lists(st.integers(-bound, bound), min_size=phi,
                         max_size=phi))
    return n, p, bound, nums, draw(st.integers(0, phi - 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(bounded_integers())
def test_reconstruct_element_recovers_bounded_integers(case):
    # y with power-basis coefficients within B comes back exactly from
    # y(w) mod p^k at the precision precision_for gives; one coefficient
    # at B + 1 leaves no vector within B in the coset (its norm argument
    # needs 2^((phi+1)/2) B >= 2B + 1), and the candidate is refused
    n, p, bound, nums, i = case
    K = CyclotomicField(n)
    L = ideal_lattice(n, p, precision_for(K.phi, p, bound))
    y = K.from_nums(nums, 1)
    r = reduce_scalar(y, L.root, L.modulus)
    residues = {0: r} if r else {}
    assert reconstruct_element(K, residues, L, bound, 1) == \
        ({0: y} if y else {})
    assume(K.phi > 1 and bound > 1)
    nums[i] = bound + 1
    r = reduce_scalar(K.from_nums(nums, 1), L.root, L.modulus)
    assert reconstruct_element(K, {0: r}, L, bound, 1) is None


def test_ideal_lattice_is_reduced():
    # the reduced rows span P^k, are size-reduced and satisfy Lovasz's
    # condition; dets, lam and unit equal Gram-Schmidt in rationals
    for n, p, exp in [(3, 7, 4), (5, 11, 8), (9, 19, 16), (11, 23, 32),
                      (16, 17, 16)]:
        L = ideal_lattice(n, p, exp)
        M = p ** exp
        assert L.modulus == M
        assert pow(L.root, n, M) == 1
        b = L.basis
        phi = len(b)
        assert all(sum(c * pow(L.root, i, M) for i, c in enumerate(v)) % M
                   == 0 for v in b)
        stars, norms = [], []
        for k, v in enumerate(b):
            star = [Fraction(x) for x in v]
            for j in range(k):
                mu = sum(x * y for x, y in zip(v, stars[j])) / norms[j]
                assert abs(mu) <= Fraction(1, 2)
                assert mu * L.dets[j + 1] == L.lam[k][j]
                star = [x - mu * y for x, y in zip(star, stars[j])]
            stars.append(star)
            norms.append(sum(x * x for x in star))
            assert L.dets[k + 1] == L.dets[k] * norms[k]
            assert L.unit[k] == star[0] / norms[k] * L.dets[k + 1]
        for k in range(1, phi):
            mu = Fraction(L.lam[k][k - 1], L.dets[k])
            assert norms[k] >= (Fraction(3, 4) - mu * mu) * norms[k - 1]
        # index M: the Gram determinant of the rows is M^2
        assert L.dets[phi] == M * M


def test_both_prime_searches_follow_one_policy(monkeypatch):
    # the good primes of an algebra and the prime behind field_roots come
    # from one predicate: tightening it moves both
    A = group_algebra_plain("S3")
    K = CyclotomicField(3)
    z = K.zeta(1)
    coeffs = [z, -(K.one + z), K.one]  # (x - 1)(x - zeta_3)

    def searches():
        tried = []
        original = wedderburn.is_squarefree_mod

        def recording(f, p):
            tried.append(p)
            return original(f, p)

        monkeypatch.setattr(wedderburn, "is_squarefree_mod", recording)
        roots = wedderburn.field_roots(K, coeffs)
        monkeypatch.setattr(wedderburn, "is_squarefree_mod", original)
        return next(modular.good_primes(A)), tried[-1], roots

    first, root_prime, roots = searches()
    assert roots == sorted([K.one, z], key=lambda t: t.sort_key())
    assert modular.bad_prime_reason(A, first) is None
    policy = modular.prime_defect

    def tighter(p, conductor, floor, denominator):
        if p in (first, root_prime):
            return "prime"
        return policy(p, conductor, floor, denominator)

    monkeypatch.setattr(modular, "prime_defect", tighter)
    later, later_root_prime, later_roots = searches()
    assert later > first and later_root_prime > root_prime
    assert later_roots == roots
    assert modular.bad_prime_reason(A, first) == f"{first} is not prime"
