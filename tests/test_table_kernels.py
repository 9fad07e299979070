"""The centre, the left integral, the mod-p centre, centrality, the Gram
matrix and the R-products, read off the structure table, against the dense
loops of ``dense_oracle`` on relabelled bases and on two unimodular changes
of basis of D(C4): a dense one, where the unit is not a basis vector and
most products have several terms, and a shear with four changed basis
vectors, small enough for the unit-expanded R-products of the oracle.  The
sparse rows of the inverse Gram matrix and the dual basis are also checked
against the dense inverse on the ladder and on M3+M2+Q in a dense basis."""

import random

import pytest

from frobdiv import (QQ, FrobeniusStructure, NotATraceForm, drinfeld_double,
                     dual_hopf, group_algebra, named_group)
from frobdiv.algebra import combine
from frobdiv.hopf import (integrals, quasitriangular_verify, r_products,
                         verify_hopf)
from frobdiv.linalg import EchelonSubspace, sparse
from frobdiv.modular import (ComponentAlgebra, center_mod_p, component_roots,
                             good_primes)

from conftest import matrix_blocks
from dense_oracle import (PrimeField, change_basis_algebra,
                          change_basis_hopf, dense_center_basis, dense_gram,
                          dense_integral, dense_inverse, dense_is_central,
                          dense_mod_p_center, dense_quasitriangular_report,
                          dense_r_products, dense_vec, permute_hopf,
                          permute_r, shear_matrix, unimodular_matrix)
from identity_oracle import dual_basis
from ladder import LADDER, ladder_hopf

_BASE = {}
_CASES = {}


def base(name):
    """(H, R) for kS3, kA4, k^S3, D(S3) and D(C4); R is None for the
    group algebras and the dual."""
    if name not in _BASE:
        if name == "k^S3":
            _BASE[name] = (dual_hopf(group_algebra(named_group("S3"))), None)
        elif name.startswith("D("):
            H, Q = drinfeld_double(named_group(name[2:-1]))
            assert Q.report.passed
            _BASE[name] = (H, Q.R)
        else:
            _BASE[name] = (group_algebra(named_group(name[1:])), None)
    return _BASE[name]


def case(key):
    """A base input relabelled by seed, or on a dense or sheared basis."""
    if key not in _CASES:
        name, seed = key
        H, R = base(name)
        if seed == "dense":
            P = unimodular_matrix(H.field, H.dim, 0)
            H, R = change_basis_hopf(H, P, R)
        elif seed == "shear":
            P = shear_matrix(H.field, H.dim, SHEAR)
            H, R = change_basis_hopf(H, P, R)
        else:
            perm = list(range(H.dim))
            random.Random(seed).shuffle(perm)
            R = None if R is None else permute_r(R, perm)
            H = permute_hopf(H, perm)
        _CASES[key] = (H, R)
    return _CASES[key]


SHEAR = [(0, 5), (2, 7), (3, 9), (1, 12)]
KEYS = [(name, seed) for name in ("kS3", "kA4", "k^S3", "D(S3)", "D(C4)")
        for seed in (0, 1)] + [("D(C4)", "dense"), ("D(C4)", "shear")]
IDS = [f"{name}-{seed}" for name, seed in KEYS]


def span(field, n, vectors):
    return EchelonSubspace(field, n, vectors).basis


def test_sheared_basis_is_a_hopf_algebra_with_its_r_matrix():
    H, R = case(("D(C4)", "shear"))
    assert verify_hopf(H).passed
    assert quasitriangular_verify(H, R).report.passed
    assert len(H.algebra.unit) > 1


def test_dense_basis_keeps_the_unit_law():
    """The full axiom check is too slow on dense products; the unit law,
    which the table-read conditions use, is checked here."""
    A = case(("D(C4)", "dense"))[0].algebra
    assert len(A.unit) > A.dim // 2
    assert sum(1 for row in A.table for cell in row
               if len(cell) > 1) > A.dim ** 2 // 2
    for i in range(A.dim):
        x = {i: A.field.one}
        assert A.multiply(A.unit, x) == x == A.multiply(x, A.unit)


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_center_matches_dense_oracle(key):
    A = case(key)[0].algebra
    assert span(A.field, A.dim, A.center_basis()) == \
        span(A.field, A.dim, dense_center_basis(A))


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_integral_matches_dense_oracle(key):
    H = case(key)[0]
    assert integrals(H).Lambda == dense_integral(H)


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_mod_p_center_matches_dense_oracle(key, which):
    A = case(key)[0].algebra
    primes = good_primes(A)
    p = [next(primes) for _ in range(2)][which]
    roots, _ = component_roots(A.field.conductor, p, 1)
    gf = PrimeField(p)
    comp = ComponentAlgebra(A, roots[-1], p)
    basis = [{k: gf.from_rat(x) for k, x in v.items()}
             for v in center_mod_p(comp)[0]]
    assert span(gf, A.dim, basis) == \
        span(gf, A.dim, map(sparse, dense_mod_p_center(comp, gf)))


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_is_central_matches_dense_oracle(key):
    A = case(key)[0].algebra
    field = A.field
    one = field.one
    rng = random.Random(7)
    center = A.center_basis()
    vectors = [dict(v) for v in center] + [{i: one} for i in range(4)]
    vectors.append(combine((one, v) for v in center))
    vectors.append(A.unit)
    vectors.append({})
    for _ in range(3):
        vectors.append(sparse([field.from_rat(rng.choice((0, 0, 1, -2)))
                               for _ in range(A.dim)]))
    # a central vector plus one non-central basis vector
    vectors.append(combine([(one, center[0]), (one, {1: one})]))
    verdicts = [A.is_central(v) for v in vectors]
    assert verdicts == [dense_is_central(A, v) for v in vectors]
    assert all(verdicts[:len(center)])


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_gram_matches_dense_oracle(key):
    # only gram^-1 is kept: the dense Gram matrix times its columns, the
    # dual basis, is the identity
    H = case(key)[0]
    A = H.algebra
    zero, one = A.field.zero, A.field.one
    lam = integrals(H).lam
    dual = dual_basis(FrobeniusStructure(A, lam))
    assert [[sum((g * c for g, c in zip(row, dense_vec(A, y))), zero)
             for y in dual]
            for row in dense_gram(A, lam)] == \
        [[one if i == j else zero for j in range(A.dim)]
         for i in range(A.dim)]


def dense_plain():
    """M3 + M2 + Q in a dense unimodular basis, with its regular form."""
    A = change_basis_algebra(matrix_blocks((3, 2, 1)),
                             unimodular_matrix(QQ, 14, 0))
    return A, A.regular_character()


GRAM_CASES = [*LADDER, "M3+M2+Q dense"]


@pytest.mark.parametrize("case", GRAM_CASES,
                         ids=[c if isinstance(c, str) else
                              f"{c[1]}-{c[0]}-{c[2]}" for c in GRAM_CASES])
def test_gram_inverse_rows_and_dual_basis(case):
    """The sparse rows of gram^-1, from one elimination beside the
    identity, against the dense inverse of the dense Gram matrix; the dual
    basis y_j = F.dual_combination(e_j), read off the rows, against
    column j."""
    if isinstance(case, str):
        A, lam = dense_plain()
    else:
        H = ladder_hopf(*case)
        A, lam = H.algebra, integrals(H).lam
    F = FrobeniusStructure(A, lam)
    inverse = dense_inverse(A.field, dense_gram(A, lam))
    assert F._dual_coeffs == [sorted(sparse(row).items()) for row in inverse]
    assert dual_basis(F) == [sparse(col) for col in zip(*inverse)]


NONCOMMUTATIVE = [k for k in KEYS if k[0] in ("kS3", "kA4", "D(S3)")]


@pytest.mark.parametrize("key", NONCOMMUTATIVE,
                         ids=[f"{n}-{seed}" for n, seed in NONCOMMUTATIVE])
def test_non_trace_form_witness_matches_dense_oracle(key):
    A = case(key)[0].algebra
    rng = random.Random(3)
    lam = sparse([A.field.from_rat(rng.randrange(-3, 4))
                  for _ in range(A.dim)])
    gram = dense_gram(A, lam)
    n = A.dim
    first = next((i, j) for i in range(n) for j in range(i + 1, n)
                 if gram[i][j] != gram[j][i])
    with pytest.raises(NotATraceForm) as err:
        FrobeniusStructure(A, lam)
    assert err.value.witness == first


# the oracle's unit-expanded products are too slow on the dense basis
DOUBLES = [k for k in KEYS if k[0].startswith("D(") and k[1] != "dense"]
DOUBLE_IDS = [f"{name}-{seed}" for name, seed in DOUBLES]


@pytest.mark.parametrize("key", DOUBLES, ids=DOUBLE_IDS)
def test_r_products_match_dense_oracle(key):
    H, R = case(key)
    rep = quasitriangular_verify(H, R).report
    assert rep.passed
    oracle = dense_quasitriangular_report(H, R)
    assert (rep.passed, rep.failures) == (oracle.passed, oracle.failures)


@pytest.mark.parametrize("pos", [0, 1, 2])
@pytest.mark.parametrize("key", DOUBLES, ids=DOUBLE_IDS)
def test_r_products_match_dense_oracle_on_broken_r(key, pos):
    """One entry of R changed: on its support (pos 0, 1) or off it."""
    H, R = case(key)
    field = H.field
    support = sorted(R)
    off = [i for i in range(H.dim ** 2) if i not in R]
    rng = random.Random(pos)
    idx = rng.choice(support) if pos < 2 else rng.choice(off)
    broken = dict(R)
    broken[idx] = R.get(idx, field.zero) + field.one
    rep = quasitriangular_verify(H, broken).report
    assert not rep.passed
    oracle = dense_quasitriangular_report(H, broken)
    assert (rep.passed, rep.failures) == (oracle.passed, oracle.failures)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("key", DOUBLES, ids=DOUBLE_IDS)
def test_r_products_of_random_tensors_match_dense_oracle(key, seed):
    """Random sparse tensors, whose first legs need not commute, unlike
    those of the canonical R-matrix."""
    A = case(key)[0].algebra
    n = A.dim
    rng = random.Random(seed)
    Rd = {rng.randrange(n * n): A.field.from_rat(rng.choice((1, -1, 2)))
          for _ in range(6)}
    assert r_products(A, Rd) == dense_r_products(A, Rd)
