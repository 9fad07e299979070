"""The maps on H (x) H that the Hopf layer applies (S on one leg, Delta on
one leg, the product m and f o S) against their dense references in
``dense_oracle``, on relabelled doubles D(S3), D(C4) and D(D4): on
Delta(x_j), on the R-matrix, on Delta(Lambda) and on seeded random
tensors.  The product of ``TensorSquareAlgebra``, which walks the nonzero
cells only, against the product over every pair of terms, on the same
tensors, on the Sweedler algebra and on M2+Q in a dense basis.  Also the
Sweedler algebra, whose left integral is not a right one."""

import random

import pytest

from frobdiv import (QQ, NotUnimodular, StructureConstantAlgebra,
                     TensorSquareAlgebra, drinfeld_double, integrals,
                     named_group, verify_hopf)
from frobdiv.algebra import map_leg, multiply_legs
from frobdiv.hopf import HopfAlgebraData
from frobdiv.linalg import sparse

from conftest import matrix_blocks
from dense_oracle import (_dense_tensor_mult, change_basis_algebra,
                          dense_after_antipode, dense_antipode_on_leg,
                          dense_delta_on_leg, dense_multiply_legs,
                          permute_hopf, permute_r, unimodular_matrix)

KEYS = [("S3", 0), ("S3", 1), ("C4", 0), ("C4", 1), ("D4", 0)]
IDS = [f"D({g})-{seed}" for g, seed in KEYS]
_DOUBLES = {}
_CASES = {}


def case(key):
    """(H, tensors) for a relabelled double: the tensors are some
    Delta(x_j), R, Delta(Lambda) and random sparse tensors."""
    if key not in _CASES:
        gname, seed = key
        if gname not in _DOUBLES:
            _DOUBLES[gname] = drinfeld_double(named_group(gname))
        H, Q = _DOUBLES[gname]
        rng = random.Random(seed)
        perm = list(range(H.dim))
        rng.shuffle(perm)
        H = permute_hopf(H, perm)
        n = H.dim
        field = H.field
        tensors = [H.delta[j] for j in rng.sample(range(n), 4)]
        tensors.append(permute_r(Q.R, perm))
        tensors.append(H.delta_of(integrals(H).Lambda))
        scalars = (field.one, -field.one, field.from_rat(2), field.zeta())
        for _ in range(3):
            tensors.append({rng.randrange(n * n): rng.choice(scalars)
                            for _ in range(6)})
        _CASES[key] = (H, tensors)
    return _CASES[key]


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_antipode_on_leg_matches_dense_oracle(key, first, swap):
    H, tensors = case(key)
    for z in tensors:
        assert (map_leg(z, H.antipode_columns, H.dim, first, swap)
                == dense_antipode_on_leg(H, z, first, swap))


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_delta_on_leg_matches_dense_oracle(key, first):
    H, tensors = case(key)
    for z in tensors:
        assert H.delta_on_leg(z, first) == dense_delta_on_leg(H, z, first)


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_multiply_legs_matches_dense_oracle(key):
    H, tensors = case(key)
    for z in tensors:
        assert multiply_legs(H.algebra, z) == dense_multiply_legs(H.algebra,
                                                                  z)


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_after_antipode_matches_dense_oracle(key):
    H, _ = case(key)
    field = H.field
    rng = random.Random(key[1])
    forms = [H.counit, integrals(H).lam]
    forms += [sparse([rng.choice((field.zero, field.one, field.zeta(),
                                  -field.one)) for _ in range(H.dim)])
              for _ in range(3)]
    for form in forms:
        assert H.after_antipode(form) == dense_after_antipode(H, form)


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_tensor_product_matches_dense_oracle(key):
    H, tensors = case(key)
    T = TensorSquareAlgebra(H.algebra)
    # the dense product costs dim^2 per pair of terms: short tensors only
    short = [z for z in tensors if len(z) <= 8]
    for u in short:
        for v in short:
            assert T.mult(u, v) == _dense_tensor_mult(H.algebra, u, v)


def test_tensor_product_on_zero_and_dense_cells():
    # Sweedler's algebra has zero products (x^2 = 0) and signs; M2+Q in a
    # dense unimodular basis has cells of up to five terms
    H = sweedler()
    dense_basis = change_basis_algebra(matrix_blocks([2, 1]),
                                       unimodular_matrix(QQ, 5, 3))
    for A, tensors in ((H.algebra, H.delta), (dense_basis, [])):
        n = A.dim
        rng = random.Random(n)
        tensors = tensors + [
            {rng.randrange(n * n): QQ.from_rat(rng.choice((1, -1, 2)))
             for _ in range(4)} for _ in range(4)]
        T = TensorSquareAlgebra(A)
        assert A.row_supports == [tuple(j for j in range(n) if A.table[i][j])
                                  for i in range(n)]
        for u in tensors:
            for v in tensors:
                assert T.mult(u, v) == _dense_tensor_mult(A, u, v)


def sweedler():
    """Sweedler's 4-dimensional Hopf algebra over Q on the basis 1, g, x,
    gx: g^2 = 1, x^2 = 0, xg = -gx, Delta g = g (x) g,
    Delta x = x (x) 1 + g (x) x, S(g) = g, S(x) = -gx."""
    one, zero = QQ.one, QQ.zero
    # the words 1, g, x, gx as (power of g, power of x); g^a x^b g^c x^d is
    # (-1)^(b c) g^(a+c) x^(b+d)
    words = [(0, 0), (1, 0), (0, 1), (1, 1)]
    table = [[{} for _ in range(4)] for _ in range(4)]
    for i, (a, b) in enumerate(words):
        for j, (c, d) in enumerate(words):
            if b + d < 2:
                sign = -one if b * c else one
                table[i][j] = {words.index(((a + c) % 2, b + d)): sign}
    A = StructureConstantAlgebra(QQ, 4, table, [one, zero, zero, zero])
    delta = [{0: one}, {5: one},                # 1 (x) 1, g (x) g
             {8: one, 6: one},                  # x (x) 1 + g (x) x
             {13: one, 3: one}]                 # gx (x) g + 1 (x) gx
    counit = {0: one, 1: one}
    # S(1) = 1, S(g) = g, S(x) = -gx, S(gx) = x
    S = [{0: one}, {1: one}, {3: -one}, {2: one}]
    return HopfAlgebraData(A, delta, counit, S, name="Sweedler")


def test_sweedler_left_integral_is_not_right():
    """Lambda = x + gx is a left integral, and Lambda g = -Lambda.  Every
    axiom holds but the involutory condition: S^2(x) = -x."""
    H = sweedler()
    assert verify_hopf(H).failures == [("involutory",)]
    with pytest.raises(NotUnimodular,
                       match="left integral is not right at basis 1$"):
        integrals(H)
