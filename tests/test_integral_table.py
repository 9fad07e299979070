"""The integral copy of the structure table, (D, D c_ij^k), that the
associativity scan of ``verify`` and the Casimir operator run on: its
entries, and ``verify`` against the dense field-scalar loop of
``dense_oracle.dense_verify`` on tables with a denominator, with
irrational constants and with one entry broken.  On the same tables, the
two sparse kernels: ``table_product`` on the integral table against D
times the product over all n^2 pairs, and ``combine`` against the dense
sum."""

import random

import pytest

from frobdiv import (QQ, Rat, StructureConstantAlgebra, group_algebra,
                     named_group)
from frobdiv.algebra import combine, table_product
from frobdiv.linalg import sparse
from frobdiv.scalars import Cyc

from conftest import group_algebra_plain
from dense_oracle import (change_basis_algebra, dense_verify, scalar_matrix,
                          zero_vec)


def rescaled(A, t):
    """A on the basis t x_i."""
    return change_basis_algebra(A, scalar_matrix(A.field, A.dim, t))


def table(name):
    """kS3 over Q on the basis x_g / 2 (constants 1/2), and kC4 over Q(i)
    on the bases (1 + i) x_g (constants 1 + i, unit (1 - i)/2) and
    (1 + i) x_g / 2 (constants (1 + i)/2)."""
    if name == "kS3/Q halved":
        return rescaled(group_algebra_plain("S3"), Rat(1, 2))
    A = group_algebra(named_group("C4"), conductor=4).algebra
    t = A.field.one + A.field.zeta()
    if name == "kC4/Q(i) times 1+i":
        return rescaled(A, t)
    assert name == "kC4/Q(i) times (1+i)/2"
    return rescaled(A, t / A.field.from_rat(2))


TABLES = ["kS3/Q halved", "kC4/Q(i) times 1+i", "kC4/Q(i) times (1+i)/2"]


@pytest.mark.parametrize("name, D, irrational",
                         [("kS3/Q halved", 2, False),
                          ("kC4/Q(i) times 1+i", 1, True),
                          ("kC4/Q(i) times (1+i)/2", 2, True)])
def test_integral_table_entries(name, D, irrational):
    A = table(name)
    den, itable = A.integral_table
    assert den == D
    for row, irow in zip(A.table, itable):
        for cell, icell in zip(row, irow):
            assert icell == {k: D * c for k, c in cell.items() if c}
            for v in icell.values():
                if irrational:
                    assert isinstance(v, Cyc) and v.den == 1
                else:
                    assert type(v) is int
    assert A.integral_table is A.integral_table


def same_failures(A):
    rep = A.verify()
    assert rep.failures == dense_verify(A).failures
    return rep


@pytest.mark.parametrize("name", TABLES)
def test_verify_matches_dense_oracle(name):
    assert same_failures(table(name)).passed


def broken(A, table=None, unit=None):
    return StructureConstantAlgebra(A.field, A.dim,
                                    table if table is not None else A.table,
                                    unit if unit is not None else A.unit)


@pytest.mark.parametrize("pos", [0, 7, 29, 63])
@pytest.mark.parametrize("name", TABLES)
def test_broken_constant_matches_dense_oracle(name, pos):
    A = table(name)
    n = A.dim
    i, j, k = pos % n, pos // n % n, pos // (n * n) % n
    cells = [[dict(cell) for cell in row] for row in A.table]
    # a third is added, so that D grows as well
    cells[i][j][k] = (cells[i][j].get(k, A.field.zero)
                      + A.field.from_rat(Rat(1, 3)))
    B = broken(A, table=cells)
    assert B.integral_table[0] == 3 * A.integral_table[0]
    assert not same_failures(B).passed


@pytest.mark.parametrize("name", TABLES)
def test_broken_unit_matches_dense_oracle(name):
    A = table(name)
    unit = dict(A.unit)
    unit[1] = unit.get(1, A.field.zero) + A.field.from_rat(Rat(1, 5))
    assert not same_failures(broken(A, unit=unit)).passed


def test_rational_constants_in_a_cyclotomic_field_are_ints():
    A = group_algebra(named_group("S3"), conductor=3).algebra
    assert A.field is not QQ
    D, itable = A.integral_table
    assert D == 1
    assert {type(v) for row in itable for cell in row
            for v in cell.values()} == {int}


def integral_vector(A, rng):
    """A seeded sparse vector on three basis indices: ints, and integral
    Cyc a + b zeta over Q(zeta_n)."""
    field = A.field
    out = {}
    for k in rng.sample(range(A.dim), 3):
        c = rng.randint(-3, 3)
        if field is not QQ:
            c = c + rng.randint(-3, 3) * field.zeta()
        if c:
            out[k] = c
    return out


def dense_sum(A, terms):
    """sum c v over all n coordinates, in field scalars."""
    out = zero_vec(A)
    for c, v in terms:
        for k in range(A.dim):
            out[k] = out[k] + c * v.get(k, 0)
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", TABLES)
def test_table_product_on_the_integral_table_is_D_times_the_product(
        name, seed):
    A = table(name)
    D, itable = A.integral_table
    rng = random.Random(seed)
    a, b = integral_vector(A, rng), integral_vector(A, rng)
    # a b over all n^2 pairs (i, j), on the field table
    ab = dense_sum(A, [(a.get(i, 0) * b.get(j, 0), A.table[i][j])
                       for i in range(A.dim) for j in range(A.dim)])
    prod = table_product(itable, a, b)
    assert prod == sparse([D * x for x in ab])
    assert table_product(A.table, a, b) == sparse(ab)
    assert all(prod.values())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", TABLES)
def test_combine_is_the_dense_sum(name, seed):
    A = table(name)
    field = A.field
    rng = random.Random(seed)
    constant = next(c for row in A.table for cell in row
                    for c in cell.values())
    coeffs = [field.from_rat(Rat(rng.randint(-3, 3), rng.randint(1, 3))),
              constant, 2, field.zero]
    terms = [(c, integral_vector(A, rng)) for c in coeffs]
    assert combine(terms) == sparse(dense_sum(A, terms))


@pytest.mark.parametrize("name", TABLES)
def test_combine_drops_the_terms_that_cancel(name):
    A = table(name)
    t = next(iter(A.table[1][1].values()))
    v = integral_vector(A, random.Random(7))
    assert combine([(t, v), (-t, v)]) == {}
    assert combine([(1, {0: t, 1: 2}), (-1, {0: t})]) == {1: 2}
    assert combine([(1, v), (3, {0: t}), (-3, {0: t})]) == v
