"""Light's generating-set test for the axioms: a monomial table with a
generating set S is proven associative on the triples (x_i s) x_k, and
Delta and eps multiplicative on the pairs (x_j, s), s in S.  Against the
full scan, on relabelled inputs with one structure constant or one
comultiplication term broken in a way that keeps the table monomial; with
the work it does when it passes; and with the search giving up on k^G."""

import random

import pytest

import frobdiv.algebra as algebra
from frobdiv import (Matrix, StructureConstantAlgebra, drinfeld_double,
                     dual_hopf, group_algebra, named_group, verify_hopf)
from frobdiv.algebra import TensorSquareAlgebra, light_generators
from frobdiv.hopf import HopfAlgebraData

from dense_oracle import change_basis_algebra, permute_hopf

_HOPF = {}


def hopf(name):
    """Relabelled D(S3) and D(C4), kA4 and k^Q8 over Q(zeta_24)."""
    if name not in _HOPF:
        if name == "k^Q8@24":
            H = dual_hopf(group_algebra(named_group("Q8"), conductor=24))
        elif name == "kA4":
            H = group_algebra(named_group("A4"))
        else:
            H, _ = drinfeld_double(named_group(name[2:-1]), verify=False)
            perm = list(range(H.dim))
            random.Random(len(name)).shuffle(perm)
            H = permute_hopf(H, perm)
        _HOPF[name] = H
    return _HOPF[name]


def rebuilt(H, table=None, delta=None):
    """A fresh copy of H, nothing cached, with a table or Delta replaced."""
    A = H.algebra
    A = StructureConstantAlgebra(A.field, A.dim,
                                 table if table is not None else A.table,
                                 A.unit, name=A.name)
    return HopfAlgebraData(A, delta if delta is not None else H.delta,
                           H.counit, H.antipode_columns, name=H.name)


def full_scan(H):
    """verify() and verify_hopf() with no generating set: every triple and
    every pair is checked."""
    H = rebuilt(H)
    H.algebra.generating_set = None
    return H.algebra.verify(), verify_hopf(H)


def assert_same_as_full_scan(H):
    fresh = rebuilt(H)
    got = (fresh.algebra.verify(), verify_hopf(fresh))
    want = full_scan(H)
    for g, w in zip(got, want):
        assert g.passed == w.passed
        assert g.failures == w.failures
    return got


NAMES = ["D(S3)", "D(C4)", "kA4", "k^Q8@24"]


@pytest.mark.parametrize("name", NAMES)
def test_generating_set_found_except_on_the_dual(name):
    A = rebuilt(hopf(name)).algebra
    S = A.generating_set
    if name == "k^Q8@24":
        assert S is None and not A.light_associative()
    else:
        assert S and len(S) <= A.dim // 2 and A.light_associative()
    rep, hrep = assert_same_as_full_scan(hopf(name))
    assert rep.passed and hrep.passed


def _broken_cell(H, seed, move):
    """The table of H with one nonzero product x_i x_j = c x_m made 2c x_m,
    or c x_m' when ``move``: still monomial."""
    rng = random.Random(seed)
    n = H.dim
    table = [[dict(cell) for cell in row] for row in H.algebra.table]
    cells = [(i, j) for i in range(n) for j in range(n) if table[i][j]]
    i, j = rng.choice(cells)
    (m, c), = table[i][j].items()
    table[i][j] = ({(m + 1 + rng.randrange(n - 1)) % n: c} if move
                   else {m: c + c})
    return table


def _broken_term(H, seed, move):
    """Delta of H with one term c x_a (x) x_b of one Delta(x_j) made 2c, or
    moved to another free index when ``move``."""
    rng = random.Random(seed)
    n = H.dim
    delta = [dict(d) for d in H.delta]
    j = rng.randrange(n)
    idx = rng.choice(sorted(delta[j]))
    c = delta[j].pop(idx)
    if move:
        idx = rng.choice([k for k in range(n * n) if k not in delta[j]])
        delta[j][idx] = c
    else:
        delta[j][idx] = c + c
    return delta


@pytest.mark.parametrize("move", [False, True], ids=["scaled", "moved"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_broken_structure_constant_fails_as_the_full_scan(name, seed, move):
    H = hopf(name)
    broken = rebuilt(H, table=_broken_cell(H, seed, move))
    assert broken.algebra.monomial_table is not None
    rep, hrep = assert_same_as_full_scan(broken)
    assert not hrep.passed


@pytest.mark.parametrize("move", [False, True], ids=["scaled", "moved"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_broken_comultiplication_fails_as_the_full_scan(name, seed, move):
    H = hopf(name)
    rep, hrep = assert_same_as_full_scan(
        rebuilt(H, delta=_broken_term(H, seed, move)))
    assert rep.passed and not hrep.passed


def test_rescaled_basis_checks_coefficients():
    # y_i = a_i x_i on kS3: y_i y_j = (a_i a_j / a_k) y_k, monomial with
    # unequal coefficients, so the coefficient rows are compared too
    A = group_algebra(named_group("S3")).algebra
    n = A.dim
    field = A.field
    P = Matrix(field, [[field.from_int(i + 2) if i == j else field.zero
                        for j in range(n)] for i in range(n)])
    B = change_basis_algebra(A, P)
    coeffs = B.monomial_table[1]
    assert coeffs is not None
    assert B.generating_set and B.light_associative() and B.verify().passed
    table = [[dict(cell) for cell in row] for row in B.table]
    (m, c), = table[1][2].items()
    table[1][2] = {m: c + c}
    C = StructureConstantAlgebra(field, n, table, B.unit)
    assert C.generating_set and not C.light_associative()
    D = StructureConstantAlgebra(field, n, table, B.unit)
    D.generating_set = None
    assert C.verify().failures == D.verify().failures != []


@pytest.mark.parametrize("name", ["D(S3)", "D(C4)"])
def test_work_when_light_test_passes(name, monkeypatch):
    # |S| calls of n^2 triples each, no full scan, and n |S| products in
    # A (x) A for Delta
    H = rebuilt(hopf(name))
    n = H.dim
    S = H.algebra.generating_set
    at, scans, products = [], [], []
    original_at = algebra._associative_at
    original_mult = TensorSquareAlgebra.mult

    def counted_at(index, coeffs, s):
        at.append(s)
        return original_at(index, coeffs, s)

    def counted_scan(table):
        scans.append(table)
        return iter(())

    def counted_mult(self, u, v):
        products.append(1)
        return original_mult(self, u, v)

    monkeypatch.setattr(algebra, "_associative_at", counted_at)
    monkeypatch.setattr(algebra, "_associativity_failures", counted_scan)
    monkeypatch.setattr(TensorSquareAlgebra, "mult", counted_mult)
    assert verify_hopf(H).passed
    assert sorted(at) == sorted(S) and scans == []
    assert len(products) == n * len(S)


@pytest.mark.parametrize("gname", ["Q8", "A4", "D4"])
def test_search_gives_up_on_the_dual_of_a_group(gname):
    # x_i x_j is 0 or x_i on k^G: no index reaches another, and the search
    # stops once n // 2 generators do not reach every index, after far
    # fewer table reads than the n^3 triples of the full scan
    G = named_group(gname)
    A = dual_hopf(group_algebra(G, conductor=G.exponent)).algebra
    n = A.dim
    S, reads = light_generators(A.monomial_table[0])
    assert S is None
    assert 0 < reads <= 2 * n * n
