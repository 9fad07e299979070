"""The Wedderburn splits on int residues and the exact checks on the
integral table.

The modular split holds each F_p value as an int and each element as a
sparse residue vector; ``dense_oracle`` keeps the split on ``PrimeField``
objects and dense products it replaced, and both must give the same
blocks on every CRT component, at the prime the analysis picks.  The
factorization mod p is compared the same way on seeded random squarefree
polynomials.  ``is_idempotent``, ``is_commutative`` and the fusion solve
``Matrix.solve_many`` are checked against direct computations."""

import random

import pytest

from frobdiv import (QQ, HopfAnalysis, Matrix, Rat, StructureConstantAlgebra,
                     drinfeld_double, dual_hopf, group_algebra, named_group)
from frobdiv.algebra import combine
from frobdiv.modular import (ComponentAlgebra, component_roots, factor_mod_p,
                             is_squarefree_mod, modular_split, roots_mod_p)
from frobdiv.wedderburn import _verify_idempotent, central_primitive_idempotents

from dense_oracle import (PrimeField, gf_factor_mod_p, gf_modular_split,
                          gf_roots_mod_p, poly_from_ints)
from ladder import LADDER, ladder_hopf

# the ladder documents, then two doubles: (group, kind, conductor)
DOCS = LADDER + [("C4", "double", None), ("S3", "double", None)]

_HOPF = {}


def hopf(gname, kind, conductor):
    key = (gname, kind, conductor)
    if key not in _HOPF:
        if kind == "double":
            G = named_group(gname)
            _HOPF[key] = drinfeld_double(G, conductor=G.exponent)
        else:
            _HOPF[key] = ladder_hopf(gname, kind, conductor), None
    return _HOPF[key]


def blocks(split):
    return [(b.central_idempotent, b.degree, b.block_dim, b.center_dim)
            for b in split]


def assert_splits_agree(A, p):
    roots, _ = component_roots(A.field.conductor, p, 1)
    for w in roots:
        comp = ComponentAlgebra(A, w, p)
        got = blocks(modular_split(comp))
        assert got and got == blocks(gf_modular_split(comp))


@pytest.mark.parametrize("gname,kind,conductor", DOCS,
                         ids=[f"{k}-{g}-{c}" for g, k, c in DOCS])
def test_int_split_matches_prime_field_split(gname, kind, conductor):
    H, _ = hopf(gname, kind, conductor)
    data = central_primitive_idempotents(H.algebra)
    assert_splits_agree(H.algebra, data.prime_used)


@pytest.mark.parametrize("gname", ["C4", "S3"])
def test_int_split_of_the_ring_matches_prime_field_split(gname):
    H, Q = hopf(gname, "double", None)
    ring = HopfAnalysis(H, Q.R).ring
    assert_splits_agree(ring.ring, ring.wedderburn.prime_used)


def squarefree_polys(p, count, seed):
    """Seeded random monic squarefree polynomials mod p of degree 1 to 7,
    as int lists."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 8))] + [1]
        if is_squarefree_mod(f, p):
            out.append(f)
    return out


@pytest.mark.parametrize("p", [7, 13, 37])
def test_factor_and_roots_match_prime_field(p):
    gf = PrimeField(p)
    for f in squarefree_polys(p, 40, p):
        g = poly_from_ints(gf, f)
        assert g.gcd(g.derivative()).degree() == 0
        want = gf_factor_mod_p(g, p, random.Random(1))
        got = factor_mod_p(f, p, random.Random(1))
        assert got == [[c.residue for c in h.coeffs] for h in want]
        assert roots_mod_p(f, p, random.Random(2)) == \
            gf_roots_mod_p(g, p, random.Random(2))


# ---------------------------------------------------------------------------
# exact checks on the integral table
# ---------------------------------------------------------------------------


def scaled(field, e, c):
    return {k: field.from_rat(Rat(c)) * x for k, x in e.items()}


@pytest.mark.parametrize("gname,kind,conductor",
                         [("S3", "group-algebra", None),
                          ("A4", "dual", 12), ("C4", "double", None)])
def test_is_idempotent_accepts_blocks_and_rejects_multiples(gname, kind,
                                                           conductor):
    A = hopf(gname, kind, conductor)[0].algebra
    field = A.field
    for e in central_primitive_idempotents(A).idempotents:
        assert A.is_idempotent(e)
        assert A.multiply(e, e) == e
        two_e = scaled(field, e, 2)
        assert not A.is_idempotent(two_e)
        assert not A.is_idempotent(combine([(field.one, A.unit),
                                            (-field.one, two_e)]))
    assert A.is_idempotent(A.unit)


def test_verify_idempotent_rejects_a_non_central_idempotent():
    # (1 + s)/2 for a transposition s of S3: an idempotent, not central
    H = group_algebra(named_group("S3"))
    A = H.algebra
    one = A.field.one
    s = next(i for i in range(1, A.dim) if A.table[i][i].get(0)
             and not A.is_central({i: one}))
    half = A.field.from_rat(Rat(1, 2))
    e = combine([(half, A.unit), (half, {s: one})])
    assert A.multiply(e, e) == e and A.is_idempotent(e)
    assert not A.is_central(e)
    assert not _verify_idempotent(A, e)


def test_is_commutative():
    assert not group_algebra(named_group("S3")).algebra.is_commutative
    assert group_algebra(named_group("C4")).algebra.is_commutative
    assert dual_hopf(group_algebra(named_group("S3"))).algebra.is_commutative
    H, Q = hopf("S3", "double", None)
    assert not H.algebra.is_commutative
    assert HopfAnalysis(H, Q.R).ring.ring.is_commutative


def test_one_asymmetric_cell_falls_back_to_the_scan():
    # kC2 with x_0 x_1 = 2 x_1 and x_1 x_0 = x_1: not an algebra, but the
    # table is asymmetric in one cell, so centrality is checked cell by cell
    one, two = QQ.one, QQ.from_rat(Rat(2))
    table = [[{0: one}, {1: two}], [{1: one}, {0: one}]]
    A = StructureConstantAlgebra(QQ, 2, table, [one, QQ.zero])
    assert not A.is_commutative
    assert A.is_central({0: one}) is False
    assert A.is_central({})
    table[0][1] = {1: one}
    B = StructureConstantAlgebra(QQ, 2, table, [one, QQ.zero])
    assert B.is_commutative and B.is_central({1: one})


# ---------------------------------------------------------------------------
# the fusion solve
# ---------------------------------------------------------------------------


def apply_checked_solve_many(m, rhss):
    """``Matrix.solve_many`` as it was: x = T b from [m | I], accepted when
    m x = b."""
    from frobdiv.linalg import EchelonSubspace, sparse
    zero, n = m.field.zero, m.cols
    space = EchelonSubspace(m.field, n, ({**sparse(row), n + i: m.field.one}
                                         for i, row in enumerate(m.entries)))
    out = []
    for b in rhss:
        x = [zero] * n
        for p in space.pivots:
            x[p] = sum((c * b[k - n] for k, c in space.rows[p].items()
                        if k >= n), zero)
        out.append(x if m.apply(x) == list(b) else None)
    return out


def qmat(rows):
    return Matrix(QQ, [[QQ.from_rat(Rat(x)) for x in row] for row in rows])


def test_solve_many_rejects_a_vector_outside_a_tall_span():
    chi = qmat([[1, 0], [0, 1], [1, 1]])
    inside = [QQ.from_rat(Rat(x)) for x in (2, 3, 5)]
    outside = [QQ.from_rat(Rat(x)) for x in (2, 3, 4)]
    got = list(chi.solve_many([inside, outside]))
    assert got == [[QQ.from_rat(Rat(2)), QQ.from_rat(Rat(3))], None]


@pytest.mark.parametrize("seed", range(6))
def test_solve_many_matches_the_apply_checked_answer(seed):
    rng = random.Random(seed)
    rows, cols = rng.randrange(2, 7), rng.randrange(1, 5)
    entries = [[rng.randrange(-2, 3) for _ in range(cols)]
               for _ in range(rows)]
    if seed % 3 == 0:  # dependent columns
        for row in entries:
            row[-1] = row[0]
    m = qmat(entries)
    rhss = []
    for _ in range(8):
        if rng.random() < 0.5:  # in the span
            x = [rng.randrange(-3, 4) for _ in range(cols)]
            b = [sum(a * c for a, c in zip(row, x)) for row in entries]
        else:
            b = [rng.randrange(-3, 4) for _ in range(rows)]
        rhss.append([QQ.from_rat(Rat(c)) for c in b])
    assert list(m.solve_many(rhss)) == apply_checked_solve_many(m, rhss)
