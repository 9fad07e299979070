"""The sparse echelon form of ``linalg`` against the dense eliminations of
``dense_oracle``, over Q, Q(zeta_4) and F_5, on derandomized matrices with
many zeros, repeated rows and all-zero rows, and on empty input.

Compared: rref and pivots, kernels, inverses (singular input raises),
``solve_many`` (inconsistent right-hand sides give None), ``coords`` and
``contains`` on a span and on a kernel, and Krylov relations."""

import pytest
from hypothesis import given, settings, strategies as st

from frobdiv import CyclotomicField, Matrix, QQ
from frobdiv.linalg import (EchelonSubspace, inverse_rows, iterates,
                            krylov_relation, sparse)

from dense_oracle import (PrimeField, dense, dense_coords, dense_inverse,
                          dense_kernel, dense_krylov_relation, dense_rref,
                          dense_solve_many, identity_matrix, zero_matrix)
from identity_oracle import contains

FIELDS = {"Q": QQ, "Q(zeta_4)": CyclotomicField(4), "F_5": PrimeField(5)}
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)

entry = st.tuples(st.sampled_from([0, 0, 0, 1, -1, 2, 3]),
                  st.sampled_from([0, 0, 1, -2]))


def scalar(field, a, b):
    """a + b zeta over Q(zeta_4); a + b elsewhere."""
    if isinstance(field, CyclotomicField):
        return field.from_rat(a) + field.from_rat(b) * field.zeta(1)
    return field.from_rat(a + b)


@st.composite
def matrices(draw, square=False):
    """(rows, cols, entries as (a, b) pairs): sometimes a repeated row and
    sometimes an all-zero row, so that ranks fall short."""
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(1, 5))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, m - 1))] = list(rows[0])
    if m and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [(0, 0)] * n
    return m, n, rows


def concrete(field, rows):
    return [[scalar(field, a, b) for a, b in row] for row in rows]


@pytest.mark.parametrize("fname", FIELDS)
@EXAMPLES
@given(mat=matrices())
def test_rref_and_kernel(fname, mat):
    field = FIELDS[fname]
    m, n, raw = mat
    rows = concrete(field, raw)
    space = EchelonSubspace(field, n, map(sparse, rows))
    red, pivots = dense_rref(field, rows) if rows else ([], [])
    assert space.pivots == pivots
    assert space.basis == [sparse(row) for row in red[:len(pivots)]]
    assert space.kernel().basis == [sparse(v) for v
                                    in dense_kernel(field, rows, n)]
    if rows:
        got, got_pivots = Matrix(field, rows).rref()
        assert (got.entries, got_pivots) == (red, pivots)
        assert Matrix(field, rows).kernel() == dense_kernel(field, rows, n)


@pytest.mark.parametrize("fname", FIELDS)
@EXAMPLES
@given(mat=matrices(square=True))
def test_inverse(fname, mat):
    field = FIELDS[fname]
    m, n, raw = mat
    rows = concrete(field, raw)
    if not rows:
        return
    try:
        want = dense_inverse(field, rows)
    except ValueError:
        with pytest.raises(ValueError) as err:
            inverse_rows(field, [sparse(row) for row in rows])
        assert err.value.witness == sparse(dense_kernel(field, rows, n)[0])
    else:
        got = inverse_rows(field, [sparse(row) for row in rows])
        assert got == [sparse(row) for row in want]


@pytest.mark.parametrize("fname", FIELDS)
@EXAMPLES
@given(mat=matrices(), data=st.data())
def test_solve_many(fname, mat, data):
    field = FIELDS[fname]
    m, n, raw = mat
    rows = concrete(field, raw)
    if not rows:
        return
    M = Matrix(field, rows)
    xs = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                            max_size=3))
    rhss = [M.apply([scalar(field, a, b) for a, b in x]) for x in xs]
    rhss += concrete(field, data.draw(st.lists(
        st.lists(entry, min_size=m, max_size=m), max_size=3)))
    got = list(M.solve_many(iter(rhss)))
    assert got == dense_solve_many(field, rows, rhss)
    assert all(x is not None for x in got[:len(xs)])


@pytest.mark.parametrize("fname", FIELDS)
@EXAMPLES
@given(mat=matrices(), data=st.data())
def test_coords_and_contains(fname, mat, data):
    field = FIELDS[fname]
    m, n, raw = mat
    vectors = concrete(field, raw)
    space = EchelonSubspace(field, n, map(sparse, vectors))
    combos = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                max_size=3))
    queries = [[sum((scalar(field, a, b) * v[k]
                     for (a, b), v in zip(combo, vectors)), field.zero)
                for k in range(n)] for combo in combos]
    queries += concrete(field, data.draw(st.lists(
        st.lists(entry, min_size=n, max_size=n), max_size=3)))
    for vec in queries:
        want = dense_coords(field, vectors, vec)
        assert space.coords(sparse(vec)) == (None if want is None
                                             else sparse(want))
        assert contains(space, sparse(vec)) == (want is not None)
    assert all(contains(space, sparse(v)) for v in queries[:len(combos)])


@pytest.mark.parametrize("fname", FIELDS)
@EXAMPLES
@given(mat=matrices(), data=st.data())
def test_kernel_coords(fname, mat, data):
    """A kernel's coordinates are its entries at the free columns, and
    they rebuild every vector of the kernel."""
    field = FIELDS[fname]
    m, n, raw = mat
    rows = concrete(field, raw)
    kernel = EchelonSubspace(field, n, map(sparse, rows)).kernel()
    basis = kernel.basis
    combo = [scalar(field, a, b) for a, b in data.draw(
        st.lists(entry, min_size=len(basis), max_size=len(basis)))]
    vec = [sum((c * v.get(k, field.zero) for c, v in zip(combo, basis)),
               field.zero) for k in range(n)]
    assert kernel.coords(sparse(vec)) == sparse(combo)
    assert all(sum((a * x for a, x in zip(row, vec)), field.zero) == field.zero
               for row in rows)
    if basis:
        off = list(vec)
        off[kernel.pivots[0]] = off[kernel.pivots[0]] + field.one
        assert all(contains(kernel, v) for v in basis)
        dense_basis = [dense(v, n, field.zero) for v in basis]
        assert contains(kernel, sparse(off)) == (
            dense_coords(field, dense_basis, off) is not None)


@pytest.mark.parametrize("fname", FIELDS)
@EXAMPLES
@given(mat=matrices(square=True), start=st.lists(entry, min_size=5,
                                                  max_size=5))
def test_krylov_relation(fname, mat, start):
    field = FIELDS[fname]
    m, n, raw = mat
    if not raw:
        return
    M = Matrix(field, concrete(field, raw))
    v = [scalar(field, a, b) for a, b in start[:n]]
    got = krylov_relation(field, n, map(sparse, iterates(M.apply, v)))
    want = dense_krylov_relation(field, iterates(M.apply, v))
    assert got.coeffs == want
    assert got.coeffs[-1] == field.one


@pytest.mark.parametrize("fname", FIELDS)
def test_empty_and_zero_inputs(fname):
    field = FIELDS[fname]
    zero, one = field.zero, field.one
    empty = EchelonSubspace(field, 3)
    identity = identity_matrix(field, 3).entries
    assert (empty.dim, empty.pivots, empty.basis) == (0, [], [])
    assert empty.kernel().basis == [sparse(row) for row in identity]
    assert empty.coords({}) == {}
    assert not contains(empty, {0: one, 1: one, 2: one})
    zeros = EchelonSubspace(field, 3, [{}, {0: zero}, {2: zero}])
    assert zeros.dim == 0
    assert zeros.kernel().basis == [sparse(row) for row in identity]
    assert (zero_matrix(field, 2, 3).rref()[0].entries
            == zero_matrix(field, 2, 3).entries)
    assert zero_matrix(field, 2, 3).kernel() == identity
    assert list(zero_matrix(field, 2, 2).solve_many(
        [[zero, zero], [one, zero]])) == [[zero, zero], None]
    with pytest.raises(ValueError):
        inverse_rows(field, [{}, {}])
    # a zero start vector: the relation is the constant 1
    assert krylov_relation(field, 2, iter([{}])).coeffs == [one]
    assert dense_krylov_relation(field, iter([[zero, zero]])) == [one]
