import pytest
from hypothesis import given, settings, strategies as st

from frobdiv import CyclotomicField, Matrix, QQ, Rat
from frobdiv.linalg import inverse_rows, sparse

from dense_oracle import (PrimeField, identity_matrix, matmul, matrix_sub,
                          poly_from_ints, poly_inverse_mod, poly_pow_mod,
                          poly_x, scalar_matrix, zero_matrix)


def qmat(rows):
    return Matrix(QQ, [[QQ.from_rat(Rat(x)) for x in row] for row in rows])


def test_rref_oracle():
    m = qmat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    red, pivots = m.rref()
    assert pivots == [0, 1]
    # reduced rows: [1, 0, -1], [0, 1, 2]
    assert red.entries[0] == [QQ.one, QQ.zero, QQ.from_rat(Rat(-1))]
    assert red.entries[1] == [QQ.zero, QQ.one, QQ.from_rat(Rat(2))]


def test_kernel_annihilates():
    m = qmat([[1, 2, 3], [4, 5, 6]])
    ker = m.kernel()
    assert len(ker) == 1
    assert all(x == QQ.zero for x in m.apply(ker[0]))


def test_solve_and_inverse():
    m = qmat([[2, 1], [1, 1]])
    rhs = [QQ.from_rat(Rat(3)), QQ.from_rat(Rat(2))]
    x = m.solve(rhs)
    assert m.apply(x) == rhs
    inv = inverse_rows(QQ, [sparse(row) for row in m.entries])
    assert inv == [sparse(row) for row in qmat([[1, -1], [-1, 2]]).entries]
    # inconsistent system
    s = qmat([[1, 1], [1, 1]]).solve([QQ.one, QQ.zero])
    assert s is None


def test_solve_many():
    # rank 2 in Q^3: the third right-hand side leaves the column span
    m = qmat([[1, 0], [0, 1], [1, 1]])
    q = lambda *xs: [QQ.from_rat(Rat(x)) for x in xs]
    rhss = [q(1, 2, 3), q(0, 0, 0), q(1, 1, 1), q(-2, 5, 3)]
    got = list(m.solve_many(iter(rhss)))
    assert got == [q(1, 2), q(0, 0), None, q(-2, 5)]
    assert [m.solve(b) for b in rhss] == got
    assert list(m.solve_many([])) == []
    # a singular square system: consistent and inconsistent right sides
    s = qmat([[1, 2], [2, 4]])
    x = s.solve(q(3, 6))
    assert s.apply(x) == q(3, 6)
    assert s.solve(q(3, 5)) is None


def test_minimal_polynomial_oracles():
    # 3-cycle permutation: x^3 - 1
    perm = qmat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    mp = perm.minimal_polynomial()
    assert mp.coeffs == [QQ.from_rat(Rat(-1)), QQ.zero, QQ.zero, QQ.one]
    # nilpotent: x^2
    nil = qmat([[0, 1], [0, 0]])
    assert nil.minimal_polynomial().coeffs == [QQ.zero, QQ.zero, QQ.one]
    # diagonal {1, 2}: x^2 - 3x + 2
    diag = qmat([[1, 0], [0, 2]])
    assert diag.minimal_polynomial().coeffs == [
        QQ.from_rat(Rat(2)), QQ.from_rat(Rat(-3)), QQ.one]
    # minimal polynomial annihilates the matrix (Horner)
    value = zero_matrix(QQ, 2, 2)
    for c in reversed(diag.minimal_polynomial().coeffs):
        value = matrix_sub(matmul(value, diag), scalar_matrix(QQ, 2, -c))
    assert value.entries == zero_matrix(QQ, 2, 2).entries


def test_rref_and_kernel_surface():
    m = qmat([[1, 2], [2, 4]])
    red, pivots = m.rref()
    ker = m.kernel()
    assert len(pivots) == 1 and len(ker) == 1


def test_poly_inverse_mod():
    # over Q: (x + 1)^-1 mod x^2 + 1 = (1 - x)/2
    f = poly_from_ints(QQ, [1, 1])
    m = poly_from_ints(QQ, [1, 0, 1])
    half = QQ.from_rat(Rat(1, 2))
    assert poly_inverse_mod(f, m).coeffs == [half, -half]
    # over F_7: 3^-1 = 5, and x is a unit mod x^2 + 1 with inverse -x
    gf = PrimeField(7)
    m7 = poly_from_ints(gf, [1, 0, 1])
    assert poly_inverse_mod(poly_from_ints(gf, [3]), m7) == \
        poly_from_ints(gf, [5])
    assert poly_inverse_mod(poly_x(gf), m7) == poly_from_ints(gf, [0, 6])
    # x + 1 divides x^2 - 1: no inverse
    with pytest.raises(ZeroDivisionError):
        poly_inverse_mod(f, poly_from_ints(QQ, [-1, 0, 1]))


def test_poly_ops():
    f = poly_from_ints(QQ, [-1, 0, 1])        # x^2 - 1
    g = poly_from_ints(QQ, [1, 1])            # x + 1
    q, r = f.divmod(g)
    assert r.is_zero() and q.coeffs == [QQ.from_rat(Rat(-1)), QQ.one]
    assert f.gcd(g).monic() == g.monic()
    assert f.lcm(g) == f.monic()
    assert f.derivative().coeffs == [QQ.zero, QQ.from_rat(Rat(2))]
    # pow_mod: x^4 mod (x^2 - 1) = 1
    assert poly_pow_mod(poly_x(QQ), 4, f).coeffs == [QQ.one]


def test_cyclotomic_matrix():
    K = CyclotomicField(4)
    i = K.zeta()
    m = Matrix(K, [[K.zero, -i], [i, K.zero]])
    assert matmul(m, m).entries == identity_matrix(K, 2).entries
    rows = [sparse(row) for row in m.entries]
    assert inverse_rows(K, rows) == rows
    mp = m.minimal_polynomial()
    # eigenvalues +-1: x^2 - 1
    assert mp.coeffs == [-K.one, K.zero, K.one]


@st.composite
def small_qmatrix(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, 4))
    ent = [[QQ.from_rat(Rat(draw(st.integers(-5, 5))))
            for _ in range(m)] for _ in range(n)]
    return Matrix(QQ, ent)


@settings(max_examples=40, deadline=None)
@given(small_qmatrix())
def test_rref_properties(m):
    red, pivots = m.rref()
    # idempotent
    assert red.rref()[0].entries == red.entries
    # rank-nullity
    assert len(pivots) + len(m.kernel()) == m.cols
    for v in m.kernel():
        assert all(x == QQ.zero for x in m.apply(v))
