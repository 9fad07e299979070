"""Exact dense linear algebra over any scalar domain from ``scalars``.

Matrices are dense, row-major, and generic: entries must support the field
operations and the owning ``field`` object supplies zero/one.  Also hosts a
generic polynomial type used for minimal polynomials and the modular
factorization machinery.
"""

from __future__ import annotations


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries):
        self.field = field
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    # -- constructors -----------------------------------------------------
    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, field, cols):
        if not cols:
            return cls(field, [])
        n = len(cols[0])
        return cls(field, [[col[i] for col in cols] for i in range(n)])

    def column(self, j):
        return [row[j] for row in self.entries]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        return Matrix(self.field, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return Matrix(self.field, [[a - b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.field, [[-a for a in row] for row in self.entries])

    def scale(self, c):
        return Matrix(self.field, [[c * a for a in row] for row in self.entries])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        zero = self.field.zero
        ot = [other.column(j) for j in range(other.cols)]
        out = []
        for row in self.entries:
            nz = [(k, a) for k, a in enumerate(row) if a != zero]
            orow = []
            for col in ot:
                s = zero
                for k, a in nz:
                    s = s + a * col[k]
                orow.append(s)
            out.append(orow)
        return Matrix(self.field, out)

    def apply(self, vec):
        zero = self.field.zero
        out = []
        for row in self.entries:
            s = zero
            for a, v in zip(row, vec):
                if a != zero and v != zero:
                    s = s + a * v
            out.append(s)
        return out

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.entries == other.entries)

    def transpose(self):
        return Matrix(self.field, [self.column(j) for j in range(self.cols)])

    def trace(self):
        s = self.field.zero
        for i in range(min(self.rows, self.cols)):
            s = s + self.entries[i][i]
        return s

    def is_zero(self):
        z = self.field.zero
        return all(a == z for row in self.entries for a in row)

    # -- elimination ------------------------------------------------------
    def rref(self, pivot_cols=None):
        """Reduced row echelon form with leading-one pivots, pivoting only
        in the first ``pivot_cols`` columns (all by default).

        Returns (reduced matrix, pivot column list).
        """
        zero, one = self.field.zero, self.field.one
        m = [list(row) for row in self.entries]
        pivots = []
        r = 0
        for c in range(self.cols if pivot_cols is None else pivot_cols):
            pr = None
            for i in range(r, self.rows):
                if m[i][c] != zero:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = one / m[r][c]
            if inv != one:
                m[r] = [inv * a for a in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != zero:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(self.field, m), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Basis of the right kernel, in echelon order."""
        red, pivots = self.rref()
        zero, one = self.field.zero, self.field.one
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [zero] * self.cols
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc]
            basis.append(v)
        return basis

    def solve(self, rhs):
        """Solve self * x = rhs (rhs a vector); None if inconsistent."""
        return next(self.solve_many([rhs]))

    def solve_many(self, rhss):
        """Yield the solution of self * x = b for each vector b of the
        iterable ``rhss`` in turn, None for an inconsistent b.

        The matrix is eliminated once, as [self | I]; the pivot rows of the
        recorded row operations T give x from T b, and x solves the system
        exactly when self * x = b."""
        zero, one = self.field.zero, self.field.one
        n, m = self.cols, self.rows
        aug = Matrix(self.field, [row + [one if i == j else zero
                                         for j in range(m)]
                                  for i, row in enumerate(self.entries)])
        red, pivots = aug.rref(pivot_cols=n)
        ops = [row[n:] for row in red.entries[:len(pivots)]]
        for b in rhss:
            b = list(b)
            nz = [(i, v) for i, v in enumerate(b) if v != zero]
            x = [zero] * n
            for row, pc in zip(ops, pivots):
                s = zero
                for i, v in nz:
                    if row[i] != zero:
                        s = s + row[i] * v
                x[pc] = s
            yield x if self.apply(x) == b else None

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("not square")
        n = self.rows
        aug = Matrix(self.field,
                     [row + Matrix.identity(self.field, n).entries[i]
                      for i, row in enumerate(self.entries)])
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        return Matrix(self.field, [row[n:] for row in red.entries])

    def det(self):
        if self.rows != self.cols:
            raise ValueError("not square")
        zero, one = self.field.zero, self.field.one
        m = [list(row) for row in self.entries]
        det = one
        for c in range(self.cols):
            pr = None
            for i in range(c, self.rows):
                if m[i][c] != zero:
                    pr = i
                    break
            if pr is None:
                return zero
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = -det
            det = det * m[c][c]
            inv = one / m[c][c]
            for i in range(c + 1, self.rows):
                if m[i][c] != zero:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    # -- tensor products --------------------------------------------------
    def kron(self, other):
        """Kronecker product; e_i (x) e_j maps to flat index i*dim(b)+j."""
        zero = self.field.zero
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    a = self.entries[i][j]
                    if a == zero:
                        row.extend([zero] * other.cols)
                    else:
                        row.extend([a * b for b in other.entries[k]])
                out.append(row)
        return Matrix(self.field, out)

    def minimal_polynomial(self):
        """Monic minimal polynomial, as the lcm of Krylov relations seeded
        from each standard basis vector."""
        if self.rows != self.cols:
            raise ValueError("not square")
        n = self.rows
        field = self.field
        zero, one = field.zero, field.one
        result = Poly(field, [one])
        for seed in range(n):
            if result.degree() == n:
                break
            v = [zero] * n
            v[seed] = one
            result = result.lcm(krylov_relation(field,
                                                iterates(self.apply, v)))
        return result

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def iterates(step, v):
    """v, step(v), step(step(v)), ..., each computed when it is read."""
    while True:
        yield v
        v = step(v)


def krylov_relation(field, powers):
    """Monic least-degree polynomial p with sum_k p_k v_k = 0, for the
    stream of vectors v_0, v_1, ... over ``field`` (the powers of an
    operator applied to a start vector).

    Each vector is reduced against those before it, tracking the
    combination of powers that produced it; the stream is read up to its
    first dependent vector, whose combination is the relation.  The k-th
    combination has coefficient 1 at v_k, so the relation is monic."""
    zero, one = field.zero, field.one
    reduced = []  # (pivot index, row, combination)
    for k, vec in enumerate(powers):
        row = list(vec)
        cmb = [zero] * k + [one]
        for pidx, prow, pcmb in reduced:
            c = row[pidx]
            if c != zero:
                row = [a - c * b for a, b in zip(row, prow)]
                for i, b in enumerate(pcmb):
                    cmb[i] = cmb[i] - c * b
        pidx = next((i for i, a in enumerate(row) if a != zero), None)
        if pidx is None:
            return Poly(field, cmb)
        inv = one / row[pidx]
        reduced.append((pidx, [inv * a for a in row], [inv * a for a in cmb]))


class Poly:
    """Dense polynomial over a field; coefficients ascending."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        zero = field.zero
        cs = list(coeffs)
        while cs and cs[-1] == zero:
            cs.pop()
        self.field = field
        self.coeffs = cs

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(i) for i in ints])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.field.one / self.coeffs[-1]
        if inv == self.field.one:
            return self
        return Poly(self.field, [inv * c for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other):
        zero = self.field.zero
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [zero] * (n - len(self.coeffs))
        b = other.coeffs + [zero] * (n - len(other.coeffs))
        return Poly(self.field, [x - y for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.field, [other * c for c in self.coeffs])
        zero = self.field.zero
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a != zero:
                for j, b in enumerate(other.coeffs):
                    if b != zero:
                        out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        zero = self.field.zero
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(self.field, []), self
        quo = [zero] * (dq + 1)
        inv = self.field.one / other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] * inv
            quo[k] = c
            if c != zero:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(self.field, quo), Poly(self.field, rem[: other.degree()])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def inverse_mod(self, m: "Poly") -> "Poly":
        """The inverse of self modulo m by the extended Euclidean algorithm;
        ZeroDivisionError when gcd(self, m) is not a constant."""
        field = self.field
        r0, r1 = m, self % m
        t0, t1 = Poly(field, []), Poly(field, [field.one])
        while not r1.is_zero():
            q, rem = r0.divmod(r1)
            r0, r1 = r1, rem
            t0, t1 = t1, t0 - q * t1
        if r0.degree() != 0:
            raise ZeroDivisionError("polynomial not invertible modulo m")
        return (t0 * (field.one / r0.coeffs[0])) % m

    def lcm(self, other):
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        g = self.gcd(other)
        return ((self * other).divmod(g)[0]).monic()

    def derivative(self):
        return Poly(self.field,
                    [self.field.from_int(i) * c
                     for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, m: Matrix) -> Matrix:
        acc = Matrix.zeros(m.field, m.rows, m.cols)
        for c in reversed(self.coeffs):
            acc = acc * m + Matrix.identity(m.field, m.rows).scale(c)
        return acc

    def pow_mod(self, k: int, modulus: "Poly") -> "Poly":
        out = Poly(self.field, [self.field.one])
        base = self % modulus
        while k:
            if k & 1:
                out = (out * base) % modulus
            base = (base * base) % modulus
            k >>= 1
        return out

    def __repr__(self):
        return f"Poly({[self.field.format(c) for c in self.coeffs]})"
