"""Exact linear algebra over any scalar domain from ``scalars``.

Every elimination runs through one sparse echelon form,
``EchelonSubspace``: rows are dicts {column: nonzero scalar}, kept fully
reduced, and the combinations of input rows that a caller must track ride
along as extra columns that never become pivots.  Ranks, kernels, the rows
of inverses (``inverse_rows``), solutions and Krylov relations are all read
off it.  ``Matrix`` is a dense, row-major matrix whose elimination methods
are entry points over that form.  The library computes with none: it is a
dense view (``HopfAlgebraData.antipode``) kept for the tests and for
``perfbench/traced.py``, which times the methods it binds by name.
Entries must support the field operations and the owning ``field`` object
supplies zero/one.  Also hosts a generic polynomial type used for minimal
polynomials and for the roots of ``wedderburn.field_roots``.
"""

from __future__ import annotations


class Singular(ValueError):
    """A square matrix has no inverse; ``witness`` is a nonzero vector of
    its right kernel."""

    def __init__(self, witness):
        super().__init__("singular matrix")
        self.witness = witness


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
    def from_columns(cls, field, cols):
        if not cols:
            return cls(field, [])
        n = len(cols[0])
        return cls(field, [[col[i] for col in cols] for i in range(n)])

    # -- arithmetic -------------------------------------------------------
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

    # -- elimination, over EchelonSubspace --------------------------------
    def _row_space(self):
        return EchelonSubspace(self.field, self.cols,
                               map(sparse, self.entries))

    def rref(self):
        """Reduced row echelon form with leading-one pivots, zero rows
        last.  Returns (reduced matrix, pivot column list)."""
        space = self._row_space()
        zero_rows = [[self.field.zero] * self.cols] * (self.rows - space.dim)
        return Matrix(self.field, space.basis + zero_rows), space.pivots

    def kernel(self):
        """Basis of the right kernel, in echelon order."""
        return self._row_space().kernel().basis

    def solve(self, rhs):
        """Solve self * x = rhs (rhs a vector); None if inconsistent."""
        return next(self.solve_many([rhs]))

    def solve_many(self, rhss):
        """Yield the solution of self * x = b for each vector b of the
        iterable ``rhss`` in turn, None for an inconsistent b.

        [self | I] is eliminated once; the tracked part T of each pivot row
        gives x = T b, 0 at the free columns.  b lies in the column span
        exactly when y b = 0 for every relation y self = 0 (they span the
        left kernel), and then self * x = b at any rank."""
        zero, n = self.field.zero, self.cols
        space, relations = _beside_identity(self.field, n,
                                            map(sparse, self.entries))
        ops = [(p, [(k - n, c) for k, c in space.rows[p].items() if k >= n])
               for p in space.pivots]
        for b in rhss:
            b = list(b)
            if any(sum((c * b[i] for i, c in y if b[i]), zero)
                   for y in relations):
                yield None
                continue
            x = [zero] * n
            for p, op in ops:
                x[p] = sum((c * b[i] for i, c in op if b[i]), zero)
            yield x

    def minimal_polynomial(self):
        """Monic minimal polynomial, as the lcm of Krylov relations seeded
        from each standard basis vector."""
        if self.rows != self.cols:
            raise ValueError("not square")
        n = self.rows
        field = self.field
        result = Poly(field, [field.one])
        for seed in range(n):
            if result.degree() == n:
                break
            v = [field.zero] * n
            v[seed] = field.one
            result = result.lcm(krylov_relation(
                field, n, map(sparse, iterates(self.apply, v))))
        return result

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def sparse(vec):
    """A dense vector as a sparse row {index: nonzero entry}."""
    return {k: c for k, c in enumerate(vec) if c}


def _beside_identity(field, n, rows):
    """The echelon form of [M | I] for the sparse rows of M (n columns),
    column n + i tracking row i, read to the last row; and the relations
    y with y M = 0 that the rows reducing to 0 on the left leave, as lists
    of (i, y_i)."""
    one = field.one
    space = EchelonSubspace(field, n)
    relations = [[(k - n, c) for k, c in y.items()] for y in
                 (space.add({**row, n + i: one}) for i, row in enumerate(rows))
                 if y]
    return space, relations


def inverse_rows(field, rows):
    """The rows of the inverse of the n x n matrix with the sparse rows
    ``rows``, as sparse rows {column: nonzero entry}: the tracked parts of
    one elimination of [M | I].  Raises Singular, carrying a kernel
    vector, when there is no inverse."""
    n = len(rows)
    space, _ = _beside_identity(field, n, rows)
    if space.dim < n:
        raise Singular(space.kernel().basis[0])
    return [{k - n: c for k, c in space.rows[p].items() if k >= n}
            for p in range(n)]


class EchelonSubspace:
    """The span of sparse rows {column: scalar} over ``field``, in fully
    reduced echelon form: ``rows`` maps each pivot column to its row, which
    has coefficient 1 there and 0 at every other pivot.  Pivots lie in the
    columns below ``n``; columns from n on carry tracked combinations of
    the input rows and never become pivots.

    An incoming row is cleared at the pivot columns in its support in one
    pass (the kept rows vanish at each other's pivots), takes its least
    column as pivot, and that column is cleared from the kept rows.  Rows
    may be streamed: at most n are held, and none is read once the rank
    reaches n."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field, n, rows=()):
        self.field = field
        self.n = n
        self.rows = {}
        for row in rows:
            self.add(row)
            if len(self.rows) == n:
                break

    @property
    def dim(self):
        return len(self.rows)

    @property
    def pivots(self):
        return sorted(self.rows)

    @property
    def basis(self):
        """The kept rows in pivot order, as dense vectors of length n."""
        return [self.dense(self.rows[p]) for p in self.pivots]

    def dense(self, row, start=0):
        """The n entries of ``row`` from column ``start`` on, as a dense
        vector: its tracked part when start = n."""
        zero = self.field.zero
        return [row.get(k, zero) for k in range(start, start + self.n)]

    def reduce(self, row):
        """``row`` less the combination of kept rows that clears it at every
        pivot, as a new row without zeros."""
        v = {k: c for k, c in row.items() if c}
        rows = self.rows
        for p in [k for k in v if k in rows]:
            _subtract(v, v[p], rows[p])
        return v

    def add(self, row):
        """Reduce ``row``.  When a column below n is left, keep the result
        as a new row and return None; otherwise return it, a relation among
        the tracked columns (empty when none are tracked)."""
        v = self.reduce(row)
        p = min(v, default=self.n)
        if p >= self.n:
            return v
        one = self.field.one
        inv = one / v[p]
        if inv != one:
            v = {k: inv * c for k, c in v.items()}
        for kept in self.rows.values():
            f = kept.get(p)
            if f is not None:
                _subtract(kept, f, v)
        self.rows[p] = v
        return None

    def kernel(self):
        """The vectors v of field^n with sum_k row[k] v_k = 0 for every kept
        row, as a subspace whose pivots are the free columns: the basis
        vector of free column f has 1 at f and 0 at the other free columns
        (``reduce`` and ``coords`` need no more).  Its basis is in order of
        f."""
        one = self.field.one
        out = EchelonSubspace(self.field, self.n)
        for free in range(self.n):
            if free in self.rows:
                continue
            vec = {free: one}
            for p, kept in self.rows.items():
                c = kept.get(free)
                if c is not None:
                    vec[p] = -c
            out.rows[free] = vec
        return out

    def coords(self, vec):
        """Coordinates of a dense vector on ``basis``, None when it is not
        in the span.  A kept row is 1 at its pivot and 0 at the others, so
        they are the entries of vec at the pivots."""
        if self.reduce(sparse(vec)):
            return None
        return [vec[p] for p in self.pivots]


def _subtract(v, f, row):
    """v -= f * row for sparse rows, in place, dropping the entries that
    become zero."""
    for k, c in row.items():
        x = v.get(k)
        if x is None:
            v[k] = -(f * c)
        else:
            x = x - f * c
            if x:
                v[k] = x
            else:
                del v[k]


def iterates(step, v):
    """v, step(v), step(step(v)), ..., each computed when it is read."""
    while True:
        yield v
        v = step(v)


def krylov_relation(field, n, powers):
    """Monic least-degree polynomial p with sum_k p_k v_k = 0, for the
    stream of sparse vectors v_0, v_1, ... in field^n (the powers of an
    operator applied to a start vector).

    v_k enters an ``EchelonSubspace`` with tracked column n + k set to 1;
    the stream is read up to its first dependent vector, whose residue is
    the relation.  Earlier rows are tracked in columns below n + k only, so
    the relation has coefficient 1 at v_k: it is monic."""
    zero, one = field.zero, field.one
    space = EchelonSubspace(field, n)
    for k, vec in enumerate(powers):
        rel = space.add({**vec, n + k: one})
        if rel is not None:
            return Poly(field, [rel.get(n + i, zero) for i in range(k + 1)])


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

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def monic(self):
        if self.is_zero():
            return self
        inv = self.field.one / self.coeffs[-1]
        if inv == self.field.one:
            return self
        return Poly(self.field, [inv * c for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __mul__(self, other):
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

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        zero = self.field.zero
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(self.field, []), self
        quo = [zero] * (dq + 1)
        inv = self.field.one / other.coeffs[-1]
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

    def __repr__(self):
        return f"Poly({[self.field.format(c) for c in self.coeffs]})"
