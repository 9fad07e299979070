"""Structure-constant algebras and the symmetric-algebra apparatus:
Frobenius forms, dual bases, Casimir element and trace, trace formulas,
centers and regular characters.

Linear conditions are read straight from the sparse structure table
``table[i][k]``: the center is the joint kernel of the rows
sum_k a_k (c_ik^r - c_ki^r), streamed into the sparse echelon form of
``linalg.EchelonSubspace`` without forming any multiplication operator,
``is_central`` compares a x_i with x_i a on the table (and nothing once
``is_commutative`` has found the table symmetric), and the Gram rows of a
form, sum_r lambda_r c_ij^r, are eliminated once beside the identity
(``linalg.inverse_rows``), of which only the sparse rows of the inverse
are kept.  The Casimir element multiplies elements of A (x) A through
the swap law, on the table of A as well.  It, the associativity check,
the unit laws and ``is_idempotent`` run on ``integral_table``: D times
the table, for D the lcm of the denominators of the constants, an int per
rational constant and an integral ``Cyc`` per other one, read off with no
field arithmetic.

Associativity is certified by Light's test where it can be: on a monomial
table (each x_i x_j a multiple of at most one x_m, as for kG, k^G, D(G)
and their relabellings) a greedy search finds basis indices S whose words
reach every basis index, and the n^2 |S| triples (x_i s) x_k =
x_i (s x_k) prove the n^3.  The full scan runs only when no S well below
n is found, or to name the triples that fail.
Every vector is a sparse dict {index: nonzero scalar}: an element of A
(the unit, integrals, idempotents, Gamma(1)), a linear form on A given by
its values on the basis (lambda, chi_reg, rho, the characters), and an
element of A (x) A (the Casimir element, R-matrices, Delta(x_j)), keyed
i*dim + j.  A list of dim scalars appears only at the boundary: the
``unit`` argument of ``StructureConstantAlgebra`` may be one, and the JSON
documents and the report write them.  Two kernels work on sparse vectors:
``table_product(table, a, b)``, the product read off the field table or
the integral table over the supports of a and b, and ``combine(terms)``,
the sum of c v over pairs (c, v), without zeros.  The maps on A (x) A are
read off the table or the sparse images of the basis: the product m
(``multiply_legs``; Gamma(1) = m(c)), a linear map on one leg
(``map_leg``) and the contractions with a form on one leg
(``contract_left/right``)."""

from __future__ import annotations

import functools
import math

from .integrality import is_integral_over_Z
from .linalg import EchelonSubspace, Singular, inverse_rows
from .scalars import Cyc


class AlgebraError(Exception):
    pass


class NotATraceForm(AlgebraError):
    def __init__(self, i, j):
        super().__init__(f"<lambda, x{i} x{j}> != <lambda, x{j} x{i}>")
        self.witness = (i, j)


class DegenerateForm(AlgebraError):
    """The Gram matrix of the form is singular; ``witness`` spans part of an
    ideal on which the form vanishes."""

    def __init__(self, witness):
        super().__init__("Frobenius form vanishes on a nonzero ideal")
        self.witness = witness


class VerificationReport:
    """Whether every axiom held, and the labels of those that failed."""

    __hash__ = None

    def __init__(self, passed: bool, failures=None):
        self.passed = passed
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.passed, self.failures) == (other.passed, other.failures)

    def __repr__(self):
        return (f"VerificationReport(passed={self.passed!r}, "
                f"failures={self.failures!r})")

    def record(self, ok: bool, label):
        if not ok:
            self.passed = False
            self.failures.append(label)


class StructureConstantAlgebra:
    """Finite-dimensional algebra given by basis and structure constants.

    ``table[i][j]`` is a sparse dict {k: scalar} with x_i x_j = sum_k c x_k.
    ``unit`` is a sparse vector or a list of dim scalars; it is kept as a
    sparse vector.
    """

    def __init__(self, field, dim, table, unit, name=""):
        self.field = field
        self.dim = dim
        self.table = table
        self.unit = _clean(unit if isinstance(unit, dict)
                           else dict(enumerate(unit)))
        self.name = name
        self._center = None
        self._regular_character = None
        self._right_regular_character = None

    # -- elements ---------------------------------------------------------
    def multiply(self, a, b):
        """a b, read off the field table (``table_product``)."""
        return table_product(self.table, a, b)

    @functools.cached_property
    def integral_table(self):
        """(D, {k: D c_ij^k} for each i, j) without stored zeros, for D the
        lcm of the denominators of the constants.  The cells are read only:
        the zero products share one empty dict."""
        D = _common_den(c for row in self.table for cell in row
                        for c in cell.values())
        no_terms = {}
        return D, [[{k: _times_den(c, D) for k, c in cell.items() if c}
                    or no_terms for cell in row] for row in self.table]

    @functools.cached_property
    def monomial_table(self):
        """The integral table when each product x_i x_j is a multiple
        D c x_m of at most one basis element, else None: (index, coeffs)
        with index[i][j] = m and coeffs[i][j] = D c, or n and 0 when
        x_i x_j = 0.  Row n and column n of both stand for the zero
        product; coeffs is None when every nonzero D c is the same."""
        n = self.dim
        table = self.integral_table[1]
        if any(len(cell) > 1 for row in table for cell in row):
            return None
        index = [[next(iter(cell)) if cell else n for cell in row] + [n]
                 for row in table]
        coeffs = [[next(iter(cell.values())) if cell else 0 for cell in row]
                  + [0] for row in table]
        index.append([n] * (n + 1))
        coeffs.append([0] * (n + 1))
        if len({c for row in coeffs for c in row if c}) <= 1:
            coeffs = None
        return index, coeffs

    @functools.cached_property
    def row_supports(self):
        """For each i, the indices j with x_i x_j != 0, ascending."""
        return [tuple(j for j, cell in enumerate(row) if cell)
                for row in self.table]

    @functools.cached_property
    def generating_set(self):
        """Basis indices whose words reach every basis index on the
        monomial table (``light_generators``); None when the table is not
        monomial or no set well below dim A is found."""
        mono = self.monomial_table
        return None if mono is None else light_generators(mono[0])[0]

    # -- verification -----------------------------------------------------
    def verify(self) -> VerificationReport:
        """Associativity and both unit laws on the integral table, where
        both sides of a law scale alike: by D^2, or by D den(1).

        Associativity is proven by Light's test when the generating set S
        is found: the n^2 |S| triples (x_i s) x_k = x_i (s x_k), s in S.
        Otherwise, or when one of them fails, the scan of all n^3 triples
        names the failures."""
        report = VerificationReport(True)
        if not self.light_associative():
            for label in _associativity_failures(self.integral_table[1]):
                report.record(False, label)
        D, table = self.integral_table
        den = _common_den(self.unit.values())
        U = {m: _times_den(u, den) for m, u in self.unit.items()}
        for i in range(self.dim):
            # 1 x_i = x_i = x_i 1, times D den
            x_i, want = {i: 1}, {i: D * den}
            report.record(table_product(table, U, x_i) == want,
                          ("left-unit", i))
            report.record(table_product(table, x_i, U) == want,
                          ("right-unit", i))
        return report

    def light_associative(self) -> bool:
        """Whether Light's test proves A associative (Clifford and
        Preston, *The Algebraic Theory of Semigroups* I, 1.2).  The
        elements t with (x t) y = x (t y) for all x, y form a subspace
        closed under products.  It is all of A once it contains every s in
        S, since the words in S reach every basis element with a nonzero
        scalar."""
        S = self.generating_set
        if S is None:
            return False
        index, coeffs = self.monomial_table
        return all(_associative_at(index, coeffs, s) for s in S)

    # -- invariants -------------------------------------------------------
    @functools.cached_property
    def is_commutative(self) -> bool:
        """x_i x_j = x_j x_i for all i, j: one scan of the table (a stored
        zero makes it False, and centrality is then checked cell by cell)."""
        table = self.table
        return all(row[j] == table[j][i] for i, row in enumerate(table)
                   for j in range(i))

    def is_idempotent(self, e) -> bool:
        """e e = e, compared on the integral table: with E = d e integral
        (ints and integral Cyc) for d the common denominator of e,
        D E E = D d E."""
        d = _common_den(e.values())
        E = {k: _times_den(c, d) for k, c in e.items()}
        D, table = self.integral_table
        return table_product(table, E, E) == {k: D * d * c
                                              for k, c in E.items()}

    def is_central(self, a) -> bool:
        """a x_i = x_i a for every i, compared on the table over the
        nonzero entries of a; True at once when A is commutative."""
        if self.is_commutative:
            return True
        table = self.table
        for i in range(self.dim):
            a_x = {}
            x_a = {}
            for k, c in a.items():
                for r, d in table[k][i].items():
                    _add_into(a_x, r, c * d)
                for r, d in table[i][k].items():
                    _add_into(x_a, r, c * d)
            if _clean(a_x) != _clean(x_a):
                return False
        return True

    def center_basis(self):
        """Basis of the center: the kernel of the conditions
        sum_k a_k (c_ik^r - c_ki^r) = 0 for all i, r."""
        if self._center is None:
            self._center = EchelonSubspace(
                self.field, self.dim,
                center_conditions(self.table)).kernel().basis
        return self._center

    def regular_character(self):
        """chi_reg, the trace of left multiplication, chi_i = sum_j c_ij^j,
        computed once."""
        if self._regular_character is None:
            chi = {}
            for i, row in enumerate(self.table):
                for j, cell in enumerate(row):
                    c = cell.get(j)
                    if c is not None:
                        _add_into(chi, i, c)
            self._regular_character = _clean(chi)
        return self._regular_character

    def right_regular_character(self):
        """Trace of right multiplication b -> b x_i on the basis,
        rho_i = sum_j c_ji^j, computed once."""
        if self._right_regular_character is None:
            rho = {}
            for j, row in enumerate(self.table):
                for i, cell in enumerate(row):
                    c = cell.get(j)
                    if c is not None:
                        _add_into(rho, i, c)
            self._right_regular_character = _clean(rho)
        return self._right_regular_character

    def apply_form(self, form, a):
        """<form, a>, summed over the support of a."""
        return sum((form[k] * x for k, x in a.items() if k in form),
                   self.field.zero)

    def __repr__(self):
        label = self.name or "algebra"
        return f"<{label}: dim {self.dim} over {self.field!r}>"


def _associativity_failures(table):
    """The labels ("associativity", i, j, k) of the triples with
    (x_i x_j) x_k != x_i (x_j x_k) on the integral table: all n^3."""
    n = len(table)
    for i in range(n):
        row_i = table[i]
        for j in range(n):
            ij = [(table[m], c) for m, c in row_i[j].items()]
            for k in range(n):
                # (x_i x_j) x_k - x_i (x_j x_k)
                diff = {}
                for row_m, c in ij:
                    for r, d in row_m[k].items():
                        diff[r] = diff.get(r, 0) + c * d
                for m, c in table[j][k].items():
                    for r, d in row_i[m].items():
                        diff[r] = diff.get(r, 0) - c * d
                if any(diff.values()):
                    yield ("associativity", i, j, k)


def _associative_at(index, coeffs, s):
    """(x_i s) x_k = x_i (s x_k) for all i, k on the monomial table
    (index, coeffs): for each i the row of indices over k, then, unless
    every coefficient is the same, the row of coefficients."""
    n = len(index) - 1
    s_row = index[s]
    for i in range(n):
        row_i = index[i]
        a = row_i[s]  # x_i s = c x_a
        if index[a] != list(map(row_i.__getitem__, s_row)):
            return False
        if coeffs is not None:
            c, c_i = coeffs[i][s], coeffs[i]
            if ([c * x for x in coeffs[a]]
                    != [y * c_i[u] for y, u in zip(coeffs[s], s_row)]):
                return False
    return True


# candidate generators tried per step of the greedy search
LIGHT_SAMPLE = 8


def light_generators(index):
    """(S, reads): basis indices S whose words s_1 s_2 ... s_k reach every
    basis index on the monomial table ``index`` (``monomial_table``), and
    the number of table reads the search made.  S is None once more than
    n // 2 indices would be needed, as on k^G, where x_i x_j is 0 or x_i
    and S would be every index.

    Greedy and deterministic: each step tries up to LIGHT_SAMPLE unreached
    indices, spread evenly over them in index order, and keeps the one
    whose words reach most; then every generator the others can do without
    is dropped, in order."""
    n = len(index) - 1
    S, reached, reads = [], set(), 0
    while len(reached) < n:
        if len(S) == n // 2:
            return None, reads
        todo = [g for g in range(n) if g not in reached]
        best = None
        for g in todo[::-(-len(todo) // LIGHT_SAMPLE)]:
            # the words of S + [g]: those of S, then each with g after it
            frontier = [g] + [index[r][g] for r in reached]
            grown, cost = _grow(index, S + [g], reached, frontier)
            reads += len(reached) + cost
            if best is None or len(grown) > len(best[1]):
                best = g, grown
        S.append(best[0])
        reached = best[1]
    for g in list(S):
        rest = [s for s in S if s != g]
        grown, cost = _grow(index, rest, set(), rest)
        reads += cost
        if len(grown) == n:
            S = rest
    return S, reads


def _grow(index, S, reached, frontier):
    """(grown, reads): ``reached`` with the indices in ``frontier`` and
    each product of a new index with an s in S, on the right, until none
    is new; and the number of table reads."""
    n = len(index) - 1
    grown = set(reached)
    todo = []
    reads = 0
    for m in frontier:
        if m != n and m not in grown:
            grown.add(m)
            todo.append(m)
    while todo:
        row = index[todo.pop()]
        reads += len(S)
        for s in S:
            m = row[s]
            if m != n and m not in grown:
                grown.add(m)
                todo.append(m)
    return grown, reads


def center_conditions(table):
    """The rows {k: c_ik^r - c_ki^r} of the center's linear conditions,
    streamed one index i at a time.  Entries are whatever scalars the
    table holds."""
    n = len(table)
    for i in range(n):
        row_i = table[i]
        rows = {}
        for k in range(n):
            for r, c in row_i[k].items():
                _add_into(rows.setdefault(r, {}), k, c)
            for r, c in table[k][i].items():
                _add_into(rows.setdefault(r, {}), k, -c)
        yield from rows.values()


def first_non_multiplicative_pair(A, B, images):
    """The first basis pair (i, j), in order of i then j, at which the
    linear map phi: A -> B with phi(x_k) = images[k] has
    phi(x_i x_j) != phi(x_i) phi(x_j); None when phi is multiplicative.
    phi(x_i x_j) = sum_k c_ij^k phi(x_k) is read off the table of A."""
    for i, row in enumerate(A.table):
        for j, cell in enumerate(row):
            if (combine((c, images[k]) for k, c in cell.items())
                    != B.multiply(images[i], images[j])):
                return i, j
    return None


# ---------------------------------------------------------------------------
# sparse vectors and tensor squares
# ---------------------------------------------------------------------------


def _clean(d):
    """A sparse vector {index: scalar} without its stored zeros."""
    return {k: v for k, v in d.items() if bool(v)}


def table_product(table, a, b):
    """a b for sparse vectors a and b, read off ``table`` over their
    supports, as a sparse vector without zeros.  On the field table this
    is the product in A; on ``integral_table``, whose cells are D times
    those of the field table, it is D a b, in ints and integral Cyc when a
    and b hold them."""
    out = {}
    for i, x in a.items():
        row = table[i]
        for j, y in b.items():
            cell = row[j]
            if cell:
                xy = x * y
                for k, c in cell.items():
                    _add_into(out, k, xy * c)
    return _clean(out)


def combine(terms):
    """sum c v over the pairs (c, v) of ``terms``, each v a sparse vector
    {index: scalar}, as a sparse vector without zeros; a zero c adds
    nothing."""
    out = {}
    for c, v in terms:
        if c:
            for k, x in v.items():
                cur = out.get(k)
                out[k] = c * x if cur is None else cur + c * x
    return _clean(out)


def _add_into(out, idx, val):
    cur = out.get(idx)
    out[idx] = val if cur is None else cur + val


def _common_den(scalars):
    """The lcm of the denominators of scalars."""
    return math.lcm(1, *{c.den for c in scalars})


def _nums_den(x):
    """The numerators and the denominator of a scalar, or (x,) and 1 for
    an int (a rational value of ``integral_table``)."""
    return ((x,), 1) if isinstance(x, int) else (x.nums, x.den)


def _times_den(c, m):
    """m c for a multiple m of the denominator of the scalar c: an int
    when c is rational and an integral Cyc otherwise."""
    f = m // c.den
    return (c.nums[0] * f if c.is_rational()
            else Cyc(c.field, tuple([a * f for a in c.nums])))


class TensorSquareAlgebra:
    """A (x) A with the Kronecker basis convention e_i (x) e_j -> i*dim+j;
    its elements are sparse dicts {flat index: nonzero scalar}."""

    def __init__(self, algebra: StructureConstantAlgebra):
        self.base = algebra
        self.field = algebra.field
        self.n = algebra.dim
        self.dim = algebra.dim ** 2
        self.unit = tensor_dict(algebra.unit, algebra.unit, self.n)

    def mult(self, u, v):
        """The product u v, read off the structure table one factor at a
        time over the nonzero cells only: v's terms are grouped by their
        first leg once, and a term (i, j) of u meets only the terms
        (k, l) of v with x_i x_k != 0 (``row_supports``) and
        x_j x_l != 0.  The result has no zeros."""
        n = self.n
        table = self.base.table
        supports = self.base.row_supports
        by_first = {}
        for fv, b in v.items():
            k, l = divmod(fv, n)
            terms = by_first.get(k)
            if terms is None:
                by_first[k] = [(l, b)]
            else:
                terms.append((l, b))
        out = {}
        for fu, a in u.items():
            i, j = divmod(fu, n)
            row_i, row_j = table[i], table[j]
            for k in supports[i]:
                terms = by_first.get(k)
                if terms is None:
                    continue
                left = row_i[k]
                for l, b in terms:
                    right = row_j[l]
                    if not right:
                        continue
                    ab = a * b
                    for r, c1 in left.items():
                        abc = ab * c1
                        base = r * n
                        for s, c2 in right.items():
                            idx = base + s
                            cur = out.get(idx)
                            val = abc * c2
                            out[idx] = val if cur is None else cur + val
        return _clean(out)

    def switch(self, v):
        """The flip a (x) b -> b (x) a."""
        n = self.n
        return {(idx % n) * n + idx // n: c for idx, c in v.items()}


def tensor_dict(a, b, n):
    """a (x) b for two vectors of A, dim A = n."""
    return {i * n + j: x * y for i, x in a.items() for j, y in b.items()}


def multiply_legs(A, z):
    """m(z) = sum c x_i x_k for z = sum c x_i (x) x_k in A (x) A, read off
    the table of A, as a sparse vector without zeros."""
    n = A.dim
    table = A.table
    return combine((c, table[idx // n][idx % n]) for idx, c in z.items())


def map_leg(z, columns, n, first, swap=False):
    """The linear map with x_i -> columns[i] (sparse dicts) applied to the
    first or the second leg of z in A (x) A, the legs then swapped when
    ``swap``."""
    out = {}
    for idx, c in z.items():
        i, j = divmod(idx, n)
        for r, s in columns[i if first else j].items():
            a, b = (r, j) if first else (i, r)
            _add_into(out, b * n + a if swap else a * n + b, c * s)
    return _clean(out)


def contract_left(form, z, n):
    """(form (x) Id)(z) for z in A (x) A."""
    out = {}
    for idx, c in z.items():
        i, j = divmod(idx, n)
        if i in form:
            _add_into(out, j, form[i] * c)
    return _clean(out)


def contract_right(form, z, n):
    """(Id (x) form)(z) for z in A (x) A."""
    out = {}
    for idx, c in z.items():
        i, j = divmod(idx, n)
        if j in form:
            _add_into(out, i, form[j] * c)
    return _clean(out)


# ---------------------------------------------------------------------------
# Frobenius structures
# ---------------------------------------------------------------------------


class FrobeniusStructure:
    """A nondegenerate trace form with the sparse rows of its inverse Gram
    matrix, its dual basis and Casimir element."""

    def __init__(self, algebra: StructureConstantAlgebra, lam):
        self.algebra = algebra
        self.lam = _clean(lam)
        n = algebra.dim
        # <lambda, x_i x_j> = sum_r lambda_r c_ij^r, row i without zeros
        zero = algebra.field.zero
        gram = [_clean({j: algebra.apply_form(self.lam, cell)
                        for j, cell in enumerate(row)})
                for row in algebra.table]
        # the form is a trace form when gram is symmetric: compare each
        # stored entry with its mirror once (a pair stored in both rows
        # from the smaller index), and name the first asymmetric pair i < j
        asymmetric = min(((min(i, j), max(i, j))
                          for i, row in enumerate(gram)
                          for j, g in row.items()
                          if (j > i or i not in gram[j])
                          and gram[j].get(i, zero) != g), default=None)
        if asymmetric is not None:
            raise NotATraceForm(*asymmetric)
        try:
            inverse = inverse_rows(algebra.field, gram)
        except Singular as err:
            raise DegenerateForm(err.witness) from None
        # row r of gram_inv, sparse: the x_r-coefficients of the dual basis
        # y_j = sum_r gram_inv[r][j] x_r, with <lambda, x_i y_j> = d_ij
        self._dual_coeffs = [sorted(row.items()) for row in inverse]
        gamma = _common_den(g for row in self._dual_coeffs for _, g in row)
        self._integral_dual = gamma, [[(j, _times_den(g, gamma)) for j, g
                                       in row] for row in self._dual_coeffs]
        # c = sum_j x_j (x) y_j
        self.casimir = {j * n + r: g
                        for r, row in enumerate(self._dual_coeffs)
                        for j, g in row}
        self._gamma_one = None
        self._casimir_cert = None

    @property
    def field(self):
        return self.algebra.field

    @functools.cached_property
    def gamma_one_scalar(self):
        """The scalar c with Gamma(1) = c 1, or None when Gamma(1) is not a
        scalar multiple of the unit: c is read at one coordinate of the
        unit's support and the whole vector compared."""
        g1, unit = self.gamma_one(), self.algebra.unit
        k = next(iter(unit), None)
        if k is None:
            return None
        c = g1.get(k, self.field.zero) / unit[k]
        return c if g1 == combine([(c, unit)]) else None

    def gamma_one(self):
        """Gamma(1) = sum_j x_j y_j = m(c), read off the table; asserts the
        result is central."""
        if self._gamma_one is None:
            g1 = multiply_legs(self.algebra, self.casimir)
            if not self.algebra.is_central(g1):
                raise AlgebraError("Casimir trace produced a non-central "
                                   "value")
            self._gamma_one = g1
        return self._gamma_one

    def dual_combination(self, coeffs):
        """sum_j coeffs_j y_j, the element a with <lambda, x_j a> = coeffs_j,
        read off the sparse rows of gram_inv."""
        zero = self.field.zero
        return _clean({r: sum((g * coeffs[j] for j, g in row if j in coeffs),
                              zero)
                       for r, row in enumerate(self._dual_coeffs)})

    def casimir_times(self, z):
        """c z for z in A (x) A, read off the structure table.

        Write z = sum_i x_i (x) w_i.  The swap law c(a (x) 1) = (1 (x) a) c
        gives c z = sum_j x_j (x) w'_j with w'_j = sum_i x_i y_j w_i, that is
        w'_j = sum_r gram_inv[r][j] u_r for u_r = sum_i x_i (x_r w_i).  No
        product in A (x) A is formed.  The loop runs on z, the table and
        gram_inv times the common denominators delta, D and gamma of their
        entries, and each coordinate is divided once, by delta D^2 gamma."""
        A = self.algebra
        n = A.dim
        D, table = A.integral_table
        gamma, dual = self._integral_dual
        delta = _common_den(z.values())
        terms = {}  # i -> nonzero terms (m, delta c) of w_i
        for idx, c in z.items():
            i, m = divmod(idx, n)
            terms.setdefault(i, []).append((m, _times_den(c, delta)))
        rows = [(table[i], w) for i, w in terms.items()]
        out = {}
        for row_r, coeffs in zip(table, dual):
            u = {}
            for row_i, w in rows:
                v = {}  # x_r w_i
                for m, c in w:
                    for k, d in row_r[m].items():
                        v[k] = v.get(k, 0) + c * d
                for k, b in v.items():
                    if b:
                        for m, d in row_i[k].items():
                            u[m] = u.get(m, 0) + b * d
            u = [(m, c) for m, c in u.items() if c]
            for j, g in coeffs:
                base = j * n
                for m, c in u:
                    out[base + m] = out.get(base + m, 0) + g * c
        den = delta * D * D * gamma
        return {idx: A.field.from_nums(_nums_den(v)[0], den)
                for idx, v in out.items() if v}

    def casimir_certificate(self):
        """Integrality certificate of the Casimir element, computed once:
        its powers come from ``casimir_times``, starting at 1 (x) 1."""
        if self._casimir_cert is None:
            T = TensorSquareAlgebra(self.algebra)
            self._casimir_cert = is_integral_over_Z(
                self.field, T.dim, T.unit, self.casimir_times,
                "casimir element")
        return self._casimir_cert


def frobenius_structure(algebra, lam) -> FrobeniusStructure:
    return FrobeniusStructure(algebra, lam)
