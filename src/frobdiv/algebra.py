"""Structure-constant algebras and the symmetric-algebra apparatus:
Frobenius forms, dual bases, Casimir element and trace, trace formulas,
centers and commutator spaces."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .linalg import Matrix


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


@dataclass
class VerificationReport:
    passed: bool
    failures: list = dc_field(default_factory=list)

    def record(self, ok: bool, label):
        if not ok:
            self.passed = False
            self.failures.append(label)


class StructureConstantAlgebra:
    """Finite-dimensional algebra given by basis and structure constants.

    ``table[i][j]`` is a sparse dict {k: scalar} with x_i x_j = sum_k c x_k.
    """

    def __init__(self, field, dim, table, unit, name=""):
        self.field = field
        self.dim = dim
        self.table = table
        self.unit = list(unit)
        self.name = name
        self._center = None
        self._regular_character = None

    # -- elements ---------------------------------------------------------
    def zero_vec(self):
        return [self.field.zero] * self.dim

    def basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.field.one
        return v

    def multiply(self, a, b):
        if len(a) != self.dim or len(b) != self.dim:
            raise AlgebraError("dimension mismatch")
        zero = self.field.zero
        out = self.zero_vec()
        for i, ai in enumerate(a):
            if ai == zero:
                continue
            row = self.table[i]
            for j, bj in enumerate(b):
                if bj == zero:
                    continue
                f = ai * bj
                for k, c in row[j].items():
                    out[k] = out[k] + f * c
        return out

    # alias used by the integrality Krylov iteration
    mult = multiply

    def left_mult(self, a) -> Matrix:
        zero = self.field.zero
        cols = []
        for j in range(self.dim):
            col = self.zero_vec()
            for i, ai in enumerate(a):
                if ai != zero:
                    for k, c in self.table[i][j].items():
                        col[k] = col[k] + ai * c
            cols.append(col)
        return Matrix.from_columns(self.field, cols)

    def right_mult(self, a) -> Matrix:
        zero = self.field.zero
        cols = []
        for j in range(self.dim):
            col = self.zero_vec()
            for i, ai in enumerate(a):
                if ai != zero:
                    for k, c in self.table[j][i].items():
                        col[k] = col[k] + ai * c
            cols.append(col)
        return Matrix.from_columns(self.field, cols)

    def regular_rep(self, a, side="left") -> Matrix:
        if side == "left":
            return self.left_mult(a)
        if side == "right":
            return self.right_mult(a)
        raise ValueError("side must be 'left' or 'right'")

    # -- verification -----------------------------------------------------
    def verify(self) -> VerificationReport:
        """Associativity and both unit laws, on the sparse table."""
        report = VerificationReport(True)
        n = self.dim
        table = self.table
        for i in range(n):
            row_i = table[i]
            for j in range(n):
                ij = row_i[j]
                row_j = table[j]
                for k in range(n):
                    # (x_i x_j) x_k against x_i (x_j x_k)
                    lhs = {}
                    for m, c in ij.items():
                        for r, d in table[m][k].items():
                            _add_into(lhs, r, c * d)
                    rhs = {}
                    for m, c in row_j[k].items():
                        for r, d in row_i[m].items():
                            _add_into(rhs, r, c * d)
                    if _clean(lhs) != _clean(rhs):
                        report.record(False, ("associativity", i, j, k))
        unit = _clean(dict(enumerate(self.unit)))
        for i in range(n):
            left = {}
            right = {}
            for m, u in unit.items():
                for r, d in table[m][i].items():
                    _add_into(left, r, u * d)
                for r, d in table[i][m].items():
                    _add_into(right, r, u * d)
            basis = {i: self.field.one}
            if _clean(left) != basis:
                report.record(False, ("left-unit", i))
            if _clean(right) != basis:
                report.record(False, ("right-unit", i))
        return report

    # -- invariants -------------------------------------------------------
    def is_central(self, a) -> bool:
        for i in range(self.dim):
            b = self.basis_vec(i)
            if self.multiply(a, b) != self.multiply(b, a):
                return False
        return True

    def center_basis(self):
        """Basis of the center, via kernels of a -> x_i a - a x_i."""
        if self._center is not None:
            return self._center
        # iteratively intersect kernels; keeps intermediate matrices small
        space = Matrix.identity(self.field, self.dim).columns()
        for i in range(self.dim):
            b = self.basis_vec(i)
            op = self.left_mult(b) - self.right_mult(b)
            images = Matrix.from_columns(self.field, [op.apply(v) for v in space])
            ker = images.kernel()
            space = [_combine(self.field, space, coeffs) for coeffs in ker]
            if not space:
                break
        self._center = space
        return space

    def commutator_space(self):
        """Basis of the span of all Lie commutators x_i x_j - x_j x_i."""
        rows = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                v = self.multiply(self.basis_vec(i), self.basis_vec(j))
                w = self.multiply(self.basis_vec(j), self.basis_vec(i))
                rows.append([a - b for a, b in zip(v, w)])
        if not rows:
            return []
        red, pivots = Matrix(self.field, rows).rref()
        return [red.entries[r] for r in range(len(pivots))]

    def regular_character(self):
        """chi_reg as a vector of values on the basis: trace of left mult."""
        if self._regular_character is None:
            zero = self.field.zero
            out = []
            for i in range(self.dim):
                s = zero
                for j in range(self.dim):
                    c = self.table[i][j].get(j)
                    if c is not None:
                        s = s + c
                out.append(s)
            self._regular_character = out
        return list(self._regular_character)

    def apply_form(self, form, a):
        """<form, a> for a linear form given by its values on the basis."""
        s = self.field.zero
        for f, x in zip(form, a):
            if f != self.field.zero and x != self.field.zero:
                s = s + f * x
        return s

    def __repr__(self):
        label = self.name or "algebra"
        return f"<{label}: dim {self.dim} over {self.field!r}>"


def _combine(field, vectors, coeffs):
    zero = field.zero
    out = [zero] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c != zero:
            for i, x in enumerate(v):
                out[i] = out[i] + c * x
    return out


# ---------------------------------------------------------------------------
# sparse vectors and tensor squares
# ---------------------------------------------------------------------------


def _clean(d):
    """A sparse vector {index: scalar} without its stored zeros."""
    return {k: v for k, v in d.items() if bool(v)}


def _add_into(out, idx, val):
    cur = out.get(idx)
    out[idx] = val if cur is None else cur + val


class TensorSquareAlgebra:
    """A (x) A with the Kronecker basis convention e_i (x) e_j -> i*dim+j."""

    def __init__(self, algebra: StructureConstantAlgebra):
        self.base = algebra
        self.field = algebra.field
        self.n = algebra.dim
        self.dim = algebra.dim ** 2
        self.unit = self.from_dict(tensor_dict(algebra.field, algebra.unit,
                                               algebra.unit))

    def from_dict(self, d):
        out = [self.field.zero] * self.dim
        for idx, c in d.items():
            out[idx] = c
        return out

    def to_dict(self, v):
        zero = self.field.zero
        return {i: c for i, c in enumerate(v) if c != zero}

    def mult_sparse(self, u, v):
        """Product of two sparse elements {flat index: scalar}, as a sparse
        element without zeros."""
        n = self.n
        table = self.base.table
        out = {}
        for fu, a in u.items():
            i, j = divmod(fu, n)
            row_i, row_j = table[i], table[j]
            for fv, b in v.items():
                k, l = divmod(fv, n)
                ab = a * b
                right = row_j[l]
                for r, c1 in row_i[k].items():
                    abc = ab * c1
                    base = r * n
                    for s, c2 in right.items():
                        idx = base + s
                        cur = out.get(idx)
                        val = abc * c2
                        out[idx] = val if cur is None else cur + val
        return _clean(out)

    def mult(self, u, v):
        """Product of flat vectors or sparse elements, as a flat vector."""
        ud = u if isinstance(u, dict) else self.to_dict(u)
        vd = v if isinstance(v, dict) else self.to_dict(v)
        return self.from_dict(self.mult_sparse(ud, vd))

    def switch(self, v):
        n = self.n
        out = [self.field.zero] * self.dim
        for idx, c in enumerate(v):
            i, j = divmod(idx, n)
            out[j * n + i] = c
        return out

    def embed_left(self, a):
        """a (x) 1 as a flat vector."""
        return self.from_dict(tensor_dict(self.field, a, self.base.unit))

    def embed_right(self, a):
        return self.from_dict(tensor_dict(self.field, self.base.unit, a))


def tensor_dict(field, a, b):
    zero = field.zero
    n = len(b)
    out = {}
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b):
                if y != zero:
                    out[i * n + j] = x * y
    return out


def tensor_flat(field, a, b):
    zero = field.zero
    out = []
    for x in a:
        if x == zero:
            out.extend([zero] * len(b))
        else:
            out.extend([x * y for y in b])
    return out


def contract_left(field, form, flat, n):
    """(form (x) Id) applied to a flat element of A (x) A."""
    zero = field.zero
    out = [zero] * n
    for idx, c in enumerate(flat):
        if c != zero:
            i, j = divmod(idx, n)
            if form[i] != zero:
                out[j] = out[j] + form[i] * c
    return out


def contract_right(field, form, flat, n):
    """(Id (x) form) applied to a flat element of A (x) A."""
    zero = field.zero
    out = [zero] * n
    for idx, c in enumerate(flat):
        if c != zero:
            i, j = divmod(idx, n)
            if form[j] != zero:
                out[i] = out[i] + form[j] * c
    return out


# ---------------------------------------------------------------------------
# Frobenius structures
# ---------------------------------------------------------------------------


class FrobeniusStructure:
    """A nondegenerate trace form with its Gram matrix, dual bases and
    Casimir element."""

    def __init__(self, algebra: StructureConstantAlgebra, lam):
        self.algebra = algebra
        self.lam = list(lam)
        n = algebra.dim
        gram = [[algebra.apply_form(self.lam,
                                    algebra.multiply(algebra.basis_vec(i),
                                                     algebra.basis_vec(j)))
                 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if gram[i][j] != gram[j][i]:
                    raise NotATraceForm(i, j)
        self.gram = Matrix(algebra.field, gram)
        ker = self.gram.kernel()
        if ker:
            raise DegenerateForm(ker[0])
        self.gram_inv = self.gram.inverse()
        # dual basis: y_j = sum_r gram_inv[r][j] x_r, so <lambda, x_i y_j> = d_ij
        self.dual_basis = [self.gram_inv.column(j) for j in range(n)]
        self.casimir = [self.field.zero] * (n * n)
        for j in range(n):
            for r in range(n):
                self.casimir[j * n + r] = self.gram_inv.entries[r][j]
        self._gamma_one = None
        self._tensor = None

    @property
    def field(self):
        return self.algebra.field

    def tensor_square(self) -> TensorSquareAlgebra:
        if self._tensor is None:
            self._tensor = TensorSquareAlgebra(self.algebra)
        return self._tensor

    def evaluate(self, a):
        return self.algebra.apply_form(self.lam, a)

    def casimir_trace(self, a):
        """Gamma(a) = sum_i x_i a y_i; asserts the result is central."""
        A = self.algebra
        out = A.zero_vec()
        for i in range(A.dim):
            t = A.multiply(A.basis_vec(i), a)
            t = A.multiply(t, self.dual_basis[i])
            out = [x + y for x, y in zip(out, t)]
        if not A.is_central(out):
            raise AlgebraError("Casimir trace produced a non-central value")
        return out

    def gamma_one(self):
        if self._gamma_one is None:
            self._gamma_one = self.casimir_trace(self.algebra.unit)
        return list(self._gamma_one)

    def trace_via_casimir(self, f: Matrix):
        """trace(f) = sum_i <lambda, f(x_i) y_i>."""
        A = self.algebra
        s = self.field.zero
        for i in range(A.dim):
            fx = f.column(i)
            s = s + self.evaluate(A.multiply(fx, self.dual_basis[i]))
        return s

    def reconstruct(self, a):
        """sum_i x_i <lambda, a y_i>, which must reproduce a."""
        A = self.algebra
        out = A.zero_vec()
        for i in range(A.dim):
            c = self.evaluate(A.multiply(a, self.dual_basis[i]))
            if c != self.field.zero:
                out[i] = out[i] + c
        return out

    def check_casimir_identities(self, check_center_of_square=True):
        """Switch invariance, the swap law (a(x)1)c = c(1(x)a), and
        centrality of the Casimir square."""
        report = VerificationReport(True)
        T = self.tensor_square()
        c = self.casimir
        report.record(T.switch(c) == c, ("switch-invariance",))
        for i in range(self.algebra.dim):
            a = self.algebra.basis_vec(i)
            left = T.mult(T.embed_left(a), c)
            right = T.mult(c, T.embed_right(a))
            report.record(left == right, ("swap-law-left", i))
            left2 = T.mult(T.embed_right(a), c)
            right2 = T.mult(c, T.embed_left(a))
            report.record(left2 == right2, ("swap-law-right", i))
        if check_center_of_square:
            csq = T.mult(c, c)
            csq_d = T.to_dict(csq)
            for idx in range(T.dim):
                basis_elt = {idx: self.field.one}
                if T.mult(basis_elt, csq_d) != T.mult(csq_d, basis_elt):
                    report.record(False, ("casimir-square-not-central", idx))
        return report


def frobenius_structure(algebra, lam) -> FrobeniusStructure:
    return FrobeniusStructure(algebra, lam)


def regular_character_form(algebra):
    return algebra.regular_character()


def hit_form_left(algebra, a, form):
    """a -> form, the form b |-> <form, b a>."""
    return [algebra.apply_form(form, algebra.multiply(algebra.basis_vec(i), a))
            for i in range(algebra.dim)]

