"""Dense reference implementations of the axiom checks and of the linear
conditions the library now reads off the structure table.

The axiom checks multiply dense basis vectors with
``StructureConstantAlgebra.multiply`` and compare whole coefficient vectors,
as the library did before its checks moved onto the sparse structure table.
The tests use them as a differential oracle: on every input both must report
the same verdict and the same failure labels in the same order.  They never
touch the sparse product of ``TensorSquareAlgebra``; products in A (x) A are
built factor by factor with the dense ``multiply``.  The maps on H (x) H
and the centre, integral, centrality, Gram and R-product oracles are
described in their own sections, and so are the per-point interpolation
formula, the Krylov loop over a carrier algebra, the dense
multiplicativity, orthogonality and character loops, the centre products
of a modular split formed in the whole reduced algebra, the dense
eliminations that the sparse echelon form replaced, the dense split
certificate, the scalars of Q(zeta_n) as tuples of rationals, and the
trial reconstruction that bounded gluing replaced.

The library takes and returns every vector as a sparse dict {index:
nonzero scalar}.  The oracle computes on dense vectors, lists of dim
scalars, and converts at its own boundary (``dense``, ``sparse``): each
function takes and returns vectors in the library's form, so that a test
compares the two directly.
"""

import functools
import itertools
import math
import re

from frobdiv import (Matrix, Poly, Rat, StructureConstantAlgebra,
                     VerificationReport, cyclotomic_polynomial)
from frobdiv.hopf import HopfAlgebraData
from frobdiv.linalg import sparse
from frobdiv.modular import BadPrime
from frobdiv.scalars import PrimeFieldElement


# ---------------------------------------------------------------------------
# the boundary: dense vectors in the oracle, sparse ones in the library
# ---------------------------------------------------------------------------


def dense(v, n, zero):
    """A sparse vector as a dense list of length n."""
    return [v.get(k, zero) for k in range(n)]


def dense_vec(A, v):
    """An element of (or a form on) the algebra A as a dense list."""
    return dense(v, A.dim, A.field.zero)


def basis_vec(A, i):
    return dense_vec(A, {i: A.field.one})


def zero_vec(A):
    return dense_vec(A, {})


def dense_multiply(A, a, b):
    """a b for dense vectors, through the library's product."""
    return dense_vec(A, A.multiply(sparse(a), sparse(b)))


def dense_apply_form(field, form, a):
    """<form, a> for dense vectors."""
    return sum((f * x for f, x in zip(form, a)), field.zero)


def dense_verify(A):
    report = VerificationReport(True)
    n = A.dim
    basis = [basis_vec(A, i) for i in range(n)]
    unit = dense_vec(A, A.unit)
    for i in range(n):
        for j in range(n):
            ij = dense_multiply(A, basis[i], basis[j])
            for k in range(n):
                lhs = dense_multiply(A, ij, basis[k])
                rhs = dense_multiply(A, basis[i],
                                     dense_multiply(A, basis[j], basis[k]))
                if lhs != rhs:
                    report.record(False, ("associativity", i, j, k))
    for i in range(n):
        if dense_multiply(A, unit, basis[i]) != basis[i]:
            report.record(False, ("left-unit", i))
        if dense_multiply(A, basis[i], unit) != basis[i]:
            report.record(False, ("right-unit", i))
    return report


def _dense_tensor_mult(A, u, v):
    """u v in A (x) A for sparse flat dicts, one factor at a time."""
    n = A.dim
    zero = A.field.zero
    out = [zero] * (n * n)
    for fu, a in u.items():
        i, j = divmod(fu, n)
        for fv, b in v.items():
            k, l = divmod(fv, n)
            left = dense_multiply(A, basis_vec(A, i), basis_vec(A, k))
            right = dense_multiply(A, basis_vec(A, j), basis_vec(A, l))
            for r, x in enumerate(left):
                if x != zero:
                    for s, y in enumerate(right):
                        if y != zero:
                            out[r * n + s] = out[r * n + s] + a * b * x * y
    return {idx: c for idx, c in enumerate(out) if c != zero}


def _add_into(out, idx, val):
    cur = out.get(idx)
    out[idx] = val if cur is None else cur + val


def _clean(d):
    return {k: v for k, v in d.items() if bool(v)}


def dense_verify_hopf(H):
    report = dense_verify(H.algebra)
    A = H.algebra
    field = H.field
    n = H.dim
    eps = dense_vec(A, H.counit)
    unit = dense_vec(A, A.unit)

    for j in range(n):
        dj = H.delta[j]
        left = {}
        right = {}
        for idx, c in dj.items():
            i, k = divmod(idx, n)
            for idx2, d in H.delta[i].items():
                a, b = divmod(idx2, n)
                _add_into(left, (a, b, k), c * d)
            for idx2, d in H.delta[k].items():
                b, cc = divmod(idx2, n)
                _add_into(right, (i, b, cc), c * d)
        report.record(_clean(left) == _clean(right), ("coassociativity", j))

        eps_id = [field.zero] * n
        id_eps = [field.zero] * n
        for idx, c in dj.items():
            i, k = divmod(idx, n)
            eps_id[k] = eps_id[k] + eps[i] * c
            id_eps[i] = id_eps[i] + eps[k] * c
        basis = basis_vec(A, j)
        report.record(eps_id == basis, ("counit-left", j))
        report.record(id_eps == basis, ("counit-right", j))

    unit_sq = {}
    for i, x in enumerate(unit):
        for k, y in enumerate(unit):
            if x != field.zero and y != field.zero:
                unit_sq[i * n + k] = x * y
    report.record(_clean(H.delta_of(sparse(unit))) == unit_sq,
                  ("delta-unit",))
    report.record(dense_apply_form(field, eps, unit) == field.one,
                  ("counit-unit",))
    for i in range(n):
        for j in range(n):
            prod = dense_multiply(A, basis_vec(A, i), basis_vec(A, j))
            lhs = H.delta_of(sparse(prod))
            rhs = _dense_tensor_mult(A, H.delta[i], H.delta[j])
            report.record(lhs == rhs, ("delta-multiplicative", i, j))
            report.record(dense_apply_form(field, eps, prod)
                          == eps[i] * eps[j],
                          ("counit-multiplicative", i, j))

    for j in range(n):
        left = zero_vec(A)
        right = zero_vec(A)
        for idx, c in H.delta[j].items():
            i, k = divmod(idx, n)
            t = dense_multiply(A, matrix_column(H.antipode, i),
                               basis_vec(A, k))
            left = [x + c * y for x, y in zip(left, t)]
            t = dense_multiply(A, basis_vec(A, i),
                               matrix_column(H.antipode, k))
            right = [x + c * y for x, y in zip(right, t)]
        target = [eps[j] * u for u in unit]
        report.record(left == target, ("antipode-left", j))
        report.record(right == target, ("antipode-right", j))

    s2 = matmul(H.antipode, H.antipode)
    report.record(s2.entries == identity_matrix(field, n).entries,
                  ("involutory",))
    return report


# ---------------------------------------------------------------------------
# relabelling
# ---------------------------------------------------------------------------


def permute_algebra(A, perm):
    """The same algebra with basis element i renamed perm[i]."""
    n = A.dim
    table = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = {perm[k]: c
                                       for k, c in A.table[i][j].items()}
    unit = {perm[i]: c for i, c in A.unit.items()}
    return StructureConstantAlgebra(A.field, n, table, unit, name=A.name)


def permute_hopf(H, perm):
    n = H.dim
    delta = [{} for _ in range(n)]
    for j, d in enumerate(H.delta):
        for idx, c in d.items():
            a, b = divmod(idx, n)
            delta[perm[j]][perm[a] * n + perm[b]] = c
    counit = {perm[j]: c for j, c in H.counit.items()}
    scols = [{} for _ in range(n)]
    for j, col in enumerate(H.antipode_columns):
        for i, c in col.items():
            scols[perm[j]][perm[i]] = c
    return HopfAlgebraData(permute_algebra(H.algebra, perm), delta, counit,
                           scols, name=H.name)


# ---------------------------------------------------------------------------
# dense maps on H (x) H
# ---------------------------------------------------------------------------
#
# S on one leg from the dense columns of the antipode, Delta on one leg
# from ``delta_of`` of a dense basis vector, the product m from dense
# products of basis vectors, and f o S from the transposed antipode.


def dense_antipode_on_leg(H, z, first, swap=False):
    """S on the first or the second leg of z, the legs then swapped when
    ``swap``, one dense column of S per term."""
    n = H.dim
    out = {}
    for idx, c in z.items():
        i, j = divmod(idx, n)
        for r, x in enumerate(matrix_column(H.antipode, i if first else j)):
            if x != H.field.zero:
                a, b = (r, j) if first else (i, r)
                _add_into(out, b * n + a if swap else a * n + b, c * x)
    return _clean(out)


def dense_delta_on_leg(H, z, first):
    """(Delta (x) Id)(z) or (Id (x) Delta)(z) as a triple tensor keyed
    (a, b, c), with Delta of each leg from a dense basis vector."""
    n = H.dim
    out = {}
    for idx, c in z.items():
        i, j = divmod(idx, n)
        image = H.delta_of(sparse(basis_vec(H.algebra, i if first else j)))
        for idx2, d in image.items():
            a, b = divmod(idx2, n)
            _add_into(out, (a, b, j) if first else (i, a, b), c * d)
    return _clean(out)


def dense_multiply_legs(A, z):
    """m(z) as a sum of dense products of basis vectors, without its
    zeros."""
    n = A.dim
    out = zero_vec(A)
    for idx, c in z.items():
        i, k = divmod(idx, n)
        prod = dense_multiply(A, basis_vec(A, i), basis_vec(A, k))
        out = [x + c * y for x, y in zip(out, prod)]
    return _clean(dict(enumerate(out)))


def dense_after_antipode(H, form):
    """f o S through the transposed dense antipode."""
    return sparse(transpose(H.antipode).apply(dense_vec(H.algebra, form)))


# ---------------------------------------------------------------------------
# dense linear conditions: centre, integral, centrality, Gram, R-products
# ---------------------------------------------------------------------------
#
# These are the loops the library ran before it read these conditions off
# the structure table: kernels of dense n x n multiplication operators,
# intersected one basis element at a time, and 3-way products of R-matrix
# tensors with the unit expanded into basis terms.


def _mult_matrix(field, n, cell, side, a):
    """Matrix of b -> a b (side "left") or b -> b a (side "right"), where
    cell(i, j) is the product x_i x_j as a sparse dict."""
    zero = field.zero
    cols = []
    for j in range(n):
        col = [zero] * n
        for i, ai in enumerate(a):
            if ai != zero:
                prod = cell(i, j) if side == "left" else cell(j, i)
                for k, c in prod.items():
                    col[k] = col[k] + ai * c
        cols.append(col)
    return Matrix.from_columns(field, cols)


def _intersect_kernels(field, n, operators, stop_dim=0):
    """Basis of the joint kernel, one operator at a time, each kernel taken
    inside the space left by the ones before."""
    space = matrix_columns(identity_matrix(field, n))
    for op in operators:
        images = Matrix.from_columns(field, [op.apply(v) for v in space])
        new_space = []
        for coeffs in dense_kernel(field, images.entries, len(space)):
            v = [field.zero] * n
            for c, w in zip(coeffs, space):
                if c != field.zero:
                    v = [x + c * y for x, y in zip(v, w)]
            new_space.append(v)
        space = new_space
        if len(space) <= stop_dim:
            break
    return space


def _basis(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def dense_center_basis(A):
    """Kernels of a -> x_i a - a x_i over the base field."""
    n = A.dim
    cell = lambda i, j: A.table[i][j]  # noqa: E731
    ops = (matrix_sub(
        _mult_matrix(A.field, n, cell, "left", _basis(A.field, n, i)),
        _mult_matrix(A.field, n, cell, "right", _basis(A.field, n, i)))
           for i in range(n))
    return [sparse(v) for v in _intersect_kernels(A.field, n, ops)]


def dense_mod_p_center(comp, gf):
    """The same kernels on a reduction mod p (``ComponentAlgebra``),
    stopping, as the library did, once one dimension is left."""
    n = comp.dim
    cell = lambda i, j: {k: gf.from_rat(c)  # noqa: E731
                         for k, c in comp.table[i][j].items()}
    ops = (matrix_sub(_mult_matrix(gf, n, cell, "left", _basis(gf, n, i)),
                      _mult_matrix(gf, n, cell, "right", _basis(gf, n, i)))
           for i in range(n))
    return _intersect_kernels(gf, n, ops, stop_dim=1)


def dense_integral(H):
    """The left integral as the joint kernel of L_{x_h} - eps(h), scaled so
    that <eps, Lambda> = dim H."""
    A = H.algebra
    field = H.field
    n = H.dim
    cell = lambda i, j: A.table[i][j]  # noqa: E731
    ops = (matrix_sub(
        _mult_matrix(field, n, cell, "left", _basis(field, n, h)),
        scalar_matrix(field, n, H.counit.get(h, field.zero)))
        for h in range(n))
    space = _intersect_kernels(field, n, ops)
    assert len(space) == 1
    raw = space[0]
    scale = field.from_rat(n) / dense_apply_form(
        field, dense_vec(A, H.counit), raw)
    return sparse([scale * x for x in raw])


def dense_is_central(A, a):
    a = dense_vec(A, a)
    for i in range(A.dim):
        b = basis_vec(A, i)
        if dense_multiply(A, a, b) != dense_multiply(A, b, a):
            return False
    return True


def dense_gram(A, lam):
    """<lambda, x_i x_j> from products of basis vectors, as dense rows."""
    n = A.dim
    lam = dense_vec(A, lam)
    return [[dense_apply_form(A.field, lam, dense_multiply(
        A, basis_vec(A, i), basis_vec(A, j))) for j in range(n)]
        for i in range(n)]


def _mult3(A, u, v):
    """Product of sparse triple tensors keyed by (i, j, k)."""
    out = {}
    table = A.table
    for (i1, j1, k1), a in u.items():
        for (i2, j2, k2), c in v.items():
            ac = a * c
            for r, c1 in table[i1][i2].items():
                for s, c2 in table[j1][j2].items():
                    f = ac * c1 * c2
                    for t, c3 in table[k1][k2].items():
                        _add_into(out, (r, s, t), f * c3)
    return _clean(out)


def dense_r_products(A, Rd):
    """R13 R23 and R13 R12 for R a sparse flat dict, as products of the
    triple tensors R13, R23 and R12 with the unit expanded."""
    n = A.dim
    r13 = {}
    r23 = {}
    r12 = {}
    for idx, c in Rd.items():
        i, j = divmod(idx, n)
        for u, cu in enumerate(dense_vec(A, A.unit)):
            if cu != A.field.zero:
                _add_into(r13, (i, u, j), c * cu)
                _add_into(r23, (u, i, j), c * cu)
                _add_into(r12, (i, j, u), c * cu)
    return _mult3(A, r13, r23), _mult3(A, r13, r12)


def dense_quasitriangular_report(H, R):
    """The failure report of ``quasitriangular_verify`` with R13 R23 and
    R13 R12 formed as products of R13, R23 and R12, each with the unit
    expanded into its basis terms.  The other checks are computed as the
    library computes them, with ``TensorSquareAlgebra.mult``."""
    from frobdiv.algebra import TensorSquareAlgebra
    A = H.algebra
    n = H.dim
    T = TensorSquareAlgebra(A)
    report = VerificationReport(True)
    Rd = _clean(R)

    Rinv = {}
    for idx, c in Rd.items():
        i, j = divmod(idx, n)
        for r, s in enumerate(matrix_column(H.antipode, i)):
            if s != H.field.zero:
                _add_into(Rinv, r * n + j, c * s)
    report.record(T.mult(Rd, Rinv) == T.unit, ("R-invertible-right",))
    report.record(T.mult(Rinv, Rd) == T.unit, ("R-invertible-left",))

    left = zero_vec(A)
    right = zero_vec(A)
    eps = dense_vec(A, H.counit)
    for idx, c in Rd.items():
        i, j = divmod(idx, n)
        left = [x + c * eps[i] * y
                for x, y in zip(left, basis_vec(A, j))]
        right = [x + c * eps[j] * y
                 for x, y in zip(right, basis_vec(A, i))]
    unit = dense_vec(A, A.unit)
    report.record(left == unit, ("counit-R-left",))
    report.record(right == unit, ("counit-R-right",))

    dR = {}
    idR = {}
    for idx, c in Rd.items():
        i, j = divmod(idx, n)
        for idx2, d in H.delta[i].items():
            a, b = divmod(idx2, n)
            _add_into(dR, (a, b, j), c * d)
        for idx2, d in H.delta[j].items():
            a, b = divmod(idx2, n)
            _add_into(idR, (i, a, b), c * d)
    r13r23, r13r12 = dense_r_products(A, Rd)
    report.record(_clean(dR) == r13r23, ("quasitriangular-delta-left",))
    report.record(_clean(idR) == r13r12, ("quasitriangular-delta-right",))

    for j in range(n):
        tau_d = {}
        for idx, c in H.delta[j].items():
            a, b = divmod(idx, n)
            _add_into(tau_d, b * n + a, c)
        lhs = T.mult(tau_d, Rd)
        report.record(lhs == T.mult(Rd, H.delta[j]),
                      ("intertwining", j))
    return report


# ---------------------------------------------------------------------------
# changes of basis
# ---------------------------------------------------------------------------


def permute_r(R, perm):
    """An element of H (x) H after the relabelling ``perm``, moved as a
    flat list of its n^2 coefficients (None for a zero one)."""
    n = len(perm)
    flat = [R.get(idx) for idx in range(n * n)]
    out = [None] * (n * n)
    for idx, c in enumerate(flat):
        i, j = divmod(idx, n)
        out[perm[i] * n + perm[j]] = c
    return {idx: c for idx, c in enumerate(out) if c is not None}


def change_basis_hopf(H, P, R=None):
    """H on the basis y_j = sum_i P[i][j] x_i, for an invertible matrix P,
    with R (an element of H (x) H) rewritten on the new basis through the
    n x n matrix of its coefficients.  Returns (H', R')."""
    field = H.field
    n = H.dim
    zero = field.zero
    Q = matrix_inverse(P)
    cols = matrix_columns(P)

    def tensor_to_new(flat):
        # Q M Q^T for the n x n coefficient matrix M of a flat tensor
        M = Matrix(field, [flat[i * n:(i + 1) * n] for i in range(n)])
        N = matmul(matmul(Q, M), transpose(Q))
        return {i * n + j: c for i, row in enumerate(N.entries)
                for j, c in enumerate(row) if c != zero}

    B = change_basis_algebra(H.algebra, P)
    delta = []
    for j in range(n):
        flat = [zero] * (n * n)
        for idx, c in H.delta_of(sparse(cols[j])).items():
            flat[idx] = c
        delta.append(tensor_to_new(flat))
    counit = sparse([dense_apply_form(field, dense_vec(H.algebra, H.counit),
                                      col) for col in cols])
    antipode = matmul(matmul(Q, H.antipode), P)
    H2 = HopfAlgebraData(B, delta, counit, sparse_columns(antipode),
                         name=H.name)
    if R is None:
        return H2, None
    return H2, tensor_to_new([R.get(idx, zero) for idx in range(n * n)])


def change_basis_algebra(A, P):
    """A on the basis y_j = sum_i P[i][j] x_i, for an invertible matrix P."""
    field = A.field
    n = A.dim
    Q = matrix_inverse(P)
    cols = matrix_columns(P)
    table = [[sparse(Q.apply(dense_multiply(A, cols[i], cols[j])))
              for j in range(n)] for i in range(n)]
    return StructureConstantAlgebra(field, n, table,
                                    Q.apply(dense_vec(A, A.unit)),
                                    name=A.name)


def unimodular_matrix(field, n, seed):
    """L U for random unit lower and upper triangular integer matrices with
    entries in {-1, 0, 1}: dense, with determinant 1."""
    import random
    rng = random.Random(seed)

    def tri(lower):
        return Matrix(field, [[field.one if i == j else
                               field.from_rat(rng.choice((-1, 0, 1)))
                               if (i > j) == lower else field.zero
                               for j in range(n)] for i in range(n)])

    return matmul(tri(True), tri(False))


def scalar_matrix(field, n, t):
    """t times the identity: the change to the basis t x_i."""
    return Matrix(field, [[t if i == j else field.zero for j in range(n)]
                          for i in range(n)])


def shear_matrix(field, n, entries):
    """The identity with a one added at each (i, j), i < j: determinant 1,
    and only a few basis vectors change."""
    rows = [[field.one if i == j else field.zero for j in range(n)]
            for i in range(n)]
    for i, j in entries:
        assert i < j
        rows[i][j] = field.one
    return Matrix(field, rows)


# ---------------------------------------------------------------------------
# CRT interpolation
# ---------------------------------------------------------------------------
#
# The formula ``modular.interpolate_mod`` evaluated for every call before
# its Lagrange basis was computed once per (nodes, modulus).


def lagrange_interpolate(points, M):
    """Coefficients mod M of the polynomial through the (node, value)
    pairs: sum_j v_j prod_{l != j} (x - w_l) / (w_j - w_l), one product
    and one inverse per point."""
    coeffs = [0] * len(points)
    for j, (wj, vj) in enumerate(points):
        num = [1]
        denom = 1
        for l, (wl, _) in enumerate(points):
            if l == j:
                continue
            prod = [0] * (len(num) + 1)
            for i, c in enumerate(num):
                prod[i] -= wl * c
                prod[i + 1] += c
            num = [c % M for c in prod]
            denom = denom * (wj - wl) % M
        f = vj * pow(denom, -1, M) % M
        for i, c in enumerate(num):
            coeffs[i] = (coeffs[i] + f * c) % M
    return coeffs


# ---------------------------------------------------------------------------
# minimal polynomials over a carrier algebra
# ---------------------------------------------------------------------------
#
# The Krylov loop as the library ran it before the Casimir element was
# multiplied through the swap law: the powers of a are products in a
# carrier with field, unit and mult, for the Casimir element of A the
# tensor square ``TensorSquareAlgebra(A)``.


def carrier_minimal_polynomial(carrier, a):
    """Monic minimal polynomial over Q of a, as ascending Rat
    coefficients, from the powers carrier.mult(a, .) of the unit; the
    carrier's elements are sparse dicts, each power is reduced as the dense
    list of its carrier.dim coefficients."""
    field = carrier.field
    zero, one = Rat(0), Rat(1)

    def dense(v):
        return [v.get(i, field.zero) for i in range(carrier.dim)]

    reduced = []  # (pivot, row, combination)
    vec = dense(carrier.unit)
    comb = [one]
    while True:
        row = []
        for c in vec:
            row.extend(c.rats())
        cmb = list(comb)
        for pidx, prow, pcmb in reduced:
            c = row[pidx]
            if c != zero:
                row = [x - c * y for x, y in zip(row, prow)]
                width = max(len(cmb), len(pcmb))
                cmb = [(cmb[i] if i < len(cmb) else zero)
                       - c * (pcmb[i] if i < len(pcmb) else zero)
                       for i in range(width)]
        pidx = next((i for i, x in enumerate(row) if x != zero), None)
        if pidx is None:
            lead = cmb[-1] if cmb else one
            return [c / lead for c in cmb]
        inv = one / row[pidx]
        reduced.append((pidx, [inv * x for x in row], [inv * x for x in cmb]))
        vec = dense(carrier.mult(a, {i: c for i, c in enumerate(vec) if c}))
        comb = [zero] + comb


# ---------------------------------------------------------------------------
# homomorphisms, orthogonality and characters from dense products
# ---------------------------------------------------------------------------
#
# The checks as the library ran them before they read the structure table
# and the block images: phi(x_i x_j) from a dense product in A, every pair
# of idempotents multiplied, and the character of a block from the
# products x_i e.


def dense_first_non_multiplicative_pair(A, B, images):
    """The first pair (i, j), i then j, with phi(x_i x_j) != phi(x_i)
    phi(x_j) for the map phi(x_k) = images[k], from dense products on
    both sides; None if there is none."""
    phi = Matrix.from_columns(B.field, [dense_vec(B, v) for v in images])
    for i in range(A.dim):
        xi = matrix_column(phi, i)
        for j in range(A.dim):
            lhs = phi.apply(dense_multiply(A, basis_vec(A, i),
                                           basis_vec(A, j)))
            if lhs != dense_multiply(B, xi, matrix_column(phi, j)):
                return i, j
    return None


def dense_phi(Q):
    """The Drinfeld map Phi(delta^j) = sum_i b_ij x_i of quasitriangular
    data Q, laid out from b as a dense n x n Matrix."""
    field, n = Q.H.field, Q.H.dim
    return Matrix(field, [[Q.b.get(i * n + j, field.zero) for j in range(n)]
                          for i in range(n)])


def dense_psi(Q, characters):
    """Psi = Phi chi as a dense product, chi the Matrix whose columns are
    the characters: column s is Psi of the s-th basis element of R."""
    return matmul(dense_phi(Q), Matrix.from_columns(
        Q.H.field, [dense_vec(Q.H.algebra, chi) for chi in characters]))


def dense_rank(m):
    """The rank of a Matrix, from ``dense_rref``."""
    return len(dense_rref(m.field, m.entries)[1])


def pairwise_orthogonal(A, idempotents):
    """e f = 0 for every pair of distinct idempotents."""
    dense_idems = [dense_vec(A, e) for e in idempotents]
    return all(not any(bool(c) for c in dense_multiply(A, e, f))
               for s, e in enumerate(dense_idems)
               for f in dense_idems[s + 1:])


def hit_form_left(A, a, form):
    """a -> form, the form b |-> <form, b a>."""
    a, form = dense_vec(A, a), dense_vec(A, form)
    return sparse([dense_apply_form(A.field, form, dense_multiply(
        A, basis_vec(A, i), a)) for i in range(A.dim)])


def dense_block_dim(A, e):
    """dim A e, as the rank of the products x_i e."""
    e = dense_vec(A, e)
    return len(dense_rref(A.field, [dense_multiply(A, basis_vec(A, i), e)
                                    for i in range(A.dim)])[1])


# ---------------------------------------------------------------------------
# centre products of a modular split in the whole reduced algebra
# ---------------------------------------------------------------------------


def full_algebra_center_table(comp, center):
    """The centre table of ``modular.modular_split`` formed as before the
    sparse residue vectors: each product z_i z_j of two basis vectors is
    formed densely in the whole reduction ``comp`` and solved for its
    coordinates in the echelon basis of the centre over ``PrimeField``,
    which must be the basis ``center`` the split found.  Same signature
    and cells (coordinate residue vectors) as ``modular._center_table``."""
    gf = PrimeField(comp.M)
    gf_center = gf_center_mod_p(comp, gf)
    basis = [residue_list({k: x.residue for k, x in v.items()}, comp.dim)
             for v in gf_center.basis]
    assert [residue_dict(v) for v in basis] == center[0]
    return [[residue_dict(_gf_center_coords(
        gf_center, gf, dense_mod_multiply(comp, zi, zj))) for zj in basis]
        for zi in basis]


def _gf_center_coords(gf_center, gf, vec):
    coords = gf_center.coords({k: gf.from_rat(x) for k, x in enumerate(vec)
                               if x})
    if coords is None:
        raise BadPrime("center not closed under multiplication")
    return residue_list({i: c.residue for i, c in coords.items()},
                        gf_center.dim)


def dense_mod_multiply(comp, a, b):
    """a b in a reduction ``comp`` mod M, for dense residue lists, as
    ``ComponentAlgebra.multiply`` formed it."""
    M = comp.M
    out = [0] * comp.dim
    for i, ai in enumerate(a):
        if ai:
            row = comp.table[i]
            for j, bj in enumerate(b):
                if bj:
                    f = ai * bj
                    for k, c in row[j].items():
                        out[k] = (out[k] + f * c) % M
    return out


def residue_dict(v):
    """A dense residue list as a residue vector {index: nonzero int}."""
    return {k: x for k, x in enumerate(v) if x}


def residue_list(v, n):
    """A residue vector as a dense residue list of length n."""
    return [v.get(k, 0) for k in range(n)]


def _int_comb(basis, coords, p):
    out = [0] * len(basis[0])
    for c, row in zip(coords, basis):
        if c:
            for i, x in enumerate(row):
                out[i] = (out[i] + c * x) % p
    return out


def _basis_coord(i, r):
    v = [0] * r
    v[i] = 1
    return v


# ---------------------------------------------------------------------------
# dense elimination
# ---------------------------------------------------------------------------
#
# The row reductions the library ran on dense rows before every
# elimination went through ``linalg.EchelonSubspace``: column-by-column
# Gauss-Jordan with row swaps, the right-hand sides solved through the
# recorded row operations of [M | I], coordinates by sequential
# subtraction, and the Krylov loop that tracks the combination of powers in
# a separate list.  Rows are plain lists, so no library elimination runs.


def dense_rref(field, rows, pivot_cols=None):
    """(reduced rows, pivot columns) of a list of equal-length rows, with
    leading-one pivots in the first ``pivot_cols`` columns (all by
    default); the zero rows come last."""
    zero, one = field.zero, field.one
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols if pivot_cols is None else pivot_cols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c] != zero), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = one / m[r][c]
        m[r] = [inv * a for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def dense_kernel(field, rows, n):
    """Basis of {v in field^n : row . v = 0 for every row}, one vector per
    free column in increasing order."""
    zero, one = field.zero, field.one
    red, pivots = dense_rref(field, rows) if rows else ([], [])
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def dense_inverse(field, rows):
    """The inverse of a square matrix from the rref of [M | I];
    ValueError when it is singular."""
    n = len(rows)
    aug = [list(row) + [field.one if i == j else field.zero
                        for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = dense_rref(field, aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def dense_solve_many(field, rows, rhss):
    """The solution x of M x = b for each b, None when inconsistent, from
    the row operations recorded by eliminating [M | I] in the columns of M
    only."""
    zero, one = field.zero, field.one
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [one if i == j else zero for j in range(m)]
           for i, row in enumerate(rows)]
    red, pivots = dense_rref(field, aug, pivot_cols=n)
    ops = [row[n:] for row in red[:len(pivots)]]
    out = []
    for b in rhss:
        x = [zero] * n
        for row, pc in zip(ops, pivots):
            s = zero
            for t, v in zip(row, b):
                s = s + t * v
            x[pc] = s
        mx = [sum((a * v for a, v in zip(row, x)), zero) for row in rows]
        out.append(x if mx == list(b) else None)
    return out


def dense_coords(field, vectors, vec):
    """Coordinates of vec on the reduced echelon basis of the span of
    ``vectors``, by subtracting each basis row in turn; None outside."""
    zero = field.zero
    red, pivots = dense_rref(field, vectors) if vectors else ([], [])
    v = list(vec)
    out = []
    for row, pc in zip(red, pivots):
        c = v[pc]
        out.append(c)
        if c != zero:
            v = [a - c * b for a, b in zip(v, row)]
    return out if all(a == zero for a in v) else None


def dense_krylov_relation(field, powers):
    """Monic least-degree p with sum_k p_k v_k = 0 for a stream of dense
    vectors, as an ascending coefficient list: each vector is reduced
    against those before it in order, with its combination of powers
    tracked in a list of its own."""
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
            return cmb
        inv = one / row[pidx]
        reduced.append((pidx, [inv * a for a in row], [inv * a for a in cmb]))


# ---------------------------------------------------------------------------
# the dense split certificate
# ---------------------------------------------------------------------------
#
# Right multiplication R_b on a block, as the d^2 x d^2 matrix in the
# coordinates of its echelon basis that ``certify_split_block`` built
# before it worked in the coordinates of A; its minimal polynomial as the
# lcm of d^2 Krylov relations, and each eigenspace as a dense kernel.


def dense_restricted_right_mult(algebra, block, b):
    """R_b on the block (an ``EchelonSubspace``) in the coordinates of
    its echelon basis."""
    cols = [block.coords(algebra.multiply(v, b)) for v in block.basis]
    assert None not in cols, "block not closed under multiplication"
    return Matrix.from_columns(algebra.field, [
        dense(c, block.dim, algebra.field.zero) for c in cols])


def dense_eigenspaces(algebra, block, b):
    """(minimal polynomial of R_b, [(t, dim ker(R_b - t)) for each root t
    in the base field]), from the dense matrix of R_b."""
    from frobdiv.wedderburn import field_roots
    field = algebra.field
    mat = dense_restricted_right_mult(algebra, block, b)
    minpoly = mat.minimal_polynomial()
    return minpoly, [
        (t, len(matrix_sub(mat, scalar_matrix(field, mat.rows, t)).kernel()))
        for t in field_roots(field, minpoly.coeffs)]


# ---------------------------------------------------------------------------
# Matrix and algebra helpers that only tests use
# ---------------------------------------------------------------------------


def zero_matrix(field, rows, cols):
    return Matrix(field, [[field.zero] * cols for _ in range(rows)])


def identity_matrix(field, n):
    return scalar_matrix(field, n, field.one)


def matrix_column(m, j):
    return [row[j] for row in m.entries]


def matrix_columns(m):
    return [matrix_column(m, j) for j in range(m.cols)]


def sparse_columns(m):
    """The columns of a Matrix as sparse dicts {row: nonzero entry}, the
    form in which ``HopfAlgebraData`` takes its antipode."""
    return [{i: x for i, x in enumerate(col) if x}
            for col in matrix_columns(m)]


def transpose(m):
    return Matrix(m.field, matrix_columns(m))


def matrix_sub(a, b):
    return Matrix(a.field, [[x - y for x, y in zip(r, s)]
                            for r, s in zip(a.entries, b.entries)])


def matmul(a, b):
    """The product of two Matrix objects, row by column over the nonzero
    entries of each row of a."""
    zero = a.field.zero
    cols = matrix_columns(b)
    out = []
    for row in a.entries:
        nz = [(k, x) for k, x in enumerate(row) if x]
        out.append([sum((x * col[k] for k, x in nz), zero) for col in cols])
    return Matrix(a.field, out)


def matrix_inverse(m):
    """The inverse of a square Matrix, from ``dense_inverse``."""
    return Matrix(m.field, dense_inverse(m.field, m.entries))


def matrix_trace(m):
    s = m.field.zero
    for i in range(min(m.rows, m.cols)):
        s = s + m.entries[i][i]
    return s


def dense_commutator_space(A):
    """Echelon basis of the span of the commutators x_i x_j - x_j x_i."""
    def mult(i, j):
        return dense_multiply(A, basis_vec(A, i), basis_vec(A, j))

    rows = [[a - b for a, b in zip(mult(i, j), mult(j, i))]
            for i in range(A.dim) for j in range(i + 1, A.dim)]
    red, pivots = dense_rref(A.field, rows) if rows else ([], [])
    return red[:len(pivots)]


# ---------------------------------------------------------------------------
# Q(zeta_n) as tuples of rationals
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _reduction_table(n):
    """x^(phi+j) on the power basis 1, ..., x^(phi-1), for j < phi - 1."""
    phi_poly = cyclotomic_polynomial(n)
    phi = len(phi_poly) - 1
    table = []
    cur = [-c for c in phi_poly[:-1]]  # x^phi
    table.append(list(cur))
    for _ in range(phi - 2):
        nxt = [0] + cur[:-1]
        top = cur[-1]
        if top:
            for i in range(phi):
                nxt[i] += top * table[0][i]
        table.append(nxt)
        cur = nxt
    return table


class RefCyc:
    """An element of Q(zeta_n) as ``scalars.Cyc`` once stored it: one Rat
    per power-basis coefficient, with arithmetic of its own on Rats and
    no field object.  Products are reduced with the rows x^(phi+j), and
    the inverse y solves the linear system a y = 1 whose columns are the
    products a z^j.  Format, parse and reduction mod p^m read the
    coefficients one by one."""

    _TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)(?:\*z(?:\^(\d+))?)?$")

    def __init__(self, n, coeffs):
        self.n = n
        self.coeffs = tuple(Rat(c) for c in coeffs)

    @property
    def phi(self):
        return len(self.coeffs)

    def _with(self, coeffs):
        return RefCyc(self.n, coeffs)

    def __add__(self, other):
        return self._with([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self._with([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._with([-a for a in self.coeffs])

    def __mul__(self, other):
        phi = self.phi
        prod = [Rat(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        out = prod[:phi]
        for j in range(len(prod) - 1, phi - 1, -1):
            for i, t in enumerate(_reduction_table(self.n)[j - phi]):
                out[i] += prod[j] * t
        return self._with(out)

    def inv(self):
        """Gauss-Jordan elimination on the rows [M | e_0], column j of M
        the coefficients of self z^j; M is singular only for zero."""
        phi = self.phi
        e = [[Rat(int(i == j)) for i in range(phi)] for j in range(phi)]
        cols = [(self * self._with(e[j])).coeffs for j in range(phi)]
        rows = [[col[i] for col in cols] + [e[0][i]] for i in range(phi)]
        for c in range(phi):
            piv = next((r for r in range(c, phi) if rows[r][c]), None)
            if piv is None:
                raise ZeroDivisionError("inversion of zero")
            rows[c], rows[piv] = rows[piv], rows[c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for r in range(phi):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        return self._with([row[-1] for row in rows])

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = self._with([Rat(1)] + [Rat(0)] * (self.phi - 1))
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def sort_key(self):
        return self.coeffs

    def format(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        return " + ".join(terms) if terms else "0"

    @classmethod
    def parse(cls, n, phi, s):
        coeffs = [Rat(0)] * phi
        if s.strip() == "0":
            return cls(n, coeffs)
        for term in s.strip().split(" + "):
            m = cls._TERM_RE.match(term.strip())
            k = (int(m.group(2)) if m.group(2) else 1) if "*z" in term else 0
            coeffs[k] += Rat(m.group(1))
        return cls(n, coeffs)

    def reduce(self, root, M):
        """Image in Z/M under zeta -> root; BadPrime when a coefficient's
        denominator is not a unit mod M."""
        acc, power = 0, 1
        for c in self.coeffs:
            num, den = int(c.numerator), int(c.denominator)
            try:
                term = num % M * pow(den, -1, M) % M
            except ValueError:
                raise BadPrime("denominator not invertible mod p^m") from None
            acc = (acc + term * power) % M
            power = power * root % M
        return acc


# ---------------------------------------------------------------------------
# trial reconstruction
# ---------------------------------------------------------------------------
#
# The Wedderburn pipeline as it ran before gluing was bounded: every gluing
# of one mod-p block per component was Hensel-lifted through p, p^2, p^4,
# ... up to p^64, glued at each precision and rationally reconstructed
# coefficient by coefficient, until a reconstruction passed the screen mod
# q and the exact check; field roots the same way, with Newton's step, up
# to p^32.  Characters were read off the images x_j e.


TRIAL_PRECISION_EXP = 64
TRIAL_ROOT_PRECISION_EXP = 32


def rational_reconstruct(residue, modulus):
    """Recover the unique a/b with |a|, b <= sqrt(M/2), gcd(b, M) = 1 and
    a = b*residue (mod M); None if no such fraction exists."""
    if not 0 <= residue < modulus:
        raise ValueError("residue out of range")
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, residue
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    a, b = r1, t1
    if b < 0:
        a, b = -a, -b
    if b == 0 or b > bound or abs(a) > bound:
        return None
    if math.gcd(b, modulus) != 1 or math.gcd(abs(a) if a else b, b) != 1:
        return None
    return Rat(a, b)


def trial_reconstruct_element(field, per_component, roots, M):
    """Glue per-component residue lists and rationally reconstruct a
    dense vector of field scalars; None if any coefficient fails."""
    from frobdiv.modular import interpolate_mod
    out = []
    for residues in zip(*per_component):
        qcoeffs = []
        for c in interpolate_mod(roots, residues, M):
            q = rational_reconstruct(c, M)
            if q is None:
                return None
            qcoeffs.append(q)
        out.append(field.element(qcoeffs))
    return out


def lift_and_reconstruct(field, p, residues, step, accept, max_exp):
    """(x, exp) for the first reconstruction x at p^exp, exp = 1, 2, 4,
    ... up to max_exp, with ``accept(x)``; None if there is none.
    ``step(residues, exp)`` lifts the per-component residues to p^exp."""
    from frobdiv.modular import component_roots
    n = field.conductor
    exp = 1
    while exp <= max_exp:
        roots, M = component_roots(n, p, exp)
        if exp > 1:
            residues = step(residues, exp)
        x = trial_reconstruct_element(field, residues, roots, M)
        if x is not None and accept(sparse(x)):
            return sparse(x), exp
        exp *= 2
    return None


class LiftMemo:
    """A ``step`` that lifts the residues v of component k to p^exp as
    lift(k, v, exp), once per (k, v, exp)."""

    def __init__(self, lift):
        self.lift = lift
        self.lifts = {}

    def __call__(self, residues, exp):
        out = []
        for k, v in enumerate(residues):
            key = (k, tuple(v), exp)
            if key not in self.lifts:
                self.lifts[key] = self.lift(k, v, exp)
            out.append(self.lifts[key])
        return out


def idempotent_lift(algebra, p, check_comps):
    """The trial lift of one gluing: a function that takes the mod-p
    central idempotents of the chosen blocks, one per component, and
    returns (e, exp) for the first reconstruction that passes the check
    mod q and the exact check, or None."""
    from frobdiv.modular import (ComponentAlgebra, component_roots,
                                 hensel_lift_idempotent)
    from frobdiv.wedderburn import _idempotent_mod_q, _verify_idempotent
    field = algebra.field

    @functools.lru_cache(maxsize=None)
    def components(exp):
        roots, M = component_roots(field.conductor, p, exp)
        return [ComponentAlgebra(algebra, w, M) for w in roots]

    def hensel(k, e, exp):
        comp = components(exp)[k]
        return residue_list(hensel_lift_idempotent(comp, residue_dict(e),
                                                    comp.M), comp.dim)

    step = LiftMemo(hensel)

    def accept(e):
        return (_idempotent_mod_q(algebra, e, check_comps)
                and _verify_idempotent(algebra, e))

    return lambda idems: lift_and_reconstruct(field, p, idems, step, accept,
                                              TRIAL_PRECISION_EXP)


def trial_wedderburn(algebra, p):
    """(idempotents, characters, precision) by trial reconstruction at the
    prime p, blocks in the order of the modular split of the first
    component, characters read off the images x_j e."""
    from frobdiv.wedderburn import (_check_components, _gluings,
                                    _split_components)
    _, per_comp_blocks = _split_components(algebra, p)
    invariant = lambda b: (b.degree, b.block_dim, b.center_dim)
    used = [set() for _ in per_comp_blocks]
    lift = idempotent_lift(algebra, p, _check_components(algebra, p))
    chi_reg = algebra.regular_character()
    field = algebra.field
    idempotents, characters, precision = [], [], 1
    for b0 in per_comp_blocks[0]:
        for choice in _gluings(per_comp_blocks, b0, used, invariant):
            res = lift([residue_list(b.central_idempotent, algebra.dim)
                        for b in choice])
            if res is not None:
                break
        else:
            raise AssertionError("no gluing reconstructed")
        e, exp = res
        precision = max(precision, exp)
        for k, b in enumerate(choice):
            used[k].add(id(b))
        idempotents.append(e)
        denom = field.from_rat(Rat(b0.degree * b0.center_dim))
        characters.append({k: v / denom for k, v
                           in hit_form_left(algebra, e, chi_reg).items()})
    return idempotents, characters, precision


def lift_roots(field, g, p, comp_roots):
    """The roots of g in the field among the lifts of every choice of one
    simple root mod p per component, each lifted to its first
    reconstruction and kept if it is a root of g."""
    from frobdiv.modular import _int_poly_eval, component_roots, reduce_scalar

    @functools.lru_cache(maxsize=None)
    def reductions(exp):
        roots, M = component_roots(field.conductor, p, exp)
        red = []
        for w in roots:
            gw = [reduce_scalar(c, w, M) for c in g.coeffs]
            red.append((gw, [i * c % M for i, c in enumerate(gw)][1:]))
        return red, M

    def newton(k, ts, exp):
        red, M = reductions(exp)
        (gw, dgw), (t,) = red[k], ts
        return [(t - _int_poly_eval(gw, t, M)
                 * pow(_int_poly_eval(dgw, t, M), -1, M)) % M]

    step = LiftMemo(newton)
    out = []
    for choice in itertools.product(*comp_roots):
        res = lift_and_reconstruct(field, p, [[t] for t in choice], step,
                                   lambda x: True, TRIAL_ROOT_PRECISION_EXP)
        t = None if res is None else res[0].get(0, field.zero)
        if t is not None and not g(t):
            out.append(t)
    return out


def trial_field_roots(field, coeffs):
    """``wedderburn.field_roots`` with the roots lifted by trial: the same
    squarefree part, prime and roots mod p."""
    import random
    from frobdiv.modular import is_prime
    from frobdiv.wedderburn import _simple_roots_mod_p
    f = Poly(field, coeffs)
    if f.degree() < 1:
        return []
    g = (f // f.gcd(f.derivative())).monic()
    n = field.conductor
    dens = {c.den for c in g.coeffs} - {1}
    rng = random.Random(f.degree())
    p = max(2 * f.degree() + 1, n, 20)
    while True:
        p += 1
        if (p % n != 1 % n or not is_prime(p)
                or any(d % p == 0 for d in dens)):
            continue
        comp_roots = _simple_roots_mod_p(field, g, p, rng)
        if comp_roots is not None:
            break
    return sorted(set(lift_roots(field, g, p, comp_roots)),
                  key=lambda t: t.sort_key())


# ---------------------------------------------------------------------------
# F_p as a field object
# ---------------------------------------------------------------------------


class PrimeField:
    """F_p (or the ring Z/p^m) as a scalar domain for generic linear algebra."""

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.zero = PrimeFieldElement(0, modulus)
        self.one = PrimeFieldElement(1, modulus)

    def from_rat(self, x: int):
        return PrimeFieldElement(x, self.modulus)

    def coerce(self, x):
        if isinstance(x, PrimeFieldElement):
            if x.modulus != self.modulus:
                raise ValueError("modulus mismatch")
            return x
        return PrimeFieldElement(int(x), self.modulus)

    def sort_key(self, x):
        return (x.residue,)

    def format(self, x):
        return str(x.residue)

    def __repr__(self):
        return f"PrimeField({self.modulus})"


# ---------------------------------------------------------------------------
# polynomial operations that only tests call
# ---------------------------------------------------------------------------


def poly_from_ints(field, ints):
    return Poly(field, [field.from_rat(i) for i in ints])


def poly_x(field):
    return Poly(field, [field.zero, field.one])


def poly_sub(a, b):
    zero = a.field.zero
    n = max(len(a.coeffs), len(b.coeffs))
    pad = lambda c: c + [zero] * (n - len(c))  # noqa: E731
    return Poly(a.field, [x - y for x, y in zip(pad(a.coeffs),
                                                 pad(b.coeffs))])


def poly_pow_mod(f, k, modulus):
    out = Poly(f.field, [f.field.one])
    base = f % modulus
    while k:
        if k & 1:
            out = (out * base) % modulus
        base = (base * base) % modulus
        k >>= 1
    return out


def poly_inverse_mod(f, m):
    """The inverse of f modulo m by the extended Euclidean algorithm;
    ZeroDivisionError when gcd(f, m) is not a constant."""
    field = f.field
    r0, r1 = m, f % m
    t0, t1 = Poly(field, []), Poly(field, [field.one])
    while not r1.is_zero():
        q, rem = r0.divmod(r1)
        r0, r1 = r1, rem
        t0, t1 = t1, poly_sub(t0, q * t1)
    if r0.degree() != 0:
        raise ZeroDivisionError("polynomial not invertible modulo m")
    return (t0 * Poly(field, [field.one / r0.coeffs[0]])) % m


# ---------------------------------------------------------------------------
# the modular split on PrimeField objects
# ---------------------------------------------------------------------------
#
# ``modular.modular_split`` and its factorization as they were before F_p
# values became plain ints: residues are ``PrimeFieldElement`` objects,
# polynomials are ``Poly`` over ``PrimeField``, eliminations run through
# ``EchelonSubspace``, and the block dimensions are ranks of spans formed
# in the reduced algebra.  The random choices are drawn in the same order,
# so the two splits can be compared block for block.


def gf_distinct_degree_factor(f, p):
    out = []
    x = poly_x(f.field)
    h = x
    rest = f.monic()
    d = 0
    while rest.degree() > 0:
        d += 1
        if 2 * d > rest.degree():
            out.append((rest.degree(), rest))
            break
        h = poly_pow_mod(h, p, rest)
        g = rest.gcd(poly_sub(h, x))
        if g.degree() > 0:
            out.append((d, g))
            rest = rest.divmod(g)[0]
            h = h % rest
    return out


def gf_equal_degree_factor(f, d, p, rng):
    if f.degree() == d:
        return [f.monic()]
    field = f.field
    one = Poly(field, [field.one])
    while True:
        a = Poly(field, [field.from_rat(rng.randrange(p))
                         for _ in range(f.degree())])
        if a.degree() < 1:
            continue
        g = f.gcd(a)
        if not 0 < g.degree() < f.degree():
            b = poly_pow_mod(a, (p ** d - 1) // 2, f)
            g = f.gcd(poly_sub(b, one))
            if not 0 < g.degree() < f.degree():
                continue
        return (gf_equal_degree_factor(g, d, p, rng)
                + gf_equal_degree_factor(f.divmod(g)[0].monic(), d, p, rng))


def gf_factor_mod_p(f, p, rng):
    factors = []
    for d, prod in gf_distinct_degree_factor(f, p):
        factors.extend(gf_equal_degree_factor(prod, d, p, rng))
    return sorted(factors, key=lambda g: (g.degree(),
                                          [c.residue for c in g.coeffs]))


def gf_roots_mod_p(f, p, rng):
    x = poly_x(f.field)
    g = f.gcd(poly_sub(poly_pow_mod(x, p, f), x))
    if g.degree() == 0:
        return []
    return sorted((-fac.coeffs[0] / fac.coeffs[1]).residue
                  for fac in gf_equal_degree_factor(g, 1, p, rng))


def gf_center_mod_p(comp, gf):
    from frobdiv.algebra import center_conditions
    from frobdiv.linalg import EchelonSubspace
    rows = ({k: gf.from_rat(c) for k, c in row.items()}
            for row in center_conditions(comp.table))
    return EchelonSubspace(gf, comp.dim, rows).kernel()


def _gf_try_split(cmult, e, direction, r, p, rng):
    from frobdiv.linalg import iterates, krylov_relation
    gf = PrimeField(p)
    z = cmult(direction, e)
    mat = Matrix.from_columns(gf, [[gf.from_rat(x) for x in
                                    cmult(z, _basis_coord(j, r))]
                                   for j in range(r)])
    rel = krylov_relation(gf, r, map(sparse, iterates(
        mat.apply, [gf.from_rat(x) for x in e])))
    if rel.degree() <= 1:
        return None
    if rel.gcd(rel.derivative()).degree() > 0:
        raise BadPrime("center not semisimple mod p")
    factors = gf_factor_mod_p(rel, p, rng)
    if len(factors) <= 1:
        return None
    pieces = []
    for fi in factors:
        cof = rel.divmod(fi)[0]
        h = (cof * poly_inverse_mod(cof, fi)) % rel
        acc = [0] * len(z)
        for c in reversed(h.coeffs):
            acc = cmult(acc, z)
            acc = [(a + c.residue * u) % p for a, u in zip(acc, e)]
        pieces.append(acc)
    return pieces


def gf_modular_split(comp):
    """The blocks of ``modular.modular_split`` on PrimeField objects, each
    product formed densely in the whole reduction; the idempotents come
    back as residue vectors."""
    import random
    from frobdiv.linalg import EchelonSubspace
    from frobdiv.modular import ModularBlock
    p, n = comp.M, comp.dim
    gf = PrimeField(p)
    rng = random.Random(p)
    center = gf_center_mod_p(comp, gf)
    r = center.dim
    if r == 0:
        raise BadPrime("trivial center mod p")
    basis = [residue_list({k: x.residue for k, x in v.items()}, n)
             for v in center.basis]

    def cmult(u_coords, v_coords):
        return _gf_center_coords(center, gf, dense_mod_multiply(
            comp, _int_comb(basis, u_coords, p),
            _int_comb(basis, v_coords, p)))

    def ideal_dim(e):
        return sum(cmult(e, _basis_coord(j, r))[j] for j in range(r)) % p

    unit_coords = residue_list({i: c.residue for i, c in center.coords(
        {k: gf.from_rat(x) for k, x in comp.unit.items()}).items()}, r)
    # the loop of modular._commutative_idempotents
    pieces = [(unit_coords, r == 1)]
    changed, rounds = True, 0
    while changed and rounds < r + 25:
        changed = False
        rounds += 1
        directions = [_basis_coord(i, r) for i in range(r)]
        if rounds > r:
            directions = [[rng.randrange(p) for _ in range(r)]
                          for _ in range(3)]
        new = []
        for e, final in pieces:
            split = None
            if not final:
                for d in directions:
                    split = _gf_try_split(cmult, e, d, r, p, rng)
                    if split:
                        break
            if split:
                new.extend((piece, ideal_dim(piece) == 1)
                           for piece in split)
                changed = True
            else:
                new.append((e, final))
        pieces = new

    def span_dim(vectors):
        return EchelonSubspace(gf, n, ({k: gf.from_rat(x)
                                        for k, x in enumerate(v) if x}
                                       for v in vectors)).dim

    blocks = []
    for e_coords, _ in pieces:
        e = _int_comb(basis, e_coords, p)
        bdim = span_dim(dense_mod_multiply(comp, _basis_coord(j, n), e)
                        for j in range(n))
        cdim = span_dim(dense_mod_multiply(comp, z, e) for z in basis)
        d = math.isqrt(bdim // cdim)
        assert d * d * cdim == bdim
        blocks.append(ModularBlock(e, d, bdim, cdim))
    blocks.sort(key=lambda b: (b.degree, b.block_dim, b.central_idempotent))
    return [b._replace(central_idempotent=residue_dict(b.central_idempotent))
            for b in blocks]
