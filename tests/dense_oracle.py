"""Dense reference implementations of the axiom checks.

These multiply dense basis vectors with ``StructureConstantAlgebra.multiply``
and compare whole coefficient vectors, as the library did before its checks
moved onto the sparse structure table.  The tests use them as a
differential oracle: on every input both must report the same verdict and
the same failure labels in the same order.  They never touch the sparse
product of ``TensorSquareAlgebra``; products in A (x) A are built factor by
factor with the dense ``multiply``.
"""

from frobdiv import Matrix, StructureConstantAlgebra, VerificationReport
from frobdiv.hopf import HopfAlgebraData


def dense_verify(A):
    report = VerificationReport(True)
    n = A.dim
    basis = [A.basis_vec(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            ij = A.multiply(basis[i], basis[j])
            for k in range(n):
                lhs = A.multiply(ij, basis[k])
                rhs = A.multiply(basis[i], A.multiply(basis[j], basis[k]))
                if lhs != rhs:
                    report.record(False, ("associativity", i, j, k))
    for i in range(n):
        if A.multiply(A.unit, basis[i]) != basis[i]:
            report.record(False, ("left-unit", i))
        if A.multiply(basis[i], A.unit) != basis[i]:
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
            left = A.multiply(A.basis_vec(i), A.basis_vec(k))
            right = A.multiply(A.basis_vec(j), A.basis_vec(l))
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
            eps_id[k] = eps_id[k] + H.counit[i] * c
            id_eps[i] = id_eps[i] + H.counit[k] * c
        basis = A.basis_vec(j)
        report.record(eps_id == basis, ("counit-left", j))
        report.record(id_eps == basis, ("counit-right", j))

    unit_sq = {}
    for i, x in enumerate(A.unit):
        for k, y in enumerate(A.unit):
            if x != field.zero and y != field.zero:
                unit_sq[i * n + k] = x * y
    report.record(_clean(H.delta_of(A.unit)) == unit_sq, ("delta-unit",))
    report.record(H.counit_of(A.unit) == field.one, ("counit-unit",))
    for i in range(n):
        for j in range(n):
            prod = A.multiply(A.basis_vec(i), A.basis_vec(j))
            lhs = H.delta_of(prod)
            rhs = _dense_tensor_mult(A, H.delta[i], H.delta[j])
            report.record(lhs == rhs, ("delta-multiplicative", i, j))
            report.record(H.counit_of(prod) == H.counit[i] * H.counit[j],
                          ("counit-multiplicative", i, j))

    for j in range(n):
        left = A.zero_vec()
        right = A.zero_vec()
        for idx, c in H.delta[j].items():
            i, k = divmod(idx, n)
            t = A.multiply(H.antipode.column(i), A.basis_vec(k))
            left = [x + c * y for x, y in zip(left, t)]
            t = A.multiply(A.basis_vec(i), H.antipode.column(k))
            right = [x + c * y for x, y in zip(right, t)]
        target = [H.counit[j] * u for u in A.unit]
        report.record(left == target, ("antipode-left", j))
        report.record(right == target, ("antipode-right", j))

    s2 = H.antipode * H.antipode
    report.record(s2 == Matrix.identity(field, n), ("involutory",))
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
    unit = [A.field.zero] * n
    for i, c in enumerate(A.unit):
        unit[perm[i]] = c
    return StructureConstantAlgebra(A.field, n, table, unit, name=A.name)


def permute_hopf(H, perm):
    n = H.dim
    delta = [{} for _ in range(n)]
    for j, d in enumerate(H.delta):
        for idx, c in d.items():
            a, b = divmod(idx, n)
            delta[perm[j]][perm[a] * n + perm[b]] = c
    counit = [H.field.zero] * n
    for j, c in enumerate(H.counit):
        counit[perm[j]] = c
    rows = [[H.field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = H.antipode.entries[i][j]
    return HopfAlgebraData(permute_algebra(H.algebra, perm), delta, counit,
                           Matrix(H.field, rows), name=H.name)
