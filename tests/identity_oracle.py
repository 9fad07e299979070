"""Identities of the paper checked on library objects, and small helpers
that only the tests call.

The library never calls these: the dual basis, the form and the Casimir
trace Gamma(a) = sum_i x_i a y_i (from products in A) of a Frobenius
structure, and its trace formula, reconstruction identity and Casimir
identities; the characters, the formula Gamma(1) e(S) = d(S)
(chi_S (x) Id)(c) and the block components of c and c^2 of a Wedderburn
split; the conjugacy classes of a finite group; and membership in an
echelon subspace.  Vectors are in the library's form, sparse dicts
{index: nonzero scalar}.
"""

from frobdiv import Rat, TensorSquareAlgebra, VerificationReport
from frobdiv.algebra import (AlgebraError, _add_into, _clean, combine,
                             contract_left, contract_right, tensor_dict)
from frobdiv.linalg import sparse
from frobdiv.wedderburn import gamma_one_eigenvalue


# ---------------------------------------------------------------------------
# Frobenius structures
# ---------------------------------------------------------------------------


def dual_basis(F):
    """The dual basis y_j, with <lambda, x_i y_j> = delta_ij:
    y_j = F.dual_combination(e_j)."""
    A = F.algebra
    return [F.dual_combination({j: A.field.one}) for j in range(A.dim)]


def evaluate(F, a):
    """<lambda, a> for the form lambda of the Frobenius structure F."""
    return F.algebra.apply_form(F.lam, a)


def casimir_trace(F, a):
    """Gamma(a) = sum_i x_i a y_i, from products in A; asserts the result
    is central."""
    A = F.algebra
    one = A.field.one
    out = combine((one, A.multiply(A.multiply({i: one}, a), y))
                  for i, y in enumerate(dual_basis(F)))
    if not A.is_central(out):
        raise AlgebraError("Casimir trace produced a non-central value")
    return out


def trace_via_casimir(F, f):
    """trace(f) = sum_i <lambda, f(x_i) y_i> for the Frobenius structure F
    and a Matrix f."""
    A = F.algebra
    s = F.field.zero
    for i, y in enumerate(dual_basis(F)):
        s = s + evaluate(F, A.multiply(sparse([row[i] for row in f.entries]),
                                       y))
    return s


def reconstruct(F, a):
    """sum_i x_i <lambda, a y_i>, which must reproduce a."""
    A = F.algebra
    return _clean({i: evaluate(F, A.multiply(a, y))
                   for i, y in enumerate(dual_basis(F))})


def check_casimir_identities(F):
    """Switch invariance, the swap law (a(x)1)c = c(1(x)a), and
    centrality of the Casimir square."""
    report = VerificationReport(True)
    A = F.algebra
    T = TensorSquareAlgebra(A)
    c = F.casimir
    report.record(T.switch(c) == c, ("switch-invariance",))
    for i in range(A.dim):
        a = {i: F.field.one}
        a_1 = tensor_dict(a, A.unit, A.dim)
        one_a = tensor_dict(A.unit, a, A.dim)
        report.record(T.mult(a_1, c) == T.mult(c, one_a),
                      ("swap-law-left", i))
        report.record(T.mult(one_a, c) == T.mult(c, a_1),
                      ("swap-law-right", i))
    csq = T.mult(c, c)
    for idx in range(T.dim):
        basis_elt = {idx: F.field.one}
        if T.mult(basis_elt, csq) != T.mult(csq, basis_elt):
            report.record(False, ("casimir-square-not-central", idx))
    return report


# ---------------------------------------------------------------------------
# Wedderburn data
# ---------------------------------------------------------------------------


class SplitUncertified(Exception):
    """A character of a split-certified block fails chi_S(1) = d(S) or
    chi_S(e(T)) = delta_{S,T} d(S)."""


def irreducible_characters(algebra, data):
    """The characters of the Wedderburn data, in canonical order; verifies
    chi_S(1) = d(S) and chi_S(e(T)) = delta_{S,T} d(S) on split-certified
    blocks."""
    field = algebra.field
    for s, chi in enumerate(data.characters):
        if not data.split_certified[s]:
            continue
        d = field.from_rat(Rat(data.degrees[s]))
        if algebra.apply_form(chi, algebra.unit) != d:
            raise SplitUncertified(f"chi_{s}(1) != d({s})")
        for t, e in enumerate(data.idempotents):
            want = d if t == s else field.zero
            if algebra.apply_form(chi, e) != want:
                raise SplitUncertified(f"chi_{s}(e({t})) wrong")
    return data.characters


def verify_cprid_formula(frobenius, data):
    """Gamma(1) e(S) = d(S) (chi_S (x) Id)(c) for every block, checked in
    both contraction orders.  Returns a list of booleans, one per block."""
    algebra = data.algebra
    field = algebra.field
    n = algebra.dim
    g1 = frobenius.gamma_one()
    cas = frobenius.casimir
    out = []
    for s, e in enumerate(data.idempotents):
        lhs = algebra.multiply(g1, e)
        chi = data.characters[s]
        left = contract_left(chi, cas, n)
        right = contract_right(chi, cas, n)
        d = field.from_rat(Rat(data.degrees[s]))
        out.append(lhs == {k: d * v for k, v in left.items()}
                   and lhs == {k: d * v for k, v in right.items()})
    return out


def casimir_square_components(frobenius, data):
    """Block components of c and c^2 as scalars.

    Returns (c_components, csq_components): matrices indexed by block pairs,
    with entry (S, T) = (chi_S (x) chi_T)((e_S (x) e_T) z) / (d_S d_T) for
    z = c and z = c^2.  Since e_S is a central idempotent and
    chi_S(a) = chi_S(a e_S), that is (chi_S (x) chi_T)(z) / (d_S d_T): no
    product in A (x) A is formed.

    Also asserts the off-diagonal vanishing of c, the diagonal formula
    d(S)^2 (c^2)_{S,S} = Gamma(1)_S^2, and the element identity
    c^2 = (Gamma (x) Id)(c) in A (x) A.
    """
    algebra = data.algebra
    field = algebra.field
    n = algebra.dim
    c = frobenius.casimir
    csq = frobenius.casimir_times(c)

    def component(z, s, t):
        chi_s, chi_t = data.characters[s], data.characters[t]
        val = field.zero
        for idx, zij in z.items():
            i, j = divmod(idx, n)
            if i in chi_s and j in chi_t:
                val = val + chi_s[i] * chi_t[j] * zij
        denom = field.from_rat(Rat(data.degrees[s] * data.degrees[t]))
        return val / denom

    r = data.num_blocks
    c_mat = [[component(c, s, t) for t in range(r)] for s in range(r)]
    csq_mat = [[component(csq, s, t) for t in range(r)] for s in range(r)]
    for s in range(r):
        for t in range(r):
            if s != t and bool(c_mat[s][t]):
                raise AlgebraError(f"casimir has off-diagonal component "
                                   f"({s},{t})")
        d2 = field.from_rat(Rat(data.degrees[s] ** 2))
        g = gamma_one_eigenvalue(frobenius, data, s)
        if d2 * csq_mat[s][s] != g * g:
            raise AlgebraError(f"casimir square diagonal fails at block {s}")
    # c^2 = (Gamma (x) Id)(c) as an element identity
    rows = {}  # i -> terms (j, c_ij) of c
    for idx, x in c.items():
        i, j = divmod(idx, n)
        rows.setdefault(i, []).append((j, x))
    gamma_c = {}
    for i, terms in rows.items():
        gi = casimir_trace(frobenius, {i: field.one})
        for rr, g in gi.items():
            for j, x in terms:
                _add_into(gamma_c, rr * n + j, g * x)
    if _clean(gamma_c) != csq:
        raise AlgebraError("c^2 != (Gamma (x) Id)(c)")
    return c_mat, csq_mat


# ---------------------------------------------------------------------------
# groups and echelon subspaces
# ---------------------------------------------------------------------------


def conjugacy_classes(G):
    """The conjugacy classes of the FiniteGroup G, each a sorted list."""
    n = G.order
    seen = [False] * n
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = sorted({G.table[G.table[g][x]][G.inverse[g]]
                        for g in range(n)})
        for y in orbit:
            seen[y] = True
        classes.append(orbit)
    return classes


def contains(space, vec):
    """Whether the vector vec lies in the EchelonSubspace space."""
    return not space.reduce(vec)
