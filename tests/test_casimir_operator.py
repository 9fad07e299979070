"""Multiplication by the Casimir element through the swap law, checked
three ways: ``FrobeniusStructure.casimir_times`` against the product in
A (x) A, its minimal polynomial against the Krylov loop over
``TensorSquareAlgebra`` (``dense_oracle.carrier_minimal_polynomial``), and
that minimal polynomial against the closed form the block decomposition
gives."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from frobdiv import (QQ, Rat, central_primitive_idempotents,
                     drinfeld_double, dual_hopf, frobenius_structure,
                     group_algebra, integrals, named_group)
from frobdiv.algebra import TensorSquareAlgebra
from frobdiv.linalg import sparse
from frobdiv.wedderburn import gamma_one_eigenvalue

from conftest import delta_form, group_algebra_plain, matrix_blocks
from dense_oracle import (carrier_minimal_polynomial, change_basis_algebra,
                          change_basis_hopf, dense_vec, permute_algebra,
                          scalar_matrix, shear_matrix, transpose,
                          unimodular_matrix)
from ladder import LADDER

_HOPF = {}


def hopf(name, conductor=None):
    """kG, k^G or D(G) for a named group over Q(zeta_conductor), the
    conductor defaulting to the exponent, with the integral form; built
    once."""
    key = (name, conductor)
    if key not in _HOPF:
        if name.startswith("D("):
            G = named_group(name[2:-1])
        else:
            G = named_group(name[2:] if name.startswith("k^") else name[1:])
        conductor = conductor or G.exponent
        if name.startswith("D("):
            H, _ = drinfeld_double(G, conductor=conductor, verify=False)
        else:
            H = group_algebra(G, conductor=conductor)
            if name.startswith("k^"):
                H = dual_hopf(H)
        _HOPF[key] = (H, integrals(H).lam)
    return _HOPF[key]


def block_form(sizes, weights):
    """sum_S t_S tr_S on the matrix units of M_{n1} + M_{n2} + ..."""
    form = []
    for n, t in zip(sizes, weights):
        form.extend(QQ.from_rat(t) if i == j else QQ.zero
                    for i in range(n) for j in range(n))
    return sparse(form)


def moved(M, A, form):
    """The form on A as the dense vector M applies to, moved by M."""
    return sparse(M.apply(dense_vec(A, form)))


PLAIN = (3, 2, 1)
CUSTOM_WEIGHTS = (Rat(2, 3), Rat(-5), Rat(7, 4))


def dense_plain(form):
    """M3 + M2 + Q in a dense unimodular basis and ``form``, given on the
    matrix units, moved to that basis; also returns the algebra on the
    matrix units."""
    A = matrix_blocks(PLAIN)
    P = unimodular_matrix(QQ, A.dim, 0)
    return change_basis_algebra(A, P), moved(transpose(P), A, form), A


# -- casimir_times against T.mult on random sparse z ------------------------

_STRUCTURES = {}


def structure(name):
    """The Frobenius structures the operator is compared on: over Q,
    Q(zeta_3) and Q(zeta_4), with 0/1, with dense and with fractional or
    irrational structure tables, and with forms whose Gram matrices leave
    Q."""
    if name not in _STRUCTURES:
        if name == "kS3/Q":
            A = group_algebra_plain("S3")
            lam = delta_form(A)
        elif name == "kS3/Q halved":
            A = group_algebra_plain("S3")
            P = scalar_matrix(QQ, A.dim, Rat(1, 2))
            A, lam = change_basis_algebra(A, P), moved(P, A, delta_form(A))
        elif name == "M3+M2+Q/Q dense custom":
            A, lam, _ = dense_plain(block_form(PLAIN, CUSTOM_WEIGHTS))
        elif name == "kC4/Q(zeta4) times (1+i)/2":
            H, lam = hopf("kC4")
            field = H.field
            P = scalar_matrix(field, H.dim, (field.one + field.zeta())
                              / field.from_rat(2))
            A, lam = (change_basis_algebra(H.algebra, P),
                      moved(P, H.algebra, lam))
        elif name == "M3+M2+Q/Q dense":
            A, lam, _ = dense_plain(matrix_blocks(PLAIN).regular_character())
        elif name == "kS3/Q(zeta3) scaled":
            H, lam = hopf("kS3", 3)
            A = H.algebra
            lam = {k: (H.field.one + H.field.zeta()) * c
                   for k, c in lam.items()}
        elif name == "D(C4)/Q(zeta4)":
            H, lam = hopf("D(C4)")
            A = H.algebra
        elif name == "D(C4)/Q(zeta4) sheared":
            H, lam = hopf("D(C4)")
            P = shear_matrix(H.field, H.dim, [(0, 5), (3, 9), (7, 12)])
            A = change_basis_hopf(H, P)[0].algebra
            lam = moved(transpose(P), H.algebra, lam)
        else:
            assert name == "kC4/Q(zeta4) scaled"
            H, lam = hopf("kC4")
            A = H.algebra
            two = H.field.from_rat(Rat(2))
            lam = {k: (H.field.one + two * H.field.zeta()) * c
                   for k, c in lam.items()}
        _STRUCTURES[name] = frobenius_structure(A, lam)
    return _STRUCTURES[name]


STRUCTURES = ["kS3/Q", "kS3/Q halved", "M3+M2+Q/Q dense",
              "M3+M2+Q/Q dense custom", "kS3/Q(zeta3) scaled",
              "D(C4)/Q(zeta4)", "D(C4)/Q(zeta4) sheared",
              "kC4/Q(zeta4) scaled", "kC4/Q(zeta4) times (1+i)/2"]


def test_structures_cover_common_denominators():
    # casimir_times scales the table by D and gram_inv by gamma: both are
    # above 1 on some structures, with rational and irrational constants
    scales = {}
    for name in STRUCTURES:
        F = structure(name)
        scales[name] = (F.algebra.integral_table[0], F._integral_dual[0])
    assert scales["kS3/Q halved"][0] == 2
    assert scales["kC4/Q(zeta4) times (1+i)/2"][0] == 2
    assert scales["M3+M2+Q/Q dense"][1] == 6
    assert scales["M3+M2+Q/Q dense custom"][1] > 6


# 90 derandomized examples draw every structure at least twice
@settings(max_examples=90, deadline=None, derandomize=True)
@given(st.sampled_from(STRUCTURES),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 6),
                          st.integers(-3, 3)), min_size=1, max_size=4))
def test_casimir_times_matches_tensor_product(name, terms):
    F = structure(name)
    field = F.field
    T = TensorSquareAlgebra(F.algebra)
    # coefficients a + b zeta, or a + b/7 over Q: never zero, and no sum of
    # them is zero either
    other = field.from_rat(Rat(1, 7)) if field is QQ else field.zeta()
    z = {}
    for pos, a, b in terms:
        idx = pos % T.dim
        z[idx] = (z.get(idx, field.zero) + field.from_rat(Rat(a))
                  + field.from_rat(Rat(b)) * other)
    assert F.casimir_times(z) == T.mult(F.casimir, z)


# -- minimal polynomials against the carrier Krylov loop --------------------


def oracle_minpoly(F):
    return carrier_minimal_polynomial(TensorSquareAlgebra(F.algebra),
                                      F.casimir)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["kS3", "kA4", "k^S3", "D(S3)", "D(C4)"])
def test_casimir_minpoly_on_relabelled_bases(name, seed):
    H, lam = hopf(name)
    perm = list(range(H.dim))
    random.Random(seed).shuffle(perm)
    A = permute_algebra(H.algebra, perm)
    F = frobenius_structure(A, {perm[i]: c for i, c in lam.items()})
    assert F.casimir_certificate().min_poly == oracle_minpoly(F)


def test_casimir_minpoly_on_sheared_double():
    F = structure("D(C4)/Q(zeta4) sheared")
    assert F.casimir_certificate().min_poly == oracle_minpoly(F)


# In a dense unimodular basis every structure constant is nonzero and one
# product in A (x) A takes the carrier loop 90 s (M3+M2+Q) to 110 s (D(C4));
# there the loop runs on the constructor's basis.  The minimal polynomial
# does not depend on the basis, and the products themselves are compared
# above on the same dense M3+M2+Q basis.


@pytest.mark.parametrize("seed", [0, 1])
def test_casimir_minpoly_on_unimodular_double(seed):
    H, lam = hopf("D(C4)")
    P = unimodular_matrix(H.field, H.dim, seed)
    A = change_basis_hopf(H, P)[0].algebra
    F = frobenius_structure(A, moved(transpose(P), H.algebra, lam))
    expected = oracle_minpoly(frobenius_structure(H.algebra, lam))
    assert F.casimir_certificate().min_poly == expected


@pytest.mark.parametrize("form", ["regular", "custom"])
def test_casimir_minpoly_on_dense_plain(form):
    lam = (matrix_blocks(PLAIN).regular_character() if form == "regular"
           else block_form(PLAIN, CUSTOM_WEIGHTS))
    A, dense_lam, units = dense_plain(lam)
    F = frobenius_structure(A, dense_lam)
    expected = oracle_minpoly(frobenius_structure(units, lam))
    assert F.casimir_certificate().min_poly == expected


# -- the closed form from the blocks ----------------------------------------
#
# On S (x) S the Casimir element acts as (gamma_S / d_S) times the flip,
# whose square is 1 and which is a scalar only when d_S = 1, and it
# vanishes on S (x) T for S != T.  So its minimal polynomial is the lcm of
# X - gamma_S (d_S = 1) and X^2 - (gamma_S / d_S)^2 (d_S > 1), times X when
# there are two blocks or more: the product of X - r over its roots r.

# The analyses of the benchmark's ``ladder-small`` workload: (document,
# conductor), the conductor defaulting to the group's exponent.
LADDER_DOCS = [(("k" if kind == "group-algebra" else "k^") + g, c)
               for g, kind, c in LADDER]


def closed_form_minpoly(F, data):
    field = F.field
    roots = set()
    for s, d in enumerate(data.degrees):
        g = gamma_one_eigenvalue(F, data, s)
        assert g.is_rational()
        g = field.as_rat(g)
        roots |= {g} if d == 1 else {g / d, -g / d}
    if data.num_blocks > 1:
        roots.add(Rat(0))
    poly = [Rat(1)]
    for r in sorted(roots):
        # poly * (X - r), ascending coefficients
        poly = [a - r * b for a, b in zip([Rat(0)] + poly, poly + [Rat(0)])]
    return poly


def test_casimir_minpoly_closed_form():
    checked = []

    def check(label, F):
        data = central_primitive_idempotents(F.algebra, F)
        if not all(data.split_certified):
            return
        poly = F.casimir_certificate().min_poly
        assert poly == closed_form_minpoly(F, data), label
        checked.append(label)
        return poly

    for name, conductor in LADDER_DOCS:
        H, lam = hopf(name, conductor)
        check((name, conductor), frobenius_structure(H.algebra, lam))
    A, lam, _ = dense_plain(matrix_blocks(PLAIN).regular_character())
    poly = check("M3+M2+Q", frobenius_structure(A, lam))
    # X (X - 1) (X^2 - 1/4) (X^2 - 1/9)
    assert poly == [Rat(0), Rat(-1, 36), Rat(1, 36), Rat(13, 36),
                    Rat(-13, 36), Rat(-1), Rat(1)]
    # every input is split: none was left out of the comparison
    assert checked == LADDER_DOCS + ["M3+M2+Q"]
