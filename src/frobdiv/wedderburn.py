"""Characteristic-zero Wedderburn decomposition via modular splitting.

Every vector here is a sparse dict {index: nonzero scalar}: the
idempotents, the traces v and the characters, a residue vector as well.
The algebra is split mod a good prime p in the first CRT component of
the cyclotomic base field, on residue vectors (``modular.modular_split``,
where block dimensions are traces of projections; the roots mod p behind
``field_roots`` come from int polynomials).  A residue vector is sparse
like every exact vector, and its products are ``algebra.table_product``
on the reduced table, reduced mod p^k (``modular.product_mod``).  A
central primitive idempotent e comes back from its regular traces
v_j = chi_reg(x_j e), as in the paper's formula
Gamma(1) e(S) = d(S) (chi_S (x) Id)(c).  With D the common denominator
of the structure constants, D v_j is the trace of D L_{x_j} on A e, so
its power-basis coefficients obey a bound B known in advance
(``_trace_bound``).  Each mod-p block is Hensel-lifted
(e -> 3e^2 - 2e^3) to the one precision p^k of ``modular.precision_for``,
only when k > 1, and D v is read off the reduced table.  Each D v_j is
recovered from that component alone, by nearest-plane rounding on the
reduced lattice P^k (``modular.reconstruct_element``), and refused unless
its coefficients lie within B.  So each block is recovered once and no
block is matched across components.  A recovery that passes gives
e = T^-1 v exactly through the dual basis of chi_reg
(T_jk = chi_reg(x_j x_k)), the characters v / (d center_dim) and the
block dimension chi_reg(e).

Such an e goes straight to the exact checks: e e = e on the integral
table (``is_idempotent``), central (at once when the table is
commutative), the block dimension, and for the system sum 1 and
orthogonality, read off the block dimensions.  A block of degree d > 1
is certified split by two polynomials of a block element b = x e, its
minimal polynomial and its reduced characteristic polynomial, read off
the powers e x^k on sparse rows in the coordinates of A (each product
by ``algebra.table_product``) and their regular traces: no eigenspace
is formed.  The roots behind that certificate come back the same way
as the idempotents: ``field_roots`` recovers D_g t for the roots t of g
under a Cauchy bound.
"""

from __future__ import annotations

import itertools
import random

from .algebra import _common_den, combine, frobenius_structure, table_product
from .linalg import (EchelonSubspace, _trim, iterates, krylov_relation,
                     poly_divmod, poly_gcd)
from .modular import (BadPrime, ComponentAlgebra, PrecisionExceeded, _mod,
                      bad_prime_reason, component_root, embedding_factor,
                      good_primes, hensel_lift_idempotent, ideal_lattice,
                      is_squarefree_mod, modular_split, newton_lift, norm1,
                      precision_for, prime_search, reconstruct_element,
                      reduce_scalar, roots_mod_p)
from .scalars import Cyc

FALLBACK_PRIMES = 3
# Random combinations of the block basis a split certificate tries last.
RANDOM_CANDIDATES = 12


class WedderburnData:
    """Central primitive idempotents with block invariants and characters.

    Blocks are in canonical order: by degree, then by the sort keys of the
    character's values on the whole basis.  The idempotents are sparse vectors
    and the characters sparse forms: ``characters[s][j]`` is the trace of x_j
    on the s-th irreducible, absent when 0 (for non-split blocks: the reduced
    trace, and ``split_certified[s]`` is False).  ``precision_used`` is the
    exponent k of the one precision p^k at which the blocks were recovered.
    """

    def __init__(self, algebra, idempotents, degrees, block_dims,
                 center_dims, characters, split_certified, prime_used,
                 precision_used):
        self.algebra = algebra
        self.idempotents = idempotents
        self.degrees = degrees
        self.block_dims = block_dims
        self.center_dims = center_dims
        self.characters = characters
        self.split_certified = split_certified
        self.prime_used = prime_used
        self.precision_used = precision_used

    @property
    def num_blocks(self):
        return len(self.idempotents)

    def __repr__(self):
        return (f"WedderburnData({self.algebra.name or 'algebra'}, "
                f"degrees={self.degrees}, p={self.prime_used})")


def _verify_idempotent(algebra, e):
    return algebra.is_idempotent(e) and algebra.is_central(e)


def _raw_idempotents(algebra, dual, prime=None):
    """(idempotents, traces, blocks, prime, precision_exp): the central
    primitive idempotents over the base field, their regular traces and
    aligned ModularBlock records.  ``dual`` maps traces v to the element e
    with chi_reg(x_j e) = v_j."""
    if prime is not None:
        reason = bad_prime_reason(algebra, prime)
        if reason is not None:
            raise BadPrime(reason)
        primes = [prime]
    else:
        primes = list(itertools.islice(good_primes(algebra), FALLBACK_PRIMES))
    last_err = None
    for p in primes:
        try:
            return _idempotents_at_prime(algebra, dual, p)
        except (BadPrime, PrecisionExceeded) as err:
            last_err = err
            continue
    raise PrecisionExceeded(
        f"no prime in {primes} yielded verified idempotents: {last_err}")


def _idempotents_at_prime(algebra, dual, p):
    """The blocks of the split mod p in the first CRT component, each
    recovered from there alone: its traces D v mod p^k
    (``_block_traces``) go through ``reconstruct_element`` on the lattice
    P^k, and e = ``dual(v)`` must pass the exact check.  A block that
    fails raises PrecisionExceeded."""
    field = algebra.field
    n = field.conductor
    comp = ComponentAlgebra(algebra, component_root(n, p, 1), p)
    blocks = modular_split(comp)
    den, bound = _trace_bound(algebra, max(b.block_dim for b in blocks))
    exp = precision_for(field.phi, p, bound)
    lattice = ideal_lattice(n, p, exp)
    if exp > 1:
        comp = ComponentAlgebra(algebra, lattice.root, lattice.modulus)
    rho = comp.reduce_vector(algebra.regular_character())
    idempotents, traces = [], []
    for b in blocks:
        v = reconstruct_element(field, _block_traces(comp, rho, den, b, exp),
                                lattice, bound, den)
        e = None if v is None else dual(v)
        if e is None or not _verify_idempotent(algebra, e):
            raise PrecisionExceeded(
                f"block of degree {b.degree}: its traces at p={p} failed "
                f"the bound {bound} or the exact checks")
        idempotents.append(e)
        traces.append(v)
    return idempotents, traces, blocks, p, exp


def _trace_bound(algebra, block_dim):
    """(D, B): the common denominator D of the structure constants, and
    B = f_n block_dim max_{i,j} sum_k ||D c_ji^k||_1, both read off
    ``integral_table``, which bounds the power-basis coefficients of
    D chi_reg(x_j e) for every central idempotent e with dim A e <=
    block_dim.  D chi_reg(x_j e) is the trace of D L_{x_j} on A e:
    dim A e eigenvalues of an integral matrix, each at most its largest
    column 1-norm at every embedding."""
    D, table = algebra.integral_table
    col = max(sum(norm1(c, 1) for c in cell.values())
              for row in table for cell in row)
    return D, int(embedding_factor(algebra.field.conductor)
                  * block_dim * col)


def _block_traces(comp, rho, den, block, exp):
    """D chi_reg(x_j e) mod M for the block's idempotent e, Hensel-lifted
    from p to the modulus M = p^exp of ``comp``, read off its sparse table
    as sum_i e_i sum_m c_ji^m chi_reg(x_m) with rho the reduction of
    chi_reg."""
    M, e, level = comp.M, block.central_idempotent, 1
    while level < exp:
        e = hensel_lift_idempotent(comp, e, M)
        level *= 2
    return _mod({j: den * sum(x * c * rho.get(m, 0) for i, x in e.items()
                              for m, c in row[i].items())
                 for j, row in enumerate(comp.table)}, M)


def _verify_system(algebra, idempotents, block_dims):
    """Check that the verified central idempotents e_S sum to 1 and are
    orthogonal; raise PrecisionExceeded otherwise.

    Orthogonality is read off the block dimensions dim A e_S: since
    sum e_S = 1, A = sum A e_S, and the sum is direct exactly when the
    dimensions add up to dim A.  e_S e_T lies in both A e_S and A e_T, so
    a direct sum makes it 0; conversely orthogonal central idempotents
    split A into a direct sum.  No two idempotents are multiplied."""
    if combine((algebra.field.one, e) for e in idempotents) != algebra.unit:
        raise PrecisionExceeded("idempotents do not sum to the unit")
    if sum(block_dims) != algebra.dim:
        raise PrecisionExceeded("idempotents are not orthogonal")


# ---------------------------------------------------------------------------
# characters and canonical ordering
# ---------------------------------------------------------------------------


def central_primitive_idempotents(algebra, frobenius=None, prime=None):
    """Full decomposition: idempotents, degrees, characters, certification,
    in canonical block order (degree, then character sort key).

    Semisimplicity is certified up front by nondegeneracy of the regular
    trace form chi_reg (DegenerateForm carries a radical witness
    otherwise), whatever Frobenius structure is given; a given structure
    whose form is a nonzero multiple of chi_reg already certifies it."""
    field = algebra.field
    chi_reg = algebra.regular_character()
    scale = None if frobenius is None else _multiple(frobenius.lam, chi_reg)
    if scale is None:
        frobenius, scale = frobenius_structure(algebra, chi_reg), field.one

    def dual(v):
        # lambda = scale chi_reg, so chi_reg(x_j e) = v_j for
        # e = sum_j scale v_j y_j over the dual basis y_j of lambda
        return frobenius.dual_combination({j: scale * x
                                           for j, x in v.items()})

    idems, traces, blocks, p, prec = _raw_idempotents(algebra, dual, prime)
    degrees = [b.degree for b in blocks]
    center_dims = [b.center_dim for b in blocks]
    block_dims = []
    characters = []
    certified = []
    for e, v, b in zip(idems, traces, blocks):
        # dim A e = chi_reg(e), the trace of the projection x -> x e
        if algebra.apply_form(chi_reg, e) != field.from_rat(b.block_dim):
            raise PrecisionExceeded("exact block dimension disagrees with "
                                    "the modular one")
        block_dims.append(b.block_dim)
        # chi_S(x_j) = chi_reg(x_j e_S) / (d_S * center_dim_S)
        denom = field.from_rat(b.degree * b.center_dim)
        characters.append({j: x / denom for j, x in v.items()})
        if b.center_dim == 1 and b.degree > 1:
            certified.append(certify_split_block(algebra, e, b.degree))
        else:
            certified.append(b.center_dim == 1)
    _verify_system(algebra, idems, block_dims)

    zero = field.zero
    order = sorted(range(len(idems)),
                   key=lambda s: (degrees[s],
                                  [characters[s].get(j, zero).sort_key()
                                   for j in range(algebra.dim)]))
    idems, degrees, block_dims, center_dims, characters, certified = (
        [xs[s] for s in order] for xs in (idems, degrees, block_dims,
                                          center_dims, characters, certified))
    return WedderburnData(algebra, idems, degrees, block_dims, center_dims,
                          characters, certified, p, prec)


def _multiple(form, chi):
    """The nonzero scalar c with form = c chi, or None (chi is nonzero)."""
    i, x = next(iter(chi.items()))
    c = form.get(i, x.field.zero) / x
    if c and form == {k: c * x for k, x in chi.items()}:
        return c
    return None


# ---------------------------------------------------------------------------
# split certification
# ---------------------------------------------------------------------------


def certify_split_block(algebra, e, d):
    """Certify that the simple block B = A e of dim d^2 is a full matrix
    algebra over the base field K by a left ideal ker(R_b - t) of
    dimension d, for a block element b: if B = M_m(D) with dim_K D = s^2,
    then d = m s and every left ideal has a dimension divisible by d s
    (Ronyai, J. Symbolic Comput. 9, 1990).  That dimension is read off two
    polynomials of b (``_split_roots``), its minimal polynomial mu and its
    reduced characteristic polynomial P of degree d; no eigenspace is formed.
    - P(b) = 0, so mu divides P.
    - For y in B, chi_reg(y) = d trd(y), since e is central and L_y acts
      on B = M_d over an algebraic closure as y on d columns.  So P has
      the power sums p_k = chi_reg(b^k) / d (Newton's identities).
    - The multiplicity of t in P is the total size of the Jordan blocks
      of b at t, and in mu the size of the largest one.  So (P/mu)(t) != 0
      exactly when t has one Jordan block, that is geometric multiplicity
      1, that is dim ker(R_b - t) = d on B (R_b acts as b on the d rows).
      Rank does not depend on the field, so this holds over K.
    The candidates are those of ``_split_candidates``, each tried only
    once those before it have failed."""
    return any(ok for x in _split_candidates(algebra, e)
               for _, ok in _split_roots(algebra, e, d, x))


def _split_roots(algebra, e, d, x):
    """(t, (P/mu)(t) != 0) for each root t in the base field of the
    minimal polynomial mu of b = x e, in turn, with P the reduced
    characteristic polynomial of b (``certify_split_block``); mu is the
    Krylov relation among e, b, ..., b^d, where b^k = e x^k.  Independent
    powers, or mu not dividing P, only a table that is not associative
    allows: both raise PrecisionExceeded."""
    field = algebra.field
    powers = list(itertools.islice(iterates(
        lambda y: table_product(algebra.table, y, x), e), d + 1))
    mu = krylov_relation(field, algebra.dim, powers)
    if mu is None:
        raise PrecisionExceeded(f"e, b, ..., b^{d} are independent")
    # Newton's identities: P = sum_k a_k x^(d-k), a_0 = 1 and
    # k a_k = -sum_{i=1}^k a_(k-i) p_i with p_i = chi_reg(b^i) / d
    sums = [algebra.apply_form(algebra.regular_character(), y) / d
            for y in powers[1:]]
    a = [field.one]
    for k in range(1, d + 1):
        a.append(-sum((a[k - i] * sums[i - 1] for i in range(1, k + 1)),
                      field.zero) / k)
    quo, rem = poly_divmod(field, a[::-1], mu)
    if rem:
        raise PrecisionExceeded("the minimal polynomial of a block element "
                                "does not divide its characteristic one")
    for t in field_roots(field, mu):
        yield t, bool(poly_divmod(field, quo, [-t, field.one])[1])


def _split_candidates(algebra, e):
    """The elements x whose block elements b = x e a split certificate
    tries, in order, as sparse rows: the basis elements x_j with
    x_j e != 0 (for group algebras, duals and doubles the eigenvalues of
    x_j e are roots of unity in the base field), then, once all of those
    have failed, the echelon rows of the span of the x_j e and random
    combinations of them, which lie in the block, so that x e = x."""
    one, images = algebra.field.one, []
    for j in range(algebra.dim):
        images.append(table_product(algebra.table, {j: one}, e))
        if images[-1]:
            yield {j: one}
    basis = EchelonSubspace(algebra.field, algebra.dim, images).basis
    yield from basis
    rng = random.Random(1)
    for _ in range(RANDOM_CANDIDATES):
        yield combine((algebra.field.from_rat(rng.randrange(1, 5)), w)
                      for w in basis)


def field_roots(field, coeffs):
    """Roots in the cyclotomic base field of a polynomial with coefficients
    there (ascending list), found modularly and verified exactly.

    They are the simple roots of the monic squarefree part g of degree m,
    mod the first good prime p (``prime_search``, above 2 deg f, the
    conductor and 20) at which g stays squarefree in the first CRT
    component.  With D_g the common denominator of the g_i, y = D_g t is
    a root of the monic integral y^m + sum_i D_g^(m-i) g_i y^i, so
    (Cauchy) every conjugate of y is at most
    1 + max_i ||D_g^(m-i) g_i||_1.  Each root mod p is Newton-lifted once
    to the precision that bound asks for, recovered from that component
    alone (``reconstruct_element``), and kept if it is a root of g."""
    f = _trim(list(coeffs))
    if len(f) < 2:
        return []
    f = [c / f[-1] for c in f]
    # f / gcd(f, f'), monic as f is
    g = poly_divmod(field, f, poly_gcd(
        field, f, [i * c for i, c in enumerate(f)][1:]))[0]
    n = field.conductor
    den = _common_den(g)
    for p in prime_search(n, max(2 * len(f) - 1, 20), den):
        gp = _trim([reduce_scalar(c, component_root(n, p, 1), p) for c in g])
        if is_squarefree_mod(gp, p):
            break
    m = len(g) - 1
    bound = int(embedding_factor(n) * (1 + max(
        norm1(c, den ** (m - i)) for i, c in enumerate(g[:m]))))
    lattice = ideal_lattice(n, p, precision_for(field.phi, p, bound))
    M = lattice.modulus
    gw = [reduce_scalar(c, lattice.root, M) for c in g]
    out = []
    for r in roots_mod_p(gp, p, random.Random(len(f) - 1)):
        y = reconstruct_element(field, _mod({0: den * newton_lift(
            gw, r, p, M)}, M), lattice, bound, den)
        if y is None:
            continue
        t = y.get(0, field.zero)
        if not poly_divmod(field, g, [-t, field.one])[1]:
            out.append(t)
    return sorted(out, key=Cyc.sort_key)


# ---------------------------------------------------------------------------
# Casimir-side block invariants
# ---------------------------------------------------------------------------


def gamma_one_eigenvalue(frobenius, data: WedderburnData, s: int):
    """Scalar by which Gamma(1) acts on the s-th irreducible block."""
    val = data.algebra.apply_form(frobenius.gamma_one(), data.characters[s])
    return val / (data.degrees[s] * data.center_dims[s])
