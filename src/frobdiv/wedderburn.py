"""Characteristic-zero Wedderburn decomposition via modular splitting.

Every vector here is a sparse dict {index: nonzero scalar}: the
idempotents, the traces v and the characters, a residue vector as well.
The algebra is split mod a good prime p in every CRT component of the
cyclotomic base field, on residue vectors (``modular.modular_split``,
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
(e -> 3e^2 - 2e^3) to the one precision p^k > 2B, only when k > 1, and
D v is read off the reduced table in each component.  A gluing of one
block per component is interpolated and rejected unless its symmetric
residues lie within B; one that passes gives e = T^-1 v exactly through
the dual basis of chi_reg (T_jk = chi_reg(x_j x_k)), the characters
v / (d center_dim) and the block dimension chi_reg(e).

Such an e is screened modulo a second good prime q != p at every root of
the cyclotomic polynomial (rejected if e e != e there; a true idempotent
always passes) before the exact checks: e e = e on the integral table
(``is_idempotent``), central (at once when the table is commutative), the
block dimension, and for the system sum 1 and orthogonality, read off the
block dimensions.  The images x_j e are built only to certify blocks of
degree > 1, on sparse rows in the coordinates of A, each product read
off the table over the supports of its factors (``algebra.table_product``)
and each combination of rows, the shifted rows v b - t v and the random
candidates, formed by ``algebra.combine``.  The eigenvalues behind those
certificates come back the same way as the idempotents: ``field_roots``
glues D_g t for the roots t of g under a Cauchy bound.
"""

from __future__ import annotations

import itertools
import random

from .algebra import _common_den, combine, frobenius_structure, table_product
from .linalg import EchelonSubspace, Poly, iterates, krylov_relation
from .modular import (BadPrime, ComponentAlgebra, PrecisionExceeded, _mod,
                      _trim, bad_prime_reason, component_roots,
                      embedding_factor, good_primes, hensel_lift_idempotent,
                      is_squarefree_mod, modular_split, newton_lift, norm1,
                      precision_for, prime_search, product_mod,
                      reconstruct_element, reduce_scalar, roots_mod_p)
from .scalars import Cyc

FALLBACK_PRIMES = 3
# Random combinations of the block basis a split certificate tries last.
RANDOM_CANDIDATES = 12
# The idempotent filter's prime lies above this bound, so that it rarely
# divides a denominator of a spurious candidate.
CHECK_PRIME_LOWER = 1 << 20


class WedderburnData:
    """Central primitive idempotents with block invariants and characters.

    Blocks are in canonical order: by degree, then by the sort keys of the
    character's values on the whole basis.  The idempotents are sparse vectors
    and the characters sparse forms: ``characters[s][j]`` is the trace of x_j
    on the s-th irreducible, absent when 0 (for non-split blocks: the reduced
    trace, and ``split_certified[s]`` is False).  ``precision_used`` is the
    exponent k of the one precision p^k at which the blocks were glued.
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


def _check_components(algebra, p):
    """The algebra mod a second good prime q != p, one reduction per root
    of the cyclotomic polynomial mod q."""
    q = next(q for q in good_primes(algebra, lower=CHECK_PRIME_LOWER)
             if q != p)
    roots, _ = component_roots(algebra.field.conductor, q, 1)
    return [ComponentAlgebra(algebra, w, q) for w in roots]


def _idempotent_mod_q(algebra, e, check_comps):
    """False when e e != e in some reduction mod q, which proves e is not
    an idempotent.  A denominator divisible by q proves nothing: True."""
    for comp in check_comps:
        try:
            v = comp.reduce_vector(e)
        except BadPrime:
            return True
        if product_mod(comp.table, v, v, comp.M) != v:
            return False
    return True


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


def _split_components(algebra, p):
    """The reductions of the algebra mod p, one per CRT component in the
    order of ``component_roots``, and the modular blocks of each.  Equal
    reduced tables and units are one F_p-algebra, split once; the split's
    random choices depend on p only, so sharing changes no block."""
    roots_p, _ = component_roots(algebra.field.conductor, p, 1)
    comps = [ComponentAlgebra(algebra, w, p) for w in roots_p]
    splits = []
    per_comp_blocks = []
    for comp in comps:
        key = (comp.table, comp.unit)
        blocks = next((bl for k, bl in splits if k == key), None)
        if blocks is None:
            blocks = modular_split(comp)
            splits.append((key, blocks))
        per_comp_blocks.append(blocks)
    return comps, per_comp_blocks


def _idempotents_at_prime(algebra, dual, p):
    comps, per_comp_blocks = _split_components(algebra, p)
    counts = {len(bl) for bl in per_comp_blocks}
    if len(counts) != 1:
        raise BadPrime("component block counts disagree")

    invariant = lambda b: (b.degree, b.block_dim, b.center_dim)
    sigs = [sorted(invariant(b) for b in bl) for bl in per_comp_blocks]
    if any(s != sigs[0] for s in sigs[1:]):
        raise BadPrime("component block invariants disagree")

    glue = TraceGluing(algebra, dual, p, comps,
                       max(b.block_dim for b in per_comp_blocks[0]))
    used = [set() for _ in per_comp_blocks]
    idempotents = []
    traces = []
    blocks = []
    for b0 in per_comp_blocks[0]:
        found = next(filter(None, map(glue, _gluings(
            per_comp_blocks, b0, used, invariant))), None)
        if found is None:
            raise PrecisionExceeded(
                f"block of degree {b0.degree}: no gluing at p={p} passed "
                f"the bound {glue.bound} and the exact checks")
        choice, e, v = found
        for comp_idx, b in enumerate(choice):
            used[comp_idx].add(id(b))
        idempotents.append(e)
        traces.append(v)
        blocks.append(b0)

    return idempotents, traces, blocks, p, glue.exp


def _gluings(per_comp_blocks, b0, used, invariant):
    """Candidate choices of one block per component, component 0 fixed."""
    pools = [[b for b in blocks
              if invariant(b) == invariant(b0) and id(b) not in used[k]]
             for k, blocks in enumerate(per_comp_blocks[1:], 1)]
    return itertools.product([b0], *pools)


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


class TraceGluing:
    """Gluing of mod-p blocks, one per CRT component, through their
    regular traces at the one precision p^exp > 2 bound.  A call takes a
    choice of blocks and returns (choice, e, v) when the glued traces v lie
    within the bound and e = ``dual(v)`` passes the screen mod q and the
    exact check; None otherwise."""

    def __init__(self, algebra, dual, p, comps, block_dim):
        self.algebra = algebra
        self.dual = dual
        self.den, self.bound = _trace_bound(algebra, block_dim)
        self.exp = precision_for(p, self.bound)
        self.roots, self.M = component_roots(algebra.field.conductor, p,
                                             self.exp)
        if self.exp > 1:
            comps = [ComponentAlgebra(algebra, w, self.M)
                     for w in self.roots]
        self.comps = comps
        chi_reg = algebra.regular_character()
        self.rhos = [comp.reduce_vector(chi_reg) for comp in comps]
        self.check_comps = _check_components(algebra, p)
        self.traces = {}

    def trace(self, k, block):
        """D chi_reg(x_j e) mod p^exp for the block's idempotent e lifted in
        component k, read off its sparse table as
        sum_i e_i sum_m c_ji^m chi_reg(x_m); once per block and component,
        for all the gluings it is tried in."""
        key = (k, id(block))
        if key not in self.traces:
            comp, M, rho = self.comps[k], self.M, self.rhos[k]
            e, exp = block.central_idempotent, 1
            while exp < self.exp:
                e = hensel_lift_idempotent(comp, e, M)
                exp *= 2
            self.traces[key] = _mod({
                j: self.den * sum(x * c * rho.get(m, 0) for i, x in e.items()
                                  for m, c in row[i].items())
                for j, row in enumerate(comp.table)}, M)
        return self.traces[key]

    def __call__(self, choice):
        algebra = self.algebra
        v = reconstruct_element(
            algebra.field, [self.trace(k, b) for k, b in enumerate(choice)],
            self.roots, self.M, self.bound, self.den)
        if v is None:
            return None
        e = self.dual(v)
        if not (_idempotent_mod_q(algebra, e, self.check_comps)
                and _verify_idempotent(algebra, e)):
            return None
        return choice, e, v


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
    """Certify that the simple block B = A e is a full matrix algebra over
    the base field by exhibiting a left ideal of dimension d, where
    d^2 = dim B.

    The ideal is an eigenspace of right multiplication R_b by a block
    element b: ker(R_b - t) is a left ideal for any t.  If B = M_m(D) with
    dim_k(D) = s^2, then d = m s and every left ideal has a dimension
    divisible by m s^2 = d s, so one of dimension exactly d forces D = k,
    whatever the degree of the minimal polynomial of R_b (Ronyai, J.
    Symbolic Comput. 9, 1990).  All of it is computed in the coordinates
    of A, on sparse rows: each product is read off the table over the
    supports of its factors (``algebra.table_product``).

    The images x_j e are tried first: for group algebras, duals and
    doubles their eigenvalues are roots of unity in the base field.  Then
    the echelon basis, then random combinations.  Each candidate is built
    only once those before it have failed.
    """
    images = [table_product(algebra.table, {j: algebra.field.one}, e)
              for j in range(algebra.dim)]
    block = EchelonSubspace(algebra.field, algebra.dim, images)
    if block.dim != d * d:
        return False
    for b in _split_candidates(algebra, images, block):
        if any(dim == d for _, dim in _eigenspaces(algebra, e, block, b)):
            return True
    return False


def _block_minimal_polynomial(algebra, e, b):
    """The minimal polynomial of R_b on B = A e, which is that of b in B
    (p(R_b) = R_p(b), and x p(b) = 0 on B forces p(b) = e p(b) = 0): the
    Krylov relation among e, b, b^2, ... (sparse rows)."""
    return krylov_relation(algebra.field, algebra.dim, iterates(
        lambda x: table_product(algebra.table, x, b), e))


def _eigenspaces(algebra, e, block, b):
    """(t, dim ker(R_b - t)) for each root t of the minimal polynomial in
    the base field, in turn: dim B less the rank of the v b - t v over the
    echelon rows v of B.  The products v b are formed once a root exists.
    e and b are sparse rows."""
    field = algebra.field
    roots = field_roots(field, _block_minimal_polynomial(algebra, e, b).coeffs)
    if not roots:
        return
    basis = block.basis
    products = [table_product(algebra.table, v, b) for v in basis]
    if any(block.reduce(vb) for vb in products):
        raise PrecisionExceeded("block not closed under multiplication")
    for t in roots:
        shifted = (combine([(1, vb), (-t, v)])
                   for vb, v in zip(products, basis))
        yield t, block.dim - EchelonSubspace(field, algebra.dim, shifted).dim


def _split_candidates(algebra, images, block):
    """The block elements b a split certificate tries, in order, as sparse
    rows: the nonzero images x_j e, the echelon rows of the block, then
    random combinations of them."""
    yield from (v for v in images if v)
    basis = block.basis
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
    conductor and 20) at which g stays squarefree in every component.  With D_g the common denominator of the g_i,
    y = D_g t is a root of the monic integral y^m + sum_i D_g^(m-i) g_i y^i,
    so (Cauchy) every conjugate of y is at most
    1 + max_i ||D_g^(m-i) g_i||_1.  Each root mod p is Newton-lifted once
    to the precision that bound asks for, and each choice of one root per
    component within the bound is kept if it is a root of g."""
    f = Poly(field, coeffs)
    if f.degree() < 1:
        return []
    g = (f // f.gcd(f.derivative())).monic()
    n = field.conductor
    den = _common_den(g.coeffs)
    rng = random.Random(f.degree())
    for p in prime_search(n, max(2 * f.degree() + 1, 20), den):
        comp_roots = _simple_roots_mod_p(field, g, p, rng)
        if comp_roots is not None:
            break
    m = g.degree()
    bound = int(embedding_factor(n) * (1 + max(
        norm1(c, den ** (m - i)) for i, c in enumerate(g.coeffs[:m]))))
    exp = precision_for(p, bound)
    roots, M = component_roots(n, p, exp)
    lifted = []
    for w, ts in zip(roots, comp_roots):
        gw = [reduce_scalar(c, w, M) for c in g.coeffs]
        lifted.append([den * newton_lift(gw, t, p, M) % M for t in ts])
    out = []
    for choice in itertools.product(*lifted):
        y = reconstruct_element(field, [{0: r} for r in choice], roots, M,
                                bound, den)
        t = None if y is None else y.get(0, field.zero)
        if t is not None and not g(t):
            out.append(t)
    return sorted(out, key=Cyc.sort_key)


def _simple_roots_mod_p(field, g, p, rng):
    """The roots of the monic g mod p in each CRT component; None if g is
    not squarefree mod p in some component."""
    out = []
    for w in component_roots(field.conductor, p, 1)[0]:
        gw = _trim([reduce_scalar(c, w, p) for c in g.coeffs])
        if not is_squarefree_mod(gw, p):
            return None
        out.append(roots_mod_p(gw, p, rng))
    return out


# ---------------------------------------------------------------------------
# Casimir-side block invariants
# ---------------------------------------------------------------------------


def gamma_one_eigenvalue(frobenius, data: WedderburnData, s: int):
    """Scalar by which Gamma(1) acts on the s-th irreducible block."""
    val = data.algebra.apply_form(frobenius.gamma_one(), data.characters[s])
    return val / (data.degrees[s] * data.center_dims[s])
