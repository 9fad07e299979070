"""Characteristic-zero Wedderburn decomposition via modular splitting.

The algebra is split mod a good prime in every CRT component of the
cyclotomic base field.  Each gluing of one block per component is brought
back along the one lifting path of ``modular.lift_and_reconstruct``, with
Hensel's step e -> 3e^2 - 2e^3, and verified by exact arithmetic.  The
eigenvalues behind split certificates come back along the same path:
``field_roots`` lifts the roots mod p of a polynomial by Newton's step.

A wrong gluing either fails reconstruction or reconstructs to small
rationals that are not an idempotent.  Such a candidate is first reduced
modulo a second good prime q != p at every root of the cyclotomic
polynomial and rejected there if e e != e; the reduction is a ring map, so
a true idempotent always passes.  Only candidates that pass reach the
exact, dense check, which stays the correctness filter.

Each block A e is built once, as the images x_j e and their span, and
dropped before the next.  The characters, the split certificates and the
system check all read it: chi_S(x_j) is chi_reg(x_j e_S) up to a scalar,
the images are the first candidates of a certificate, and the idempotents
are orthogonal exactly when the block dimensions add up to dim A (no two
idempotents are multiplied).
"""

from __future__ import annotations

import functools
import itertools
import random

from .algebra import frobenius_structure
from .linalg import EchelonSubspace, Matrix, Poly, sparse
from .modular import (BadPrime, ComponentAlgebra, LiftMemo,
                      PrecisionExceeded, _int_poly_eval, component_roots,
                      good_primes, hensel_lift_idempotent, is_prime,
                      lift_and_reconstruct, modular_split, reduce_scalar,
                      roots_mod_p, scalar_denominators,
                      structure_denominators)
from .scalars import PrimeField, Rat

MAX_PRECISION_EXP = 64
ROOT_PRECISION_EXP = 32
FALLBACK_PRIMES = 3
# The idempotent filter's prime lies above this bound, so that it rarely
# divides a denominator of a spurious reconstruction (those are small).
CHECK_PRIME_LOWER = 1 << 20


class SplitUncertified(Exception):
    """Central data verified but no split certificate could be produced."""


class WedderburnData:
    """Central primitive idempotents with block invariants and characters.

    Blocks are in canonical order: by degree, then by the sort key of the
    character vector.  ``characters[s][j]`` is the trace of x_j on the s-th
    irreducible (for non-split blocks: the reduced trace, and
    ``split_certified[s]`` is False).
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
    if algebra.multiply(e, e) != e:
        return False
    return algebra.is_central(e)


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
        if comp.multiply(v, v) != v:
            return False
    return True


def _raw_idempotents(algebra, prime=None, seed=0):
    """Central primitive idempotents over the algebra's cyclotomic base
    field, plus per-block modular invariants.

    Returns (idempotents, blocks, prime, precision_exp) where blocks is a
    list of ModularBlock records aligned with the idempotents.
    """
    if prime is not None:
        _check_explicit_prime(algebra, prime)
        primes = [prime]
    else:
        primes = list(itertools.islice(good_primes(algebra), FALLBACK_PRIMES))
    last_err = None
    for p in primes:
        try:
            return _idempotents_at_prime(algebra, p, seed)
        except (BadPrime, PrecisionExceeded) as err:
            last_err = err
            continue
    raise PrecisionExceeded(
        f"no prime in {primes} yielded verified idempotents: {last_err}")


def _check_explicit_prime(algebra, p):
    """Apply the good-prime policy to a user-supplied prime."""
    if not is_prime(p):
        raise BadPrime(f"{p} is not prime")
    n = algebra.field.conductor
    if p % n != 1 % n:
        raise BadPrime(f"{p} is not 1 mod the conductor {n}")
    if p <= 2 * algebra.dim:
        raise BadPrime(f"{p} is not greater than twice the dimension")
    if algebra.dim % p == 0:
        raise BadPrime(f"{p} divides the dimension")
    if any(d % p == 0 for d in structure_denominators(algebra)):
        raise BadPrime(f"{p} divides a structure-constant denominator")


def _split_components(algebra, p, seed):
    """The modular blocks of every CRT component mod p, in the order of
    ``component_roots``.  Components with the same reduced table and unit
    are the same F_p-algebra: it is split once, and they share its block
    list.  The split's random choices depend on (seed, p) only, so sharing
    changes no block."""
    roots_p, _ = component_roots(algebra.field.conductor, p, 1)
    splits = []
    per_comp_blocks = []
    for w in roots_p:
        comp = ComponentAlgebra(algebra, w, p)
        key = (comp.table, comp.unit)
        blocks = next((bl for k, bl in splits if k == key), None)
        if blocks is None:
            blocks = modular_split(algebra, p, w, seed)
            splits.append((key, blocks))
        per_comp_blocks.append(blocks)
    return per_comp_blocks


def _idempotents_at_prime(algebra, p, seed):
    per_comp_blocks = _split_components(algebra, p, seed)
    counts = {len(bl) for bl in per_comp_blocks}
    if len(counts) != 1:
        raise BadPrime("component block counts disagree")

    invariant = lambda b: (b.degree, b.block_dim, b.center_dim)
    sigs = [sorted(invariant(b) for b in bl) for bl in per_comp_blocks]
    if any(s != sigs[0] for s in sigs[1:]):
        raise BadPrime("component block invariants disagree")

    used = [set() for _ in per_comp_blocks]
    idempotents = []
    blocks = []
    precision_used = 1
    lift = _idempotent_lift(algebra, p, _check_components(algebra, p))
    for b0 in per_comp_blocks[0]:
        found = None
        for choice in _gluings(per_comp_blocks, b0, used, invariant):
            res = lift([b.central_idempotent for b in choice])
            if res is not None:
                found = (choice,) + res
                break
        if found is None:
            raise PrecisionExceeded(
                f"block of degree {b0.degree}: no gluing reconstructed at "
                f"p={p} up to precision p^{MAX_PRECISION_EXP}")
        choice, e, prec = found
        precision_used = max(precision_used, prec)
        for comp_idx, b in enumerate(choice):
            used[comp_idx].add(id(b))
        idempotents.append(e)
        blocks.append(b0)

    return idempotents, blocks, p, precision_used


def _gluings(per_comp_blocks, b0, used, invariant):
    """Candidate choices of one block per component, component 0 fixed."""
    pools = [[b for b in blocks
              if invariant(b) == invariant(b0) and id(b) not in used[k]]
             for k, blocks in enumerate(per_comp_blocks[1:], 1)]
    return itertools.product([b0], *pools)


def _idempotent_lift(algebra, p, check_comps):
    """The lift of one gluing: a function that takes the mod-p central
    idempotents of the chosen blocks, one per component, and returns
    (e, exp) for the first reconstruction e at precision p^exp that
    passes the check mod q and the exact check, or None.  Spurious
    reconstructions (wrong gluings, or too little precision) are rejected
    and lifting continues.  Each component's lifts are computed once for
    all gluings, and dropped once a gluing of the block is accepted."""
    field = algebra.field

    @functools.lru_cache(maxsize=None)
    def components(exp):
        roots, M = component_roots(field.conductor, p, exp)
        return [ComponentAlgebra(algebra, w, M) for w in roots]

    def hensel(k, e, exp):
        comp = components(exp)[k]
        return hensel_lift_idempotent(comp, e, comp.M)

    step = LiftMemo(hensel)

    def accept(e):
        return (_idempotent_mod_q(algebra, e, check_comps)
                and _verify_idempotent(algebra, e))

    def lift(idems):
        res = lift_and_reconstruct(field, p, idems, step, accept,
                                   MAX_PRECISION_EXP)
        if res is not None:  # the blocks are used: no gluing tries them again
            for k, e in enumerate(idems):
                step.forget(k, e)
        return res

    return lift


def _verify_system(algebra, idempotents, block_dims):
    """Check that the verified central idempotents e_S sum to 1 and are
    orthogonal; raise PrecisionExceeded otherwise.

    Orthogonality is read off the block dimensions dim A e_S: since
    sum e_S = 1, A = sum A e_S, and the sum is direct exactly when the
    dimensions add up to dim A.  e_S e_T lies in both A e_S and A e_T, so
    a direct sum makes it 0; conversely orthogonal central idempotents
    split A into a direct sum.  No two idempotents are multiplied."""
    total = algebra.zero_vec()
    for e in idempotents:
        total = [a + b for a, b in zip(total, e)]
    if total != algebra.unit:
        raise PrecisionExceeded("idempotents do not sum to the unit")
    if sum(block_dims) != algebra.dim:
        raise PrecisionExceeded("idempotents are not orthogonal")


# ---------------------------------------------------------------------------
# characters and canonical ordering
# ---------------------------------------------------------------------------


def central_primitive_idempotents(algebra, frobenius=None, prime=None,
                                  seed=0):
    """Full decomposition: idempotents, degrees, characters, certification,
    in canonical block order (degree, then character sort key).

    Semisimplicity is certified up front by nondegeneracy of the regular
    trace form chi_reg (DegenerateForm carries a radical witness
    otherwise), whatever Frobenius structure is given; a given structure
    whose form is a nonzero multiple of chi_reg already certifies it."""
    chi_reg = algebra.regular_character()
    if frobenius is None or not _is_multiple(frobenius.lam, chi_reg):
        frobenius_structure(algebra, chi_reg)
    idems, blocks, p, prec = _raw_idempotents(algebra, prime=prime, seed=seed)
    field = algebra.field
    degrees = [b.degree for b in blocks]
    center_dims = [b.center_dim for b in blocks]
    block_dims = []
    characters = []
    certified = []
    for e, b in zip(idems, blocks):
        # the block A e: the images x_j e and their span
        images = [algebra.multiply(algebra.basis_vec(j), e)
                  for j in range(algebra.dim)]
        span = EchelonSubspace(field, algebra.dim, map(sparse, images))
        if span.dim != b.block_dim:
            raise PrecisionExceeded("exact block dimension disagrees with "
                                    "the modular one")
        block_dims.append(span.dim)
        # chi_S(x_j) = chi_reg(x_j e_S) / (d_S * center_dim_S)
        denom = field.from_rat(Rat(b.degree * b.center_dim))
        characters.append([algebra.apply_form(chi_reg, v) / denom
                           for v in images])
        certified.append(b.center_dim == 1
                         and certify_split_block(algebra, span, images,
                                                 b.degree, seed=seed))
    _verify_system(algebra, idems, block_dims)

    order = sorted(range(len(idems)),
                   key=lambda s: (degrees[s],
                                  [field.sort_key(c) for c in characters[s]]))
    idems = [idems[s] for s in order]
    degrees = [degrees[s] for s in order]
    center_dims = [center_dims[s] for s in order]
    block_dims = [block_dims[s] for s in order]
    characters = [characters[s] for s in order]
    certified = [certified[s] for s in order]

    return WedderburnData(algebra, idems, degrees, block_dims, center_dims,
                          characters, certified, p, prec)


def _is_multiple(form, chi):
    """Whether form = c chi for a nonzero scalar c (chi is nonzero)."""
    i = next(i for i, x in enumerate(chi) if x)
    c = form[i] / chi[i]
    return bool(c) and all(f == c * x for f, x in zip(form, chi))


def irreducible_characters(algebra, data: WedderburnData | None = None,
                           **kwargs):
    """Characters in canonical order; verifies chi_S(1) = d(S) and
    chi_S(e(T)) = delta_{S,T} d(S) on split-certified blocks."""
    if data is None:
        data = central_primitive_idempotents(algebra, **kwargs)
    field = algebra.field
    for s, chi in enumerate(data.characters):
        if not data.split_certified[s]:
            continue
        d = field.from_rat(Rat(data.degrees[s]))
        if _eval_form(field, chi, algebra.unit) != d:
            raise SplitUncertified(f"chi_{s}(1) != d({s})")
        for t, e in enumerate(data.idempotents):
            want = d if t == s else field.zero
            if _eval_form(field, chi, e) != want:
                raise SplitUncertified(f"chi_{s}(e({t})) wrong")
    return data.characters


def _eval_form(field, form, vec):
    val = field.zero
    for c, v in zip(form, vec):
        val = val + c * v
    return val


# ---------------------------------------------------------------------------
# split certification
# ---------------------------------------------------------------------------


def certify_split_block(algebra, block, images, d, seed=0, tries=12):
    """Certify that a simple block B = A e is a full matrix algebra over
    the base field by exhibiting a left ideal of dimension d, where
    d^2 = dim B.  ``images`` are the products x_j e and ``block`` their
    span.

    The ideal is an eigenspace of right multiplication by a block element
    b: ker(R_b - t) is a left ideal for any t.  If B = M_m(D) with
    dim_k(D) = s^2, then d = m s and every left ideal has a dimension
    divisible by m s^2 = d s, so one of dimension exactly d forces D = k,
    whatever the degree of the minimal polynomial of R_b.

    The images x_j e are tried first: for group algebras, duals and
    doubles their eigenvalues are roots of unity in the base field.  Then
    the echelon basis, then random combinations.  Each candidate is built
    only once those before it have failed.
    """
    field = algebra.field
    bd = block.dim
    if bd != d * d:
        return False
    if d == 1:
        return True
    block_basis = block.basis

    def candidates():
        yield from (v for v in images if any(bool(c) for c in v))
        yield from block_basis
        rng = random.Random(seed * 7 + 1)
        for _ in range(tries):
            v = algebra.zero_vec()
            for w in block_basis:
                c = field.from_rat(Rat(rng.randrange(1, 5)))
                v = [a + c * b for a, b in zip(v, w)]
            yield v

    for b in candidates():
        mat = _restricted_right_mult(algebra, block, block_basis, b)
        minpoly = mat.minimal_polynomial()
        for t in field_roots(field, minpoly.coeffs):
            shifted = mat - Matrix.identity(field, bd).scale(t)
            if len(shifted.kernel()) == d:
                return True
    return False


def _restricted_right_mult(algebra, block, block_basis, b):
    cols = []
    for v in block_basis:
        coords = block.coords(algebra.multiply(v, b))
        if coords is None:
            raise PrecisionExceeded("block not closed under multiplication")
        cols.append(coords)
    return Matrix.from_columns(algebra.field, cols)


def field_roots(field, coeffs, seed=0):
    """Roots in the cyclotomic base field of a polynomial with coefficients
    there (ascending list), found modularly and verified exactly.

    They are the roots of the squarefree part g = f / gcd(f, f'), which are
    simple, so Newton's step lifts them.  The prime used is the first good
    prime p = 1 (mod n) at which g stays squarefree in every CRT component;
    every choice of one root of g mod p per component is lifted along
    ``lift_and_reconstruct`` to its first reconstruction, which is kept if
    it is a root of g."""
    f = Poly(field, coeffs)
    if f.degree() < 1:
        return []
    g = (f // f.gcd(f.derivative())).monic()
    n = field.conductor
    dens = scalar_denominators(g.coeffs)
    rng = random.Random(seed * 131 + f.degree())
    p = max(2 * f.degree() + 1, n, 20)
    while True:
        p += 1
        if (p % n != 1 % n or not is_prime(p)
                or any(d % p == 0 for d in dens)):
            continue
        comp_roots = _simple_roots_mod_p(field, g, p, rng)
        if comp_roots is not None:
            break
    roots = _lift_roots(field, g, p, comp_roots)
    return sorted(set(roots), key=field.sort_key)


def _simple_roots_mod_p(field, g, p, rng):
    """The roots of the monic g mod p in each CRT component; None if g is
    not squarefree mod p in some component."""
    gf = PrimeField(p)
    out = []
    for w in component_roots(field.conductor, p, 1)[0]:
        gw = Poly.from_ints(gf, [reduce_scalar(c, w, p) for c in g.coeffs])
        if gw.gcd(gw.derivative()).degree() > 0:
            return None
        out.append(roots_mod_p(gw, p, rng))
    return out


def _lift_roots(field, g, p, comp_roots):
    """The roots of g in the field among the lifts of every choice of one
    simple root mod p per component.  Each root is lifted once for all
    the choices it is part of."""

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

    # A lift ends at its first reconstruction, kept if it is a root: most
    # choices are wrong, and lifting those on after a chance reconstruction
    # costs more than it finds.
    out = []
    for choice in itertools.product(*comp_roots):
        res = lift_and_reconstruct(field, p, [[t] for t in choice], step,
                                   lambda x: True, ROOT_PRECISION_EXP)
        if res is not None and not g(res[0][0]):
            out.append(res[0][0])
    return out


# ---------------------------------------------------------------------------
# Casimir-side block invariants
# ---------------------------------------------------------------------------


def gamma_one_eigenvalue(frobenius, data: WedderburnData, s: int):
    """Scalar by which Gamma(1) acts on the s-th irreducible block."""
    algebra = data.algebra
    field = algebra.field
    g1 = frobenius.gamma_one()
    chi = data.characters[s]
    val = field.zero
    for c, x in zip(g1, chi):
        val = val + c * x
    denom = field.from_rat(Rat(data.degrees[s] * data.center_dims[s]))
    return val / denom


def verify_cprid_formula(frobenius, data: WedderburnData):
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
        left = [field.zero] * n
        right = [field.zero] * n
        for j in range(n):
            cj = chi[j]
            if bool(cj):
                base = j * n
                for r in range(n):
                    left[r] = left[r] + cj * cas[base + r]
                    right[r] = right[r] + cj * cas[r * n + j]
        d = field.from_rat(Rat(data.degrees[s]))
        out.append(lhs == [d * v for v in left]
                   and lhs == [d * v for v in right])
    return out


def casimir_square_components(frobenius, data: WedderburnData,
                              check=True):
    """Block components of c and c^2 as scalars.

    Returns (c_components, csq_components): matrices indexed by block pairs,
    with entry (S, T) = (chi_S (x) chi_T)((e_S (x) e_T) z) / (d_S d_T) for
    z = c and z = c^2.  Since e_S is a central idempotent and
    chi_S(a) = chi_S(a e_S), that is (chi_S (x) chi_T)(z) / (d_S d_T): no
    product in A (x) A is formed.

    With check=True also asserts the off-diagonal vanishing of c, the
    diagonal formula d(S)^2 (c^2)_{S,S} = Gamma(1)_S^2, and the element
    identity c^2 = (Gamma (x) Id)(c) in A (x) A.
    """
    algebra = data.algebra
    field = algebra.field
    n = algebra.dim
    from .algebra import AlgebraError
    c = frobenius.casimir
    csq = frobenius.casimir_times(c)

    def component(z, s, t):
        chi_s, chi_t = data.characters[s], data.characters[t]
        val = field.zero
        for i in range(n):
            if not bool(chi_s[i]):
                continue
            row = chi_s[i]
            base = i * n
            for j in range(n):
                zij = z[base + j]
                if bool(zij):
                    val = val + row * chi_t[j] * zij
        denom = field.from_rat(Rat(data.degrees[s] * data.degrees[t]))
        return val / denom

    r = data.num_blocks
    c_mat = [[component(c, s, t) for t in range(r)] for s in range(r)]
    csq_mat = [[component(csq, s, t) for t in range(r)] for s in range(r)]
    if check:
        for s in range(r):
            for t in range(r):
                if s != t and bool(c_mat[s][t]):
                    raise AlgebraError(f"casimir has off-diagonal component "
                                       f"({s},{t})")
            d2 = field.from_rat(Rat(data.degrees[s] ** 2))
            g = gamma_one_eigenvalue(frobenius, data, s)
            if d2 * csq_mat[s][s] != g * g:
                raise AlgebraError(f"casimir square diagonal fails at "
                                   f"block {s}")
        # c^2 = (Gamma (x) Id)(c) as an element identity
        gamma_c = [field.zero] * (n * n)
        for i in range(n):
            row = c[i * n:(i + 1) * n]
            if not any(bool(x) for x in row):
                continue
            gi = frobenius.casimir_trace(algebra.basis_vec(i))
            for rr in range(n):
                if bool(gi[rr]):
                    for j in range(n):
                        if bool(row[j]):
                            gamma_c[rr * n + j] = (gamma_c[rr * n + j]
                                                   + gi[rr] * row[j])
        if gamma_c != csq:
            raise AlgebraError("c^2 != (Gamma (x) Id)(c)")
    return c_mat, csq_mat
