"""Characteristic-zero Wedderburn decomposition via modular splitting.

The algebra is split mod a good prime in every CRT component of the
cyclotomic base field, the central primitive idempotents are Hensel-lifted
to increasing p-power precision, glued across components by interpolation,
rationally reconstructed, and finally verified by exact arithmetic.

A wrong gluing either fails reconstruction or reconstructs to small
rationals that are not an idempotent.  Such a candidate is first reduced
modulo a second good prime q != p at every root of the cyclotomic
polynomial and rejected there if e e != e; the reduction is a ring map, so
a true idempotent always passes.  Only candidates that pass reach the
exact, dense check, which stays the correctness filter.
"""

from __future__ import annotations

import math
import random

from .algebra import contract_right, hit_form_left
from .linalg import Matrix, Poly
from .modular import (BadPrime, ComponentAlgebra, EchelonSubspace,
                      PrecisionExceeded, _int_poly_eval, component_units,
                      good_primes, hensel_lift_idempotent, interpolate_mod,
                      is_prime, lift_cyclotomic_root, modular_split,
                      primitive_root, reconstruct_element, reduce_scalar,
                      roots_mod_p, scalar_denominators)
from .scalars import PrimeField, Rat

MAX_PRECISION_EXP = 64
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


def _component_roots(n, p, exp):
    """Lifted primitive n-th roots mod p^exp, one per CRT component."""
    M = p ** exp
    z = lift_cyclotomic_root(n, p, M)
    return [pow(z, u, M) for u in component_units(n)], M


def _verify_idempotent(algebra, e):
    if algebra.multiply(e, e) != e:
        return False
    return algebra.is_central(e)


def _check_components(algebra, p):
    """The algebra mod a second good prime q != p, one reduction per root
    of the cyclotomic polynomial mod q."""
    q = next(q for q in good_primes(algebra, lower=CHECK_PRIME_LOWER)
             if q != p)
    roots, _ = _component_roots(algebra.field.conductor, q, 1)
    return [ComponentAlgebra(algebra, w, q) for w in roots]


def _idempotent_mod_q(algebra, e, check_comps):
    """False when e e != e in some reduction mod q, which proves e is not
    an idempotent.  A denominator divisible by q proves nothing: True."""
    for comp in check_comps:
        try:
            v = comp.reduce_vector(algebra, e)
        except BadPrime:
            return True
        if comp.multiply(v, v) != v:
            return False
    return True


def _raw_idempotents(algebra, prime=None, seed=0,
                     max_precision_exp=MAX_PRECISION_EXP):
    """Central primitive idempotents over the algebra's cyclotomic base
    field, plus per-block modular invariants.

    Returns (idempotents, blocks, prime, precision_exp) where blocks is a
    list of ModularBlock records aligned with the idempotents.
    """
    if prime is not None:
        _check_explicit_prime(algebra, prime)
        primes = [prime]
    else:
        primes = _take(good_primes(algebra), FALLBACK_PRIMES)
    last_err = None
    for p in primes:
        try:
            return _idempotents_at_prime(algebra, p, seed, max_precision_exp)
        except (BadPrime, PrecisionExceeded) as err:
            last_err = err
            continue
    raise PrecisionExceeded(
        f"no prime in {primes} yielded verified idempotents: {last_err}")


def _take(gen, k):
    return [next(gen) for _ in range(k)]


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
    scalars = [c for i in range(algebra.dim) for j in range(algebra.dim)
               for c in algebra.table[i][j].values()]
    scalars.extend(algebra.unit)
    if any(d % p == 0 for d in scalar_denominators(algebra.field, scalars)):
        raise BadPrime(f"{p} divides a structure-constant denominator")


def _idempotents_at_prime(algebra, p, seed, max_precision_exp):
    field = algebra.field
    n = field.conductor
    units = component_units(n)
    roots_p, _ = _component_roots(n, p, 1)

    per_comp_blocks = [modular_split(algebra, p, w, seed) for w in roots_p]
    counts = {len(bl) for bl in per_comp_blocks}
    if len(counts) != 1:
        raise BadPrime("component block counts disagree")
    r = counts.pop()

    invariant = lambda b: (b.degree, b.block_dim, b.center_dim)
    sigs = [sorted(invariant(b) for b in bl) for bl in per_comp_blocks]
    if any(s != sigs[0] for s in sigs[1:]):
        raise BadPrime("component block invariants disagree")

    used = [set() for _ in per_comp_blocks]
    idempotents = []
    blocks = []
    precision_used = 1
    level_cache = {}
    check_comps = _check_components(algebra, p)
    for b0 in per_comp_blocks[0]:
        found = None
        for choice in _gluings(per_comp_blocks, b0, used, invariant):
            res = _lift_and_reconstruct(
                algebra, p, [b.central_idempotent for b in choice],
                max_precision_exp, level_cache, check_comps)
            if res is not None:
                found = (choice,) + res
                break
        if found is None:
            raise PrecisionExceeded(
                f"block of degree {b0.degree}: no gluing reconstructed at "
                f"p={p} up to precision p^{max_precision_exp}")
        choice, e, prec = found
        precision_used = max(precision_used, prec)
        for comp_idx, b in enumerate(choice):
            used[comp_idx].add(id(b))
        idempotents.append(e)
        blocks.append(b0)

    _verify_system(algebra, idempotents)
    return idempotents, blocks, p, precision_used


def _gluings(per_comp_blocks, b0, used, invariant):
    """Candidate choices of one block per component, component 0 fixed."""
    pools = [[b0]]
    for comp_idx in range(1, len(per_comp_blocks)):
        pool = [b for b in per_comp_blocks[comp_idx]
                if invariant(b) == invariant(b0)
                and id(b) not in used[comp_idx]]
        pools.append(pool)
    def rec(i):
        if i == len(pools):
            yield []
            return
        for b in pools[i]:
            for rest in rec(i + 1):
                yield [b] + rest
    return rec(0)


def _lift_and_reconstruct(algebra, p, comp_idems, max_precision_exp,
                          level_cache, check_comps):
    """Lift one gluing through the precision ladder until a reconstruction
    passes exact verification.  Spurious reconstructions (wrong gluings,
    or too little precision) are rejected mod q or by the exact check, and
    lifting continues."""
    field = algebra.field
    n = field.conductor
    exp = 1
    current = [list(e) for e in comp_idems]
    while exp <= max_precision_exp:
        if exp not in level_cache:
            roots, M = _component_roots(n, p, exp)
            comps = ([ComponentAlgebra(algebra, w, M) for w in roots]
                     if exp > 1 else None)
            level_cache[exp] = (roots, M, comps)
        roots, M, comps = level_cache[exp]
        if exp > 1:
            current = [hensel_lift_idempotent(c, e, M)
                       for c, e in zip(comps, current)]
        out = reconstruct_element(field, current, roots, M, p)
        if (out is not None and _idempotent_mod_q(algebra, out, check_comps)
                and _verify_idempotent(algebra, out)):
            return out, exp
        exp *= 2
    return None


def _verify_system(algebra, idempotents):
    total = algebra.zero_vec()
    for e in idempotents:
        total = [a + b for a, b in zip(total, e)]
    if total != algebra.unit:
        raise PrecisionExceeded("idempotents do not sum to the unit")
    for i, e in enumerate(idempotents):
        for f in idempotents[i + 1:]:
            if any(c for c in algebra.multiply(e, f)):
                raise PrecisionExceeded("idempotents are not orthogonal")


# ---------------------------------------------------------------------------
# characters and canonical ordering
# ---------------------------------------------------------------------------


def _block_characters(algebra, idempotents, degrees, center_dims):
    """chi_S(x_j) = chi_reg(x_j e_S) / (d_S * center_dim_S)."""
    chi_reg = algebra.regular_character()
    field = algebra.field
    out = []
    for e, d, cd in zip(idempotents, degrees, center_dims):
        denom = field.from_rat(Rat(d * cd))
        vals = hit_form_left(algebra, e, chi_reg)
        out.append([v / denom for v in vals])
    return out


def central_primitive_idempotents(algebra, frobenius=None, prime=None, seed=0,
                                  max_precision_exp=MAX_PRECISION_EXP,
                                  certify=True):
    """Full decomposition: idempotents, degrees, characters, certification,
    in canonical block order (degree, then character sort key).

    Semisimplicity is certified up front by nondegeneracy of the regular
    trace form (DegenerateForm carries a radical witness otherwise)."""
    if frobenius is None:
        from .algebra import frobenius_structure, regular_character_form
        frobenius_structure(algebra, regular_character_form(algebra))
    idems, blocks, p, prec = _raw_idempotents(
        algebra, prime=prime, seed=seed, max_precision_exp=max_precision_exp)
    field = algebra.field
    degrees = [b.degree for b in blocks]
    center_dims = [b.center_dim for b in blocks]
    block_dims = []
    certified = []
    for e, b in zip(idems, blocks):
        # the block A e: the images x_j e and their span
        images = [algebra.multiply(algebra.basis_vec(j), e)
                  for j in range(algebra.dim)]
        span = EchelonSubspace(field, images)
        if span.dim != b.block_dim:
            raise PrecisionExceeded("exact block dimension disagrees with "
                                    "the modular one")
        block_dims.append(span.dim)
        certified.append(certify and b.center_dim == 1
                         and certify_split_block(algebra, span, images,
                                                 b.degree, seed=seed))
    characters = _block_characters(algebra, idems, degrees, center_dims)

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
    the echelon basis, then random combinations.
    """
    field = algebra.field
    bd = block.dim
    if bd != d * d:
        return False
    if d == 1:
        return True
    block_basis = list(block.basis)
    rng = random.Random(seed * 7 + 1)
    candidates = [v for v in images if any(bool(c) for c in v)]
    candidates.extend(block_basis)
    for _ in range(tries):
        v = algebra.zero_vec()
        for w in block_basis:
            c = field.from_rat(Rat(rng.randrange(1, 5)))
            v = [a + c * b for a, b in zip(v, w)]
        candidates.append(v)
    for b in candidates:
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


def field_roots(field, coeffs, expected=None, seed=0):
    """Roots in the cyclotomic base field of a polynomial with coefficients
    there (ascending list), found modularly and verified exactly."""
    coeffs = list(coeffs)
    while coeffs and not bool(coeffs[-1]):
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    n = field.conductor
    deg = len(coeffs) - 1
    dens = scalar_denominators(field, coeffs)
    rng = random.Random(seed * 131 + deg)

    p = max(2 * deg + 1, n, 20)
    attempts = 0
    roots_found = []
    while attempts < FALLBACK_PRIMES:
        p += 1
        if p % n != 1 % n or not is_prime(p):
            continue
        if any(dd % p == 0 for dd in dens):
            continue
        if _leading_vanishes(field, coeffs[-1], n, p):
            continue
        attempts += 1
        roots_found = _field_roots_at_prime(field, coeffs, p, rng)
        if expected is None or len(roots_found) >= expected:
            break
    return sorted(set(roots_found), key=field.sort_key)


def _leading_vanishes(field, lead, n, p):
    roots, M = _component_roots(n, p, 1)
    return any(reduce_scalar(field, lead, w, p) == 0 for w in roots)


def _field_roots_at_prime(field, coeffs, p, rng):
    n = field.conductor
    gf = PrimeField(p)
    roots_p, _ = _component_roots(n, p, 1)
    comp_lists = []
    for w in roots_p:
        f = Poly.from_ints(gf, [reduce_scalar(field, c, w, p) for c in coeffs])
        g = f.gcd(f.derivative())
        if g.degree() > 0:
            f = f.divmod(g)[0]
        comp_lists.append(roots_mod_p(f.monic(), p, rng))
    out = []
    for combo in _cartesian(comp_lists):
        t = _lift_root_combo(field, coeffs, combo, p)
        if t is not None and _poly_value_is_zero(field, coeffs, t):
            out.append(t)
    return out


def _cartesian(lists):
    if not lists:
        yield []
        return
    for x in lists[0]:
        for rest in _cartesian(lists[1:]):
            yield [x] + rest


def _lift_root_combo(field, coeffs, combo, p, max_precision_exp=32):
    n = field.conductor
    exp = 1
    current = list(combo)
    while exp <= max_precision_exp:
        roots, M = _component_roots(n, p, exp)
        red = [[reduce_scalar(field, c, w, M) for c in coeffs] for w in roots]
        lifted = []
        for rcoeffs, t in zip(red, current):
            ft = _int_poly_eval(rcoeffs, t, M)
            dft = _int_poly_eval(
                [i * c % M for i, c in enumerate(rcoeffs)][1:], t, M)
            if math.gcd(dft, p) != 1:
                return None
            lifted.append((t - ft * pow(dft, -1, M)) % M)
        current = lifted
        vec = reconstruct_element(field, [[t] for t in current], roots, M, p)
        if vec is not None:
            return vec[0]
        exp *= 2
    return None


def _poly_value_is_zero(field, coeffs, t):
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * t + c
    return not bool(acc)


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
    z = c and z = c^2.

    With check=True also asserts the off-diagonal vanishing of c, the
    diagonal formula d(S)^2 (c^2)_{S,S} = Gamma(1)_S^2, and the element
    identity c^2 = (Gamma (x) Id)(c) in A (x) A.
    """
    algebra = data.algebra
    field = algebra.field
    n = algebra.dim
    from .algebra import AlgebraError, TensorSquareAlgebra, tensor_flat
    Asq = TensorSquareAlgebra(algebra)
    c = frobenius.casimir
    csq = Asq.mult(c, c)

    def component(z, s, t):
        ef = tensor_flat(field, data.idempotents[s], data.idempotents[t])
        w = Asq.mult(ef, z)
        chi_s, chi_t = data.characters[s], data.characters[t]
        val = field.zero
        for i in range(n):
            if not bool(chi_s[i]):
                continue
            row = chi_s[i]
            base = i * n
            for j in range(n):
                wij = w[base + j]
                if bool(wij):
                    val = val + row * chi_t[j] * wij
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
