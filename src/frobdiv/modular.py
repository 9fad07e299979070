"""Modular machinery for the Wedderburn pipeline.

The base field Q(zeta_n) is reduced at a good prime p = 1 (mod n): the
cyclotomic polynomial splits into distinct linear factors, so the reduction
has one F_p-component per primitive n-th root of unity mod p.  Components
whose reduced tables and units agree are the same F_p-algebra, and they are
split once: with rational structure constants, which covers every
constructor output with or without an embedding into a larger conductor,
that is one split per prime.  A split works on the multiplication table of
the mod-p centre, formed once from r(r+1)/2 products in the reduced
algebra; finding the primitive idempotents then never touches the algebra.

Results come back as integers y of Q(zeta_n) whose conjugates the caller
bounds by R, so that their power-basis coefficients are at most
B = f_n R (``embedding_factor``).  Residues mod p^k > 2B in every
component are glued by CRT interpolation and read as symmetric residues
(``reconstruct_element``): exact for such a y, and a coefficient outside
[-B, B] rejects the gluing, at one precision and without trial.  Lifted
roots of unity and interpolation bases are cached per (n, p, k).
"""

from __future__ import annotations

import functools
import math
import random

from .algebra import center_conditions
from .linalg import (EchelonSubspace, Matrix, Poly, iterates, krylov_relation,
                     sparse)
from .scalars import (QQ, Cyc, CyclotomicField, PrimeField,
                      cyclotomic_polynomial)


class BadPrime(Exception):
    """Reduction mod p is unusable; the caller retries with the next prime."""


class PrecisionExceeded(Exception):
    """No gluing of the blocks mod p passed the exact checks."""


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def primitive_root(p: int) -> int:
    order = p - 1
    factors = set()
    m = order
    q = 2
    while q * q <= m:
        while m % q == 0:
            factors.add(q)
            m //= q
        q += 1
    if m > 1:
        factors.add(m)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")


def _nums_den(x):
    """Integer numerators and the common denominator of a scalar of Q or
    Q(zeta_n)."""
    if isinstance(x, Cyc):
        return x.nums, x.den
    return (int(x.numerator),), int(x.denominator)


def norm1(x, scale):
    """||scale x||_1, the sum of the absolute power-basis coefficients of
    scale x; ``scale`` must clear the denominator of x."""
    nums, den = _nums_den(x)
    return sum(map(abs, nums)) * (scale // den)


@functools.lru_cache(maxsize=None)
def embedding_factor(n: int):
    """f_n = phi max_k sum_l |(Tr^-1)_kl| for the trace matrix
    Tr_kl = Tr(zeta^(k+l)), once per conductor: an integer y of Q(zeta_n)
    with every conjugate at most R has power-basis coefficients at most
    f_n R, Tr^-1 applied to the traces of y zeta^k (each at most phi R)."""
    field = CyclotomicField(n)
    phi, powers = field.phi, field._zeta_powers
    units = component_units(n)
    # the sum of the conjugates of zeta^m is rational: its first coefficient
    trace = [sum(powers[u * m % n][0] for u in units)
             for m in range(2 * phi - 1)]
    inv = Matrix(QQ, [[QQ.from_int(trace[k + l]) for l in range(phi)]
                      for k in range(phi)]).inverse()
    return phi * max(sum(map(abs, row)) for row in inv.entries)


def scalar_denominators(scalars):
    """The common denominators other than 1 of the scalars: a prime that
    divides none of them reduces every scalar."""
    dens = {_nums_den(x)[1] for x in scalars}
    dens.discard(1)
    return dens


def structure_denominators(algebra):
    """The denominators other than 1 of the structure constants and of
    the unit: a good prime divides none of them."""
    scalars = [c for row in algebra.table for cell in row
               for c in cell.values()]
    scalars.extend(algebra.unit)
    return scalar_denominators(scalars)


def good_primes(algebra, lower=None):
    """Yield candidate good primes for the modular pipeline.

    Policy: p = 1 (mod conductor), p > 2 dim, p does not divide dim or any
    structure-constant denominator.  Semisimplicity conditions (Gram
    nondegenerate mod p, Gamma(1) nonzero mod p) are checked downstream and
    reported as BadPrime.
    """
    n = algebra.field.conductor
    dens = structure_denominators(algebra)
    p = max(2 * algebra.dim, lower or 0, n, 2)
    while True:
        p += 1
        if p % n != 1 % n or not is_prime(p):
            continue
        if algebra.dim % p == 0:
            continue
        if any(d % p == 0 for d in dens):
            continue
        yield p


# ---------------------------------------------------------------------------
# component reductions
# ---------------------------------------------------------------------------


def component_units(n: int):
    return [u for u in range(1, n + 1) if math.gcd(u, n) == 1]


def lift_cyclotomic_root(n: int, p: int, target_modulus: int) -> int:
    """A primitive n-th root of unity mod target_modulus = p^(2^t), lifted
    from the canonical root g^((p-1)/n) mod p by Newton iteration."""
    g = primitive_root(p)
    z = pow(g, (p - 1) // n, p)
    phi_poly = cyclotomic_polynomial(n)
    dphi = [i * c for i, c in enumerate(phi_poly)][1:]
    M = p
    while M < target_modulus:
        M = M * M
        fz = _int_poly_eval(phi_poly, z, M)
        dfz = _int_poly_eval(dphi, z, M)
        z = (z - fz * pow(dfz, -1, M)) % M
    return z % target_modulus


@functools.lru_cache(maxsize=None)
def component_roots(n: int, p: int, exp: int):
    """The primitive n-th roots mod p^exp, one per CRT component in the
    order of ``component_units``, and the modulus p^exp.  Computed once
    per (n, p, exp) in a process."""
    M = p ** exp
    z = lift_cyclotomic_root(n, p, M)
    return tuple(pow(z, u, M) for u in component_units(n)), M


def _int_poly_eval(coeffs, x, M):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % M
    return acc


def reduce_scalar(x, root: int, M: int) -> int:
    """Image of a scalar in Z/M under zeta -> root; BadPrime when its
    denominator is not a unit mod M."""
    nums, den = _nums_den(x)
    acc = 0
    for c in reversed(nums):
        acc = (acc * root + c) % M
    if den == 1:
        return acc
    try:
        return acc * pow(den, -1, M) % M
    except ValueError:
        raise BadPrime("denominator not invertible mod p^m") from None


class ComponentAlgebra:
    """Reduction of a structure-constant algebra to Z/M at one root.

    The table is read only: its zero products share one empty dict."""

    def __init__(self, algebra, root: int, M: int):
        self.M = M
        self.dim = algebra.dim
        self.root = root
        no_terms = {}
        self.table = [[{k: reduce_scalar(c, root, M)
                        for k, c in cell.items()} if cell else no_terms
                       for cell in row]
                      for row in algebra.table]
        self.unit = [reduce_scalar(c, root, M) for c in algebra.unit]

    def reduce_vector(self, vec):
        return [reduce_scalar(c, self.root, self.M) for c in vec]

    def multiply(self, a, b):
        M = self.M
        out = [0] * self.dim
        for i, ai in enumerate(a):
            if ai:
                row = self.table[i]
                for j, bj in enumerate(b):
                    if bj:
                        f = ai * bj
                        for k, c in row[j].items():
                            out[k] = (out[k] + f * c) % M
        return out


# ---------------------------------------------------------------------------
# polynomial factorization over F_p
# ---------------------------------------------------------------------------


def distinct_degree_factor(f: Poly, p: int):
    """[(degree, product of irreducible factors of that degree)], f squarefree."""
    out = []
    x = Poly.x(f.field)
    h = x
    rest = f.monic()
    d = 0
    while rest.degree() > 0:
        d += 1
        if 2 * d > rest.degree():
            out.append((rest.degree(), rest))
            break
        h = h.pow_mod(p, rest)
        g = rest.gcd(h - x)
        if g.degree() > 0:
            out.append((d, g))
            rest = rest.divmod(g)[0]
            h = h % rest
    return out


def equal_degree_factor(f: Poly, d: int, p: int, rng: random.Random):
    """Cantor-Zassenhaus split of a squarefree product of degree-d factors."""
    if f.degree() == d:
        return [f.monic()]
    field = f.field
    one = Poly(field, [field.one])
    while True:
        a = Poly(field, [field.from_int(rng.randrange(p))
                         for _ in range(f.degree())])
        if a.degree() < 1:
            continue
        g = f.gcd(a)
        if 0 < g.degree() < f.degree():
            pass
        else:
            b = a.pow_mod((p ** d - 1) // 2, f)
            g = f.gcd(b - one)
            if not 0 < g.degree() < f.degree():
                continue
        return (equal_degree_factor(g, d, p, rng)
                + equal_degree_factor(f.divmod(g)[0].monic(), d, p, rng))


def factor_mod_p(f: Poly, p: int, rng: random.Random):
    """Irreducible factors of a squarefree monic polynomial over F_p."""
    factors = []
    for d, prod in distinct_degree_factor(f, p):
        factors.extend(equal_degree_factor(prod, d, p, rng))
    return sorted(factors, key=lambda g: (g.degree(),
                                          [c.residue for c in g.coeffs]))


def roots_mod_p(f: Poly, p: int, rng: random.Random):
    """Roots in F_p of a squarefree polynomial over F_p."""
    x = Poly.x(f.field)
    xp = x.pow_mod(p, f)
    g = f.gcd(xp - x)
    if g.degree() == 0:
        return []
    return sorted((-fac.coeffs[0] / fac.coeffs[1]).residue
                  for fac in equal_degree_factor(g, 1, p, rng))


# ---------------------------------------------------------------------------
# modular splitting of one component
# ---------------------------------------------------------------------------


class ModularBlock:
    __slots__ = ("central_idempotent", "degree", "block_dim", "center_dim")

    def __init__(self, central_idempotent, degree, block_dim, center_dim):
        self.central_idempotent = central_idempotent
        self.degree = degree
        self.block_dim = block_dim
        self.center_dim = center_dim


def center_mod_p(comp, gf):
    """The center of a reduction mod p, solved from its table, as the
    kernel subspace: coordinates are read off at its free columns."""
    rows = ({k: gf.from_int(c) for k, c in row.items()}
            for row in center_conditions(comp.table))
    return EchelonSubspace(gf, comp.dim, rows).kernel()


def modular_split(comp, seed: int = 0):
    """Central primitive idempotents and block invariants of a reduction
    ``comp`` of an algebra mod a prime p (a ``ComponentAlgebra`` at
    modulus p)."""
    p = comp.M
    gf = PrimeField(p)
    rng = random.Random(seed * 1000003 + p)

    center = center_mod_p(comp, gf)
    r = center.dim
    if r == 0:
        raise BadPrime("trivial center mod p")

    center_int = [[x.residue for x in v] for v in center.basis]
    cmult = _center_mult(comp, gf, center)

    unit_coords = center.coords([gf.from_int(x) for x in comp.unit])
    if unit_coords is None:
        raise BadPrime("unit not in computed center")
    unit_coords = [c.residue for c in unit_coords]

    idems = _commutative_idempotents(cmult, unit_coords, r, p, rng)

    blocks = []
    for e_coords in idems:
        e_vec = _int_comb(center_int, e_coords, p)
        blocks.append(_block_data(comp, gf, center_int, e_vec))
    blocks.sort(key=lambda b: (b.degree, b.block_dim, b.central_idempotent))
    return blocks


def _center_mult(comp, gf, center):
    """Multiplication of coordinate vectors on the basis z_1..z_r of the
    centre Z of ``comp``, read off the r x r x r table of Z.

    Z is commutative, so the table takes r(r+1)/2 products z_i z_j in
    ``comp``, each solved once for its coordinates; ``table[i][j]`` lists
    the nonzero ones as (k, c).  A product of two coordinate vectors then
    combines rows of the table and never touches ``comp``."""
    p = gf.modulus
    r = center.dim
    basis = [[x.residue for x in v] for v in center.basis]
    table = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            coords = center.coords([gf.from_int(x) for x in
                                    comp.multiply(basis[i], basis[j])])
            if coords is None:
                raise BadPrime("center not closed under multiplication")
            table[i][j] = table[j][i] = [(k, c.residue)
                                         for k, c in enumerate(coords)
                                         if c.residue]

    def cmult(u_coords, v_coords):
        out = [0] * r
        for i, ui in enumerate(u_coords):
            if ui:
                row = table[i]
                for j, vj in enumerate(v_coords):
                    if vj:
                        f = ui * vj
                        for k, c in row[j]:
                            out[k] += f * c
        return [x % p for x in out]

    return cmult


def _int_comb(basis, coords, p):
    out = [0] * len(basis[0])
    for c, row in zip(coords, basis):
        if c:
            for i, x in enumerate(row):
                out[i] = (out[i] + c * x) % p
    return out


def _commutative_idempotents(cmult, unit_coords, r, p, rng):
    """Primitive idempotents of a commutative (semisimple) F_p-algebra given
    by a multiplication callback on coordinate vectors.

    Each round tries every piece against the basis directions (three
    random ones after r rounds) and replaces a piece that splits by its
    parts.  A piece e whose ideal e Z is 1-dimensional cannot split: it is
    marked final when it appears and never tried again.  The other pieces
    stay in the loop until a round splits none of them."""
    pieces = [(unit_coords, r == 1)]
    changed = True
    rounds = 0
    while changed and rounds < r + 25:
        changed = False
        rounds += 1
        directions = [_basis_coord(i, r) for i in range(r)]
        if rounds > r:
            directions = [[rng.randrange(p) for _ in range(r)] for _ in range(3)]
        new = []
        for e, final in pieces:
            split = None
            if not final:
                for d in directions:
                    split = _try_split(cmult, e, d, r, p, rng)
                    if split:
                        break
            if split:
                new.extend((piece, _ideal_dim(cmult, piece, r, p) == 1)
                           for piece in split)
                changed = True
            else:
                new.append((e, final))
        pieces = new
    return [e for e, _ in pieces]


def _ideal_dim(cmult, e, r, p):
    """dim e Z for an idempotent e: the trace of multiplication by e, a
    projection of Z (exact as an integer, since r < p)."""
    return sum(cmult(e, _basis_coord(j, r))[j] for j in range(r)) % p


def _try_split(cmult, e, direction, r, p, rng):
    """The pieces of the ideal e Z cut out by the factors of the minimal
    polynomial of z = direction * e there; None if it has one factor."""
    gf = PrimeField(p)
    z = cmult(direction, e)
    mat = _mult_matrix(cmult, z, r, gf)
    rel = krylov_relation(gf, r, map(sparse, iterates(
        mat.apply, [gf.from_int(x) for x in e])))
    if rel.degree() <= 1:
        return None
    if rel.gcd(rel.derivative()).degree() > 0:
        raise BadPrime("center not semisimple mod p")
    factors = factor_mod_p(rel, p, rng)
    if len(factors) <= 1:
        return None
    pieces = []
    for fi in factors:
        cof = rel.divmod(fi)[0]
        # h = 1 mod fi and 0 mod the other factors, so h(z) projects onto fi
        h = (cof * cof.inverse_mod(fi)) % rel
        pieces.append(_poly_eval_in_algebra(cmult, h, z, e, p))
    return pieces


def _basis_coord(i, r):
    v = [0] * r
    v[i] = 1
    return v


def _mult_matrix(cmult, z, r, gf):
    cols = []
    for j in range(r):
        col = cmult(z, _basis_coord(j, r))
        cols.append([gf.from_int(x) for x in col])
    return Matrix.from_columns(gf, cols)


def _poly_eval_in_algebra(cmult, poly: Poly, z, unit_e, p):
    """Evaluate a polynomial at z inside the ideal with unit unit_e."""
    acc = [0] * len(z)
    for c in reversed(poly.coeffs):
        acc = cmult(acc, z)
        ci = c.residue
        if ci:
            acc = [(a + ci * u) % p for a, u in zip(acc, unit_e)]
    return acc


def _block_data(comp, gf, center_int, e_vec):
    n = comp.dim

    def span_dim(vectors):
        return EchelonSubspace(gf, n, ({k: gf.from_int(x)
                                        for k, x in enumerate(v) if x}
                                       for v in vectors)).dim

    # the block: span of the x_j e; its center: span of the z e
    bdim = span_dim(comp.multiply(_basis_coord(j, n), e_vec)
                    for j in range(n))
    cdim = span_dim(comp.multiply(z, e_vec) for z in center_int)
    if cdim == 0 or bdim % cdim != 0:
        raise BadPrime("inconsistent block dimensions")
    d2 = bdim // cdim
    d = math.isqrt(d2)
    if d * d != d2:
        raise BadPrime("block dimension is not a square over its center")
    return ModularBlock(e_vec, d, bdim, cdim)


# ---------------------------------------------------------------------------
# Hensel lifting and bounded gluing
# ---------------------------------------------------------------------------


def hensel_lift_idempotent(comp_M, e, M):
    """One lifting step e -> 3e^2 - 2e^3 in a component at modulus M."""
    e2 = comp_M.multiply(e, e)
    e3 = comp_M.multiply(e2, e)
    return [(3 * a - 2 * b) % M for a, b in zip(e2, e3)]


@functools.lru_cache(maxsize=None)
def lagrange_basis(nodes, M):
    """Coefficient tuples of the Lagrange polynomials
    prod_{l != j} (x - w_l) / (w_j - w_l) over Z/M, one per node w_j;
    node differences must be units mod M.  Computed once per (nodes, M)
    in a process."""
    basis = []
    for j, wj in enumerate(nodes):
        num = [1]
        denom = 1
        for l, wl in enumerate(nodes):
            if l != j:
                num = _poly_mul_mod(num, [(-wl) % M, 1], M)
                denom = denom * (wj - wl) % M
        inv = pow(denom, -1, M)
        basis.append(tuple(c * inv % M for c in num))
    return tuple(basis)


def interpolate_mod(nodes, values, M):
    """Coefficients (deg < len(nodes)) of the polynomial over Z/M that
    takes values[j] at nodes[j]."""
    coeffs = [0] * len(nodes)
    for v, poly in zip(values, lagrange_basis(tuple(nodes), M)):
        if v:
            for i, c in enumerate(poly):
                coeffs[i] += v * c
    return [c % M for c in coeffs]


def _poly_mul_mod(a, b, M):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % M
    return out


def reconstruct_element(field, per_component, roots, M, bound, den):
    """Glue per-component residue vectors of an integral vector y by CRT
    interpolation and return y / den as field scalars, reading each
    coefficient as its symmetric residue mod M > 2 bound; None when one
    exceeds ``bound``, which proves the residues are not those of such a
    y."""
    half = M // 2
    glued = []
    for residues in zip(*per_component):
        nums = []
        for c in interpolate_mod(roots, residues, M):
            if c > half:
                c -= M
            if abs(c) > bound:
                return None
            nums.append(c)
        glued.append(nums)
    return [field.from_nums(nums, den) for nums in glued]


def precision_for(p: int, bound: int) -> int:
    """The least exponent k in 1, 2, 4, ... with p^k > 2 bound."""
    exp = 1
    while p ** exp <= 2 * bound:
        exp *= 2
    return exp
