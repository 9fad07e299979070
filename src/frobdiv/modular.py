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
Each F_p value is a Python int in [0, p), a polynomial mod p an ascending
int list, and every elimination runs through ``_echelon_add``.  Block
dimensions are traces of projections: dim A e = rho(e) for the right
regular character rho, and dim Z e the trace of multiplication by e on Z,
both exact since p > 2 dim.

Results come back as integers y of Q(zeta_n) whose conjugates the caller
bounds by R, so that their power-basis coefficients are at most
B = f_n R (``embedding_factor``).  Residues mod p^k > 2B in every
component are glued by CRT interpolation and read as symmetric residues
(``reconstruct_element``): exact for such a y, and a coefficient outside
[-B, B] rejects the gluing, at one precision and without trial.  Lifted
roots of unity and interpolation bases are cached per (n, p, k).
"""

from __future__ import annotations

import collections
import functools
import math
import random

from .algebra import _common_den, center_conditions
# perfbench/traced.py times modular.EchelonSubspace.coords under this name
from .linalg import EchelonSubspace, inverse_rows  # noqa: F401
from .scalars import QQ, CyclotomicField, cyclotomic_polynomial


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
    """Integer numerators and the common denominator of a scalar, or of an
    int (a value of ``integral_table``)."""
    if isinstance(x, int):
        return (x,), 1
    return x.nums, x.den


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
    inv = inverse_rows(QQ, [{l: QQ.from_int(trace[k + l])
                             for l in range(phi) if trace[k + l]}
                            for k in range(phi)])
    return phi * max(sum(abs(QQ.as_rat(c)) for c in row.values())
                     for row in inv)


def scalar_denominators(scalars):
    """The common denominators other than 1 of the scalars: a prime that
    divides none of them reduces every scalar."""
    dens = {_nums_den(x)[1] for x in scalars}
    dens.discard(1)
    return dens


def structure_denominator(algebra):
    """D den(1), for D the common denominator of the structure constants
    (read off ``integral_table``) and den(1) that of the unit: a good
    prime does not divide it."""
    return algebra.integral_table[0] * _common_den(algebra.unit)


def bad_prime_reason(algebra, p):
    """Why p is not a good prime for the modular pipeline, or None when it
    is one.

    Policy: p is prime, p = 1 (mod conductor), p > 2 dim (so traces of
    projections are exact dimensions), and p divides no structure-constant
    denominator.  Semisimplicity conditions (Gram nondegenerate mod p,
    Gamma(1) nonzero mod p) are checked downstream and reported as
    BadPrime.
    """
    n = algebra.field.conductor
    if not is_prime(p):
        return f"{p} is not prime"
    if p % n != 1 % n:
        return f"{p} is not 1 mod the conductor {n}"
    if p <= 2 * algebra.dim:
        return f"{p} is not greater than twice the dimension"
    if structure_denominator(algebra) % p == 0:
        return f"{p} divides a structure-constant denominator"
    return None


def good_primes(algebra, lower=None):
    """Yield the good primes (``bad_prime_reason``) above lower, in
    increasing order."""
    p = max(2 * algebra.dim, lower or 0, algebra.field.conductor, 2)
    while True:
        p += 1
        if bad_prime_reason(algebra, p) is None:
            yield p


# ---------------------------------------------------------------------------
# component reductions
# ---------------------------------------------------------------------------


def component_units(n: int):
    return [u for u in range(1, n + 1) if math.gcd(u, n) == 1]


def lift_cyclotomic_root(n: int, p: int, target_modulus: int) -> int:
    """A primitive n-th root of unity mod target_modulus = p^(2^t), lifted
    from the canonical root g^((p-1)/n) mod p by Newton iteration."""
    z = pow(primitive_root(p), (p - 1) // n, p)
    return newton_lift(cyclotomic_polynomial(n), z, p, target_modulus)


def newton_lift(coeffs, t, p, M):
    """The root mod M = p^k of the int polynomial ``coeffs`` (ascending)
    above its simple root t mod p, unique (Hensel), by Newton's step."""
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    m = p
    while m < M:
        m = min(m * m, M)
        t = (t - _int_poly_eval(coeffs, t, m)
             * pow(_int_poly_eval(deriv, t, m), -1, m)) % m
    return t % M


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
    acc = _int_poly_eval(nums, root, M)
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
# elimination and polynomials over F_p, on ints in [0, p)
# ---------------------------------------------------------------------------


def _echelon_add(rows, v, n, p):
    """``EchelonSubspace.add`` over F_p: reduce the sparse row v by the
    fully reduced rows {pivot: row} and keep it when a column below n is
    left (None); otherwise return it, a relation among the columns from n
    on, which never become pivots."""
    v = {k: x % p for k, x in v.items() if x % p}
    for c in [k for k in v if k in rows]:
        _sub_mod(v, v[c], rows[c], p)
    piv = min((k for k in v if k < n), default=None)
    if piv is None:
        return v
    inv = pow(v[piv], -1, p)
    v = {k: x * inv % p for k, x in v.items()}
    for kept in rows.values():
        if piv in kept:
            _sub_mod(kept, kept[piv], v, p)
    rows[piv] = v
    return None


def _sub_mod(v, f, row, p):
    """v -= f row mod p for sparse rows, in place, without zeros."""
    for k, c in row.items():
        x = (v.get(k, 0) - f * c) % p
        if x:
            v[k] = x
        else:
            v.pop(k, None)


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a, b, p):
    """Quotient and remainder of polynomials over F_p: ascending lists of
    ints in [0, p) without trailing zeros, b nonzero."""
    db = len(b) - 1
    rem = list(a)
    quo = [0] * max(len(a) - db, 0)
    inv = pow(b[-1], -1, p)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = rem[k + db] * inv % p
        if c:
            for j, x in enumerate(b):
                rem[k + j] = (rem[k + j] - c * x) % p
    return _trim(quo), _trim(rem[:db])


def _poly_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _poly_sub(a, b, p):
    a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return _poly_monic(a, p)


def _poly_pow_mod(a, k, f, p):
    out, base = [1], _poly_divmod(a, f, p)[1]
    while k:
        if k & 1:
            out = _poly_divmod(_poly_mul_mod(out, base, p), f, p)[1]
        base = _poly_divmod(_poly_mul_mod(base, base, p), f, p)[1]
        k >>= 1
    return out


def is_squarefree_mod(f, p):
    """gcd(f, f') = 1 over F_p."""
    df = _trim([i * c % p for i, c in enumerate(f)][1:])
    return len(_poly_gcd(f, df, p)) == 1


# ---------------------------------------------------------------------------
# polynomial factorization over F_p
# ---------------------------------------------------------------------------


def distinct_degree_factor(f, p: int):
    """[(degree, product of irreducible factors of that degree)], f
    squarefree, on int coefficient lists."""
    out = []
    h = x = [0, 1]
    rest = _poly_monic(f, p)
    d = 0
    while len(rest) > 1:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append((len(rest) - 1, rest))
            break
        h = _poly_pow_mod(h, p, rest, p)
        g = _poly_gcd(rest, _poly_sub(h, x, p), p)
        if len(g) > 1:
            out.append((d, g))
            rest = _poly_divmod(rest, g, p)[0]
            h = _poly_divmod(h, rest, p)[1]
    return out


def equal_degree_factor(f, d: int, p: int, rng: random.Random):
    """Cantor-Zassenhaus split of a squarefree product of degree-d factors."""
    if len(f) - 1 == d:
        return [_poly_monic(f, p)]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(a) < 2:
            continue
        g = _poly_gcd(f, a, p)
        if not 1 < len(g) < len(f):
            b = _poly_pow_mod(a, (p ** d - 1) // 2, f, p)
            g = _poly_gcd(f, _poly_sub(b, [1], p), p)
            if not 1 < len(g) < len(f):
                continue
        return (equal_degree_factor(g, d, p, rng)
                + equal_degree_factor(_poly_monic(_poly_divmod(f, g, p)[0], p),
                                      d, p, rng))


def factor_mod_p(f, p: int, rng: random.Random):
    """Irreducible factors of a squarefree monic polynomial over F_p, as
    monic int coefficient lists."""
    factors = []
    for d, prod in distinct_degree_factor(f, p):
        factors.extend(equal_degree_factor(prod, d, p, rng))
    return sorted(factors, key=lambda g: (len(g), g))


def roots_mod_p(f, p: int, rng: random.Random):
    """Roots in F_p of a squarefree polynomial over F_p (int coefficient
    list)."""
    x = [0, 1]
    g = _poly_gcd(f, _poly_sub(_poly_pow_mod(x, p, f, p), x, p), p)
    if len(g) == 1:
        return []
    return sorted(-fac[0] % p for fac in equal_degree_factor(g, 1, p, rng))


# ---------------------------------------------------------------------------
# modular splitting of one component
# ---------------------------------------------------------------------------


ModularBlock = collections.namedtuple(
    "ModularBlock", "central_idempotent degree block_dim center_dim")


def center_mod_p(comp):
    """The centre of a reduction mod p, solved from its table: (basis,
    free columns).  The basis vector of free column f is 1 at f and 0 at
    the other free columns, so coordinates are read off there."""
    p, n = comp.M, comp.dim
    rows = {}
    for row in center_conditions(comp.table):
        _echelon_add(rows, row, n, p)
        if len(rows) == n:
            break
    free = [f for f in range(n) if f not in rows]
    basis = []
    for f in free:
        vec = _basis_coord(f, n)
        for piv, kept in rows.items():
            vec[piv] = -kept.get(f, 0) % p
        basis.append(vec)
    return basis, free


def _center_coords(center, vec, p):
    """Coordinates of vec on the centre basis; None when it is not
    central."""
    basis, free = center
    coords = [vec[f] for f in free]
    return coords if _int_comb(basis, coords, p) == vec else None


def modular_split(comp, seed: int = 0):
    """Central primitive idempotents and block invariants of a reduction
    ``comp`` of an algebra mod a prime p (a ``ComponentAlgebra`` at
    modulus p)."""
    p = comp.M
    rng = random.Random(seed * 1000003 + p)

    center = center_mod_p(comp)
    r = len(center[0])
    if r == 0:
        raise BadPrime("trivial center mod p")
    cmult = _center_mult(comp, center)

    unit_coords = _center_coords(center, comp.unit, p)
    if unit_coords is None:
        raise BadPrime("unit not in computed center")

    idems = _commutative_idempotents(cmult, unit_coords, r, p, rng)

    # rho_i = sum_j c_ji^j, the trace of right multiplication by x_i
    rho = [sum(row[i].get(j, 0) for j, row in enumerate(comp.table)) % p
           for i in range(comp.dim)]
    blocks = []
    for e_coords in idems:
        e_vec = _int_comb(center[0], e_coords, p)
        blocks.append(_block_data(cmult, rho, e_vec, e_coords, r, p))
    blocks.sort(key=lambda b: (b.degree, b.block_dim, b.central_idempotent))
    return blocks


def _center_mult(comp, center):
    """Multiplication of coordinate vectors on the basis z_1..z_r of the
    centre Z of ``comp``, read off the r x r x r table of Z.

    Z is commutative, so the table takes r(r+1)/2 products z_i z_j in
    ``comp``, each solved once for its coordinates; ``table[i][j]`` lists
    the nonzero ones as (k, c).  A product of two coordinate vectors then
    combines rows of the table and never touches ``comp``."""
    p = comp.M
    basis = center[0]
    r = len(basis)
    table = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            coords = _center_coords(center,
                                    comp.multiply(basis[i], basis[j]), p)
            if coords is None:
                raise BadPrime("center not closed under multiplication")
            table[i][j] = table[j][i] = [(k, c) for k, c in enumerate(coords)
                                         if c]

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
    z = cmult(direction, e)
    # the columns of multiplication by z, and its Krylov relation from e:
    # v_k = z^k e enters with tracked column r + k set to 1
    cols = [cmult(z, _basis_coord(j, r)) for j in range(r)]
    rows, v, rel = {}, e, None
    while rel is None:
        rel = _echelon_add(rows, {**dict(enumerate(v)), r + len(rows): 1},
                           r, p)
        v = _int_comb(cols, v, p)
    rel = [rel.get(r + i, 0) for i in range(len(rows) + 1)]
    if len(rel) <= 2:
        return None
    if not is_squarefree_mod(rel, p):
        raise BadPrime("center not semisimple mod p")
    factors = factor_mod_p(rel, p, rng)
    if len(factors) <= 1:
        return None
    pieces = []
    for fi in factors:
        cof = _poly_divmod(rel, fi, p)[0]
        # h = 1 mod fi and 0 mod the other factors, so h(z) projects onto
        # fi: cof^(p^deg - 1) = 1 in the field F_p[x]/(fi)
        h = _poly_divmod(_poly_mul_mod(cof, _poly_pow_mod(
            cof, p ** (len(fi) - 1) - 2, fi, p), p), rel, p)[1]
        pieces.append(_poly_eval_in_algebra(cmult, h, z, e, p))
    return pieces


def _basis_coord(i, r):
    v = [0] * r
    v[i] = 1
    return v


def _poly_eval_in_algebra(cmult, poly, z, unit_e, p):
    """Evaluate a polynomial (int coefficient list) at z inside the ideal
    with unit unit_e."""
    acc = [0] * len(z)
    for c in reversed(poly):
        acc = cmult(acc, z)
        if c:
            acc = [(a + c * u) % p for a, u in zip(acc, unit_e)]
    return acc


def _block_data(cmult, rho, e_vec, e_coords, r, p):
    """dim A e = rho(e) and dim Z e: the traces of the projections x -> x e
    of A and of Z, exact as integers since both are below p."""
    bdim = sum(a * b for a, b in zip(rho, e_vec)) % p
    cdim = _ideal_dim(cmult, e_coords, r, p)
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
