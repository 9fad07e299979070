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

A residue vector, an element of a reduction mod M = p^k or of its centre,
is a sparse dict {index: int in [1, M)}, the form of every exact vector:
each product of two is ``algebra.table_product`` on a reduced table and
each linear combination ``algebra.combine``, both followed by one
reduction mod M.  A polynomial mod p is an ascending int list, and every
elimination runs through ``_echelon_add``.  Block dimensions are traces
of projections: dim A e = rho(e) for the right regular character rho, and
dim Z e the trace of multiplication by e on Z, both exact since
p > 2 dim.

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

from .algebra import (_common_den, _nums_den, center_conditions, combine,
                      table_product)
# perfbench/traced.py times modular.EchelonSubspace.coords under this name
from .linalg import EchelonSubspace, inverse_rows  # noqa: F401
from .scalars import QQ, CyclotomicField, cyclotomic_polynomial


class BadPrime(Exception):
    """Reduction mod p is unusable; the caller retries with the next prime."""


class PrecisionExceeded(Exception):
    """No gluing of the blocks mod p passed the exact checks."""


# The primes up to 37: the trial divisors and the Miller-Rabin bases of
# ``is_prime``.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The least strong pseudoprime to all twelve bases of SMALL_PRIMES
# (Sorenson and Webster, Math. Comp. 86 (2017)): below it ``is_prime`` is
# a proof, so no prime at or above it is a good prime.
PRIME_PROOF_BOUND = 318665857834031151167461


def is_prime(m: int) -> bool:
    """Miller-Rabin to the bases SMALL_PRIMES, a proof for
    m < PRIME_PROOF_BOUND."""
    if m < 2:
        return False
    for q in SMALL_PRIMES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in SMALL_PRIMES:
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
    inv = inverse_rows(QQ, [{l: QQ.from_rat(trace[k + l])
                             for l in range(phi) if trace[k + l]}
                            for k in range(phi)])
    return phi * max(sum(abs(QQ.as_rat(c)) for c in row.values())
                     for row in inv)


def structure_denominator(algebra):
    """D den(1), for D the common denominator of the structure constants
    (read off ``integral_table``) and den(1) that of the unit: a good
    prime does not divide it."""
    return algebra.integral_table[0] * _common_den(algebra.unit.values())


def prime_defect(p, conductor, floor, denominator):
    """The good-prime policy: None when p < PRIME_PROOF_BOUND, p is prime,
    p = 1 (mod conductor), p > floor and p does not divide
    ``denominator``; otherwise the first condition p breaks, as "size",
    "prime", "conductor", "floor" or "denominator"."""
    if p >= PRIME_PROOF_BOUND:
        return "size"
    if not is_prime(p):
        return "prime"
    if p % conductor != 1 % conductor:
        return "conductor"
    if p <= floor:
        return "floor"
    if denominator % p == 0:
        return "denominator"
    return None


def prime_search(conductor, floor, denominator):
    """Yield the primes that ``prime_defect`` passes, in increasing
    order."""
    p = max(floor, conductor, 2)
    while True:
        p += 1
        if prime_defect(p, conductor, floor, denominator) is None:
            yield p


def bad_prime_reason(algebra, p):
    """Why p is not a good prime for the modular pipeline, or None:
    ``prime_defect`` with the floor 2 dim, so that traces of projections
    are exact dimensions.  Semisimplicity mod p (Gram nondegenerate,
    Gamma(1) nonzero) is checked downstream and reported as BadPrime."""
    n = algebra.field.conductor
    defect = prime_defect(p, n, 2 * algebra.dim,
                          structure_denominator(algebra))
    return defect and {
        "size": (f"{p} is not below {PRIME_PROOF_BOUND}, under which the "
                 "primality test is a proof"),
        "prime": f"{p} is not prime",
        "conductor": f"{p} is not 1 mod the conductor {n}",
        "floor": f"{p} is not greater than twice the dimension",
        "denominator": f"{p} divides a structure-constant denominator",
    }[defect]


def good_primes(algebra, lower=None):
    """Yield the good primes (``bad_prime_reason``) above lower, in
    increasing order."""
    return prime_search(algebra.field.conductor,
                        max(2 * algebra.dim, lower or 0),
                        structure_denominator(algebra))


# ---------------------------------------------------------------------------
# component reductions
# ---------------------------------------------------------------------------


def component_units(n: int):
    return [u for u in range(1, n + 1) if math.gcd(u, n) == 1]


def root_of_unity(n: int, p: int) -> int:
    """The canonical primitive n-th root of unity mod a prime p = 1 (mod
    n): z = a^((p-1)/n) for the least a with z^(n/q) != 1 for every prime
    q | n.  n is the conductor, so trial division finds those q, and p - 1
    is never factored."""
    qs = [q for q in range(2, n + 1)
          if n % q == 0 and all(q % d for d in range(2, q))]
    return next(z for z in (pow(a, (p - 1) // n, p) for a in range(1, p))
                if all(pow(z, n // q, p) != 1 for q in qs))


def lift_cyclotomic_root(n: int, p: int, target_modulus: int) -> int:
    """A primitive n-th root of unity mod target_modulus = p^(2^t), lifted
    from ``root_of_unity(n, p)`` by Newton iteration."""
    return newton_lift(cyclotomic_polynomial(n), root_of_unity(n, p), p,
                       target_modulus)


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
        self.unit = self.reduce_vector(algebra.unit)

    def reduce_vector(self, vec):
        """The residue vector of a sparse vector of scalars."""
        return _mod({k: reduce_scalar(c, self.root, self.M)
                     for k, c in vec.items()}, self.M)


def _mod(v, M):
    """The sparse int vector v as a residue vector mod M: its entries in
    [1, M), without zeros."""
    return {k: r for k, x in v.items() if (r := x % M)}


def product_mod(table, a, b, M):
    """a b mod M for residue vectors a and b, read off the reduced
    ``table`` by ``algebra.table_product``."""
    return _mod(table_product(table, a, b), M)


def combine_mod(terms, M):
    """sum c v mod M over the pairs (c, v) of ``terms`` (int c, residue
    vector v), formed by ``algebra.combine``."""
    return _mod(combine(terms), M)


# ---------------------------------------------------------------------------
# elimination and polynomials over F_p, on ints in [0, p)
# ---------------------------------------------------------------------------


def _echelon_add(rows, v, n, p):
    """``EchelonSubspace.add`` over F_p: reduce the sparse row v by the
    fully reduced rows {pivot: row} and keep it when a column below n is
    left (None); otherwise return it, a relation among the columns from n
    on, which never become pivots."""
    v = combine_mod([(1, v)] + [(-v[c], rows[c]) for c in v if c in rows],
                    p)
    piv = min((k for k in v if k < n), default=None)
    if piv is None:
        return v
    inv = pow(v[piv], -1, p)
    v = {k: x * inv % p for k, x in v.items()}
    for k, kept in rows.items():
        if piv in kept:
            rows[k] = combine_mod([(1, kept), (-kept[piv], v)], p)
    rows[piv] = v
    return None


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
    basis = [_mod({f: 1, **{piv: -kept.get(f, 0)
                            for piv, kept in rows.items()}}, p)
             for f in free]
    return basis, free


def _center_coords(center, vec, p):
    """Coordinates of the residue vector vec on the centre basis, as a
    residue vector; None when vec is not central."""
    basis, free = center
    coords = {i: vec[f] for i, f in enumerate(free) if f in vec}
    return coords if _center_element(basis, coords, p) == vec else None


def _center_element(basis, coords, p):
    return combine_mod(((c, basis[i]) for i, c in coords.items()), p)


def modular_split(comp):
    """Central primitive idempotents and block invariants of a reduction
    ``comp`` of an algebra mod a prime p (a ``ComponentAlgebra`` at
    modulus p)."""
    p, n = comp.M, comp.dim
    rng = random.Random(p)

    center = center_mod_p(comp)
    r = len(center[0])
    if r == 0:
        raise BadPrime("trivial center mod p")
    table = _center_table(comp, center)
    # the trace of multiplication by z_i on Z
    traces = _mod({i: sum(row[j].get(j, 0) for j in range(r))
                   for i, row in enumerate(table)}, p)

    unit_coords = _center_coords(center, comp.unit, p)
    if unit_coords is None:
        raise BadPrime("unit not in computed center")

    idems = _commutative_idempotents(table, traces, unit_coords, p, rng)

    # rho_i = sum_j c_ji^j, the trace of right multiplication by x_i
    rho = _mod({i: sum(row[i].get(j, 0) for j, row in enumerate(comp.table))
                for i in range(n)}, p)
    blocks = [_block_data(traces, rho, _center_element(center[0], e, p), e, p)
              for e in idems]
    blocks.sort(key=lambda b: (b.degree, b.block_dim,
                               [b.central_idempotent.get(k, 0)
                                for k in range(n)]))
    return blocks


def _center_table(comp, center):
    """The multiplication table of the centre Z of ``comp`` on its basis
    z_1..z_r: cell (i, j) holds the coordinates of z_i z_j, a residue
    vector.  Z is commutative, so the table takes r(r+1)/2 products in
    ``comp``; a product of two coordinate vectors is then read off it
    (``product_mod``) and never touches ``comp``."""
    p = comp.M
    basis = center[0]
    r = len(basis)
    table = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            coords = _center_coords(center, product_mod(
                comp.table, basis[i], basis[j], p), p)
            if coords is None:
                raise BadPrime("center not closed under multiplication")
            table[i][j] = table[j][i] = coords
    return table


def _commutative_idempotents(table, traces, unit_coords, p, rng):
    """Primitive idempotents of a commutative (semisimple) F_p-algebra given
    by its multiplication table and the traces of multiplication by its
    basis elements (a residue vector), as residue vectors of coordinates.

    Each round tries every piece against the basis directions (three
    random ones after r rounds) and replaces a piece that splits by its
    parts.  A piece e whose ideal e Z is 1-dimensional cannot split: it is
    marked final when it appears and never tried again.  The other pieces
    stay in the loop until a round splits none of them."""
    r = len(table)
    pieces = [(unit_coords, r == 1)]
    changed = True
    rounds = 0
    while changed and rounds < r + 25:
        changed = False
        rounds += 1
        directions = [{i: 1} for i in range(r)]
        if rounds > r:
            directions = [_mod(dict(enumerate([rng.randrange(p)
                                               for _ in range(r)])), p)
                          for _ in range(3)]
        new = []
        for e, final in pieces:
            split = None
            if not final:
                for d in directions:
                    split = _try_split(table, e, d, p, rng)
                    if split:
                        break
            if split:
                new.extend((piece, _ideal_dim(traces, piece, p) == 1)
                           for piece in split)
                changed = True
            else:
                new.append((e, final))
        pieces = new
    return [e for e, _ in pieces]


def _ideal_dim(traces, e, p):
    """dim e Z for an idempotent e: the trace of multiplication by e, a
    projection of Z, read off the traces of the basis (exact as an
    integer, since r < p)."""
    return sum(traces.get(i, 0) * x for i, x in e.items()) % p


def _try_split(table, e, direction, p, rng):
    """The pieces of the ideal e Z cut out by the factors of the minimal
    polynomial of z = direction * e there; None if it has one factor."""
    r = len(table)
    z = product_mod(table, direction, e, p)
    # the columns of multiplication by z, and its Krylov relation from e:
    # v_k = z^k e enters with tracked column r + k set to 1
    cols = [product_mod(table, z, {j: 1}, p) for j in range(r)]
    rows, v, rel = {}, e, None
    while rel is None:
        rel = _echelon_add(rows, {**v, r + len(rows): 1}, r, p)
        v = combine_mod(((x, cols[j]) for j, x in v.items()), p)
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
        pieces.append(_poly_eval_in_algebra(table, h, z, e, p))
    return pieces


def _poly_eval_in_algebra(table, poly, z, unit_e, p):
    """Evaluate a polynomial (int coefficient list) at z inside the ideal
    with unit unit_e."""
    acc = {}
    for c in reversed(poly):
        acc = product_mod(table, acc, z, p)
        if c:
            acc = combine_mod([(1, acc), (c, unit_e)], p)
    return acc


def _block_data(traces, rho, e_vec, e_coords, p):
    """dim A e = rho(e) and dim Z e: the traces of the projections x -> x e
    of A and of Z, exact as integers since both are below p."""
    bdim = sum(rho.get(k, 0) * x for k, x in e_vec.items()) % p
    cdim = _ideal_dim(traces, e_coords, p)
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
    e2 = product_mod(comp_M.table, e, e, M)
    e3 = product_mod(comp_M.table, e2, e, M)
    return combine_mod([(3, e2), (-2, e3)], M)


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
    interpolation and return y / den as a sparse vector of field scalars,
    reading each coefficient as its symmetric residue mod M > 2 bound;
    None when one exceeds ``bound``, which proves the residues are not
    those of such a y."""
    half = M // 2
    glued = {}
    for k in sorted(set().union(*per_component)):
        nums = []
        for c in interpolate_mod(roots, [v.get(k, 0) for v in per_component],
                                 M):
            if c > half:
                c -= M
            if abs(c) > bound:
                return None
            nums.append(c)
        if any(nums):
            glued[k] = nums
    return {k: field.from_nums(nums, den) for k, nums in glued.items()}


def precision_for(p: int, bound: int) -> int:
    """The least exponent k in 1, 2, 4, ... with p^k > 2 bound."""
    exp = 1
    while p ** exp <= 2 * bound:
        exp *= 2
    return exp
