"""Exact scalar arithmetic: cyclotomic numbers and prime residues.

Every scalar in the toolkit is one of two immutable types:

* ``Cyc`` -- element of Q(zeta_n): a tuple of Python ints, the numerators
  on the power basis 1, z, ..., z^(phi(n)-1), over one positive int
  denominator, in lowest terms; Q is Q(zeta_1), so a rational scalar is
  a ``Cyc`` too.  Sums, products and equality are integer work; the
  inverse is the product of the other Galois conjugates over the norm.
  The operands that analyses carry most are taken apart: a
  product with 1 returns the other factor, an int or rational factor
  scales the other's numerators, a sum that starts from the field's zero
  returns the other summand, and a rational divisor scales by its
  reciprocal.  So only two non-rational factors take the power-basis
  product, and only a denominator other than 1 takes a gcd.  Every result
  is in lowest terms, and a rational value hashes as its ``Rat``.
  ``Rat`` (``fractions.Fraction``) appears only at the boundary
  (``element``, ``rats``, ``as_rat``, ``sort_key``, ``parse``);
* ``PrimeFieldElement`` -- residue modulo a prime (or prime power).  The
  modular pipeline holds F_p values as plain ints; the boxed residue
  serves the reference paths of the tests.

Fields are ``CyclotomicField`` objects, one per conductor, that hand out
zero/one and parse/format the string serialization used by the JSON
schemas.  ``QQ`` is the field of conductor 1, which reads and writes its
documents as {"type": "rational"}.
"""

from __future__ import annotations

import functools
import math
import operator
import re

from fractions import Fraction as Rat


def rat(x) -> Rat:
    """Coerce an int, string or rational into a Rat."""
    if isinstance(x, Rat):
        return x
    if isinstance(x, (int, str)):
        return Rat(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

def _zpoly_div_exact(num, den):
    """Exact division of integer polynomials; den monic up to sign handling."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= lead
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return q


_CYCLO_CACHE = {}


def cyclotomic_polynomial(n: int):
    """Coefficients of Phi_n, ascending, computed by exact division of
    x^n - 1 by the Phi_d for proper divisors d of n."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _zpoly_div_exact(poly, cyclotomic_polynomial(d))
    _CYCLO_CACHE[n] = poly
    return poly


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------


class ConductorMismatch(ValueError):
    pass


def _lowest(field, nums, den):
    """The Cyc nums/den, den > 0, in lowest terms; an integral value
    (den = 1) needs no gcd."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple([a // g for a in nums])
            den //= g
    return Cyc(field, nums, den)


class Cyc:
    """Exact element of Q(zeta_n): integer numerators ``nums`` on the power
    basis over one positive denominator ``den``, in lowest terms
    (gcd(den, *nums) = 1, and zero is (0, ..., 0)/1), so equal values
    have equal representations."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, nums, den=1):
        self.field = field
        self.nums = nums
        self.den = den

    # -- helpers ----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.field is not self.field:  # one field per conductor
                raise ConductorMismatch(
                    f"conductor {other.field.conductor} != {self.field.conductor}")
            return other
        if isinstance(other, (int, Rat)):
            return self.field.from_rat(other)
        return NotImplemented

    def __bool__(self):
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def _times(self, p, q):
        """self * p/q for ints p and q > 0 in lowest terms: the numerators
        scaled by p, with no power-basis product; self itself when
        p/q = 1."""
        if p == 1 and q == 1:
            return self
        return _lowest(self.field, tuple([p * a for a in self.nums]),
                       self.den * q)

    # -- arithmetic -------------------------------------------------------
    # A same-field Cyc is read directly; an int, a Rat, a bool or a foreign
    # type goes through _coerce (__mul__ reads an int by value as well).
    # Every result is in lowest terms.
    def __add__(self, other):
        field = self.field
        o = (other if type(other) is Cyc and other.field is field
             else self._coerce(other))
        if o is NotImplemented:
            return NotImplemented
        if self is field.zero:  # the start of most sum(..., zero)
            return o
        d, e = self.den, o.den
        if d == e:
            return _lowest(self.field,
                           tuple(map(operator.add, self.nums, o.nums)), d)
        return _lowest(self.field, tuple([a * e + b * d for a, b
                                          in zip(self.nums, o.nums)]), d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = (other if type(other) is Cyc and other.field is self.field
             else self._coerce(other))
        if o is NotImplemented:
            return NotImplemented
        d, e = self.den, o.den
        if d == e:
            return _lowest(self.field,
                           tuple(map(operator.sub, self.nums, o.nums)), d)
        return _lowest(self.field, tuple([a * e - b * d for a, b
                                          in zip(self.nums, o.nums)]), d * e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Cyc(self.field, tuple(map(operator.neg, self.nums)), self.den)

    def __mul__(self, other):
        """A factor equal to 1 returns the other one, and an int or
        rational factor scales the other's numerators; only two
        non-rational factors take the power-basis product."""
        if type(other) is int:
            return self._times(other, 1)
        field = self.field
        o = (other if type(other) is Cyc and other.field is field
             else self._coerce(other))
        if o is NotImplemented:
            return NotImplemented
        a, b, pad = self.nums, o.nums, field._pad
        if b[1:] == pad:
            return self._times(b[0], o.den)
        if a[1:] == pad:
            return o._times(a[0], self.den)
        return _lowest(field, field._mul_nums(a, b), self.den * o.den)

    __rmul__ = __mul__

    def inv(self):
        """1/a: the reciprocal of a rational value; otherwise
        prod_{sigma != 1} sigma(a) / N(a), over the Galois automorphisms
        sigma, with the norm N(a) = a prod_{sigma != 1} sigma(a)."""
        field, nums, den = self.field, self.nums, self.den
        if self.is_rational():
            a = nums[0]
            if not a:
                raise ZeroDivisionError("inversion of zero cyclotomic number")
            return Cyc(field, (den if a > 0 else -den,) + nums[1:], abs(a))
        cofactor = None
        for sigma in field._galois:
            conj = field._apply(sigma, nums)
            cofactor = conj if cofactor is None else field._mul_nums(cofactor,
                                                                     conj)
        norm = field._mul_nums(nums, cofactor)
        # the conjugates of a non-rational value pair off as complex
        # conjugates, so the norm is positive
        if any(norm[1:]) or norm[0] <= 0:
            raise ArithmeticError("norm of a cyclotomic number is not a "
                                  "positive rational")
        return _lowest(field, tuple([den * c for c in cofactor]), norm[0])

    def __truediv__(self, other):
        """Division by a rational value a/e scales the numerators by
        e/a, with no inverse formed."""
        o = (other if type(other) is Cyc and other.field is self.field
             else self._coerce(other))
        if o is NotImplemented:
            return NotImplemented
        b = o.nums
        if b[1:] == self.field._pad:
            a = b[0]
            if not a:
                raise ZeroDivisionError("inversion of zero cyclotomic number")
            return self._times(o.den if a > 0 else -o.den, abs(a))
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing --------------------------------------------
    def __eq__(self, other):
        o = (other if type(other) is Cyc and other.field is self.field
             else self._coerce(other))
        if o is NotImplemented:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        """A rational value hashes as its Rat (and an integer as its int),
        as == compares them equal.  So equal rational values of two fields
        hash alike, and a set or dict that holds both raises
        ConductorMismatch, as == between two fields does."""
        nums, den = self.nums, self.den
        if nums[1:] == self.field._pad:
            return hash(nums[0]) if den == 1 else hash(Rat(nums[0], den))
        return hash((self.field.conductor, nums, den))

    def rats(self):
        """The rational coefficients on the power basis."""
        den = self.den
        return [Rat(a, den) for a in self.nums]

    def sort_key(self):
        return tuple(self.rats())

    def __repr__(self):
        return self.field.format(self)


class CyclotomicField:
    """Q(zeta_n), conductor fixed, dense power-basis representation.
    Conductor 1 is Q: its documents name it {"type": "rational"}, and it
    parses whatever ``fractions.Fraction`` reads."""

    _instances = {}

    def __new__(cls, conductor: int):
        if conductor in cls._instances:
            return cls._instances[conductor]
        self = super().__new__(cls)
        cls._instances[conductor] = self
        self.conductor = conductor
        phi_poly = cyclotomic_polynomial(conductor)
        self.phi = len(phi_poly) - 1
        self.phi_int_coeffs = phi_poly
        # reduction table: x^(phi+j) on the power basis, sparse integer rows
        table = []
        cur = [-c for c in phi_poly[:-1]]  # x^phi
        for _ in range(self.phi - 1):
            table.append([(i, t) for i, t in enumerate(cur) if t])
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i, t in table[0]:
                    cur[i] += top * t
        self._red_rows = table
        self._pad = (0,) * (self.phi - 1)
        self.zero = Cyc(self, (0,) * self.phi)
        self.one = Cyc(self, (1,) + self._pad)
        return self

    def _mul_nums(self, a, b):
        """Numerators of the product of two power-basis tuples, by the full
        product and the reduction by Phi_n; ``Cyc.__mul__`` takes rational
        factors apart before it calls this."""
        phi = self.phi
        prod = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        for j in range(2 * phi - 2, phi - 1, -1):
            c = prod[j]
            if c:
                for i, t in self._red_rows[j - phi]:
                    prod[i] += c * t
        return tuple(prod[:phi])

    @functools.cached_property
    def _zeta_powers(self):
        """zeta^j on the power basis for j = 0, ..., n - 1."""
        zeta = ((0, 1) + self._pad[1:] if self.phi > 1
                else (-self.phi_int_coeffs[0],))
        out = [(1,) + self._pad]
        for _ in range(self.conductor - 1):
            out.append(self._mul_nums(out[-1], zeta))
        return out

    @functools.cached_property
    def _galois(self):
        """The automorphisms zeta -> zeta^k, k a unit mod n other than 1,
        each as the sparse images of the power-basis vectors."""
        n, powers = self.conductor, self._zeta_powers
        return [[[(i, t) for i, t in enumerate(powers[j * k % n]) if t]
                 for j in range(self.phi)]
                for k in range(2, n) if math.gcd(k, n) == 1]

    @staticmethod
    def _apply(sigma, nums):
        out = [0] * len(nums)
        for a, image in zip(nums, sigma):
            if a:
                for i, t in image:
                    out[i] += a * t
        return tuple(out)

    def element(self, coeffs):
        coeffs = [rat(c) for c in coeffs]
        if len(coeffs) != self.phi:
            raise ValueError(f"expected {self.phi} coefficients")
        den = math.lcm(*[c.denominator for c in coeffs])
        return Cyc(self, tuple([c.numerator * (den // c.denominator)
                                for c in coeffs]), den)

    def from_rat(self, x):
        if isinstance(x, int):
            return Cyc(self, (int(x),) + self._pad)
        x = rat(x)
        return Cyc(self, (x.numerator,) + self._pad, x.denominator)

    def from_nums(self, nums, den):
        """The value sum_k nums[k] z^k / den, for ints nums and den > 0;
        the numerators past the last given one are 0."""
        nums = tuple(nums)
        return _lowest(self, nums + self._pad[len(nums) - 1:], den)

    def zeta(self, power: int = 1):
        power %= self.conductor
        if power < self.phi:
            mono = [0] * self.phi
            mono[power] = 1
            return Cyc(self, tuple(mono))
        return Cyc(self, self._zeta_powers[power])

    # -- boundary: Rat values and strings --------------------------------
    def as_rat(self, x):
        if not x.is_rational():
            raise ValueError(f"{self.format(x)} is not rational")
        return Rat(x.nums[0], x.den)

    _TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)(?:\*z(?:\^(\d+))?)?$")

    def format(self, x) -> str:
        """The terms a/d*z^k of x, each in lowest terms, read off the
        numerators with one gcd per term (none when x is integral)."""
        den = x.den
        terms = []
        for k, a in enumerate(x.nums):
            if not a:
                continue
            if den == 1:
                c = str(a)
            else:
                g = math.gcd(a, den)
                c = str(a // g) if g == den else f"{a // g}/{den // g}"
            if k == 0:
                terms.append(c)
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        return " + ".join(terms) if terms else "0"

    def parse(self, s: str):
        s = s.strip()
        if self.conductor == 1:
            return self.from_rat(Rat(s))
        if s == "0":
            return self.zero
        coeffs = [Rat(0)] * self.phi
        for term in s.split(" + "):
            m = self._TERM_RE.match(term.strip())
            if not m:
                raise ValueError(f"bad cyclotomic scalar {s!r}")
            c = rat(m.group(1))
            k = 0
            if term.find("*z") >= 0:
                k = int(m.group(2)) if m.group(2) else 1
            if k >= self.phi:
                raise ValueError(f"power z^{k} outside power basis in {s!r}")
            coeffs[k] += c
        return self.element(coeffs)

    def describe(self):
        if self.conductor == 1:
            return {"type": "rational"}
        return {"type": "cyclotomic", "conductor": self.conductor}

    def __repr__(self):
        return f"CyclotomicField({self.conductor})"


QQ = CyclotomicField(1)

# The largest degree phi(n) of a field that an input may name.  Recovery
# reduces lattices of dimension phi, which dominates an analysis from
# phi = 32 on: kS3 alone takes about 40 s at conductor 105 (phi = 48).
MAX_PHI = 48


def conductor_error(n: int):
    """Why an input may not name Q(zeta_n), n positive, or None; found
    without building the field.  phi(n) >= sqrt(n / 2), so a conductor
    above 2 MAX_PHI^2 is refused without counting its units."""
    if n > 2 * MAX_PHI ** 2:
        return (f"conductor {n} is above {2 * MAX_PHI ** 2}, so its "
                f"degree phi({n}) is above the limit {MAX_PHI}")
    phi = sum(math.gcd(u, n) == 1 for u in range(1, n + 1))
    if phi > MAX_PHI:
        return (f"conductor {n} has degree phi({n}) = {phi}, above the "
                f"limit {MAX_PHI}")
    return None


def field_from_descriptor(desc) -> CyclotomicField:
    """The field named by a JSON descriptor; ValueError when malformed or
    above ``MAX_PHI``."""
    kind = desc.get("type") if isinstance(desc, dict) else None
    if kind == "rational":
        return QQ
    if kind == "cyclotomic":
        n = desc.get("conductor")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("a cyclotomic field needs a positive integer "
                             f"conductor, not {n!r}")
        reason = conductor_error(n)
        if reason is not None:
            raise ValueError(reason)
        return CyclotomicField(n)
    raise ValueError(f"unknown field descriptor {desc!r}")


# ---------------------------------------------------------------------------
# prime fields and residue rings
# ---------------------------------------------------------------------------


class PrimeFieldElement:
    """Residue modulo a prime or prime power."""

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        self.residue = residue % modulus
        self.modulus = modulus

    def _check(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.modulus != self.modulus:
                raise ValueError("modulus mismatch")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.residue + o.residue, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.residue - o.residue, self.modulus)

    def __rsub__(self, other):
        o = self._check(other)
        return NotImplemented if o is NotImplemented else o - self

    def __neg__(self):
        return PrimeFieldElement(-self.residue, self.modulus)

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.residue * o.residue, self.modulus)

    __rmul__ = __mul__

    def inv(self):
        return PrimeFieldElement(pow(self.residue, -1, self.modulus), self.modulus)

    def __truediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._check(other)
        return NotImplemented if o is NotImplemented else o * self.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        return PrimeFieldElement(pow(self.residue, k, self.modulus), self.modulus)

    def __bool__(self):
        return self.residue != 0

    def __eq__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return self.residue == o.residue

    def __hash__(self):
        return hash((self.residue, self.modulus))

    def __repr__(self):
        return f"{self.residue} (mod {self.modulus})"
