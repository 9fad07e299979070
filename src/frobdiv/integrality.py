"""Integrality certification over Z and the divisibility verdicts.

An element a of a finite-dimensional Q(zeta_n)-algebra is integral over Z
exactly when its monic minimal polynomial over Q has integer coefficients
(Gauss).  The minimal polynomial comes from Krylov iteration: the powers
1, a, a^2, ... are produced by an operator ``times(v) = a v`` on sparse
coordinate vectors {index: scalar}, written out in coordinates over Q
(each coordinate a/den of a ``Cyc`` is the value a/den of ``QQ``), and
reduced until the first one depends on those before it.  Only vectors
are ever formed, never a matrix of a, and only their nonzero coordinates
are read.

For the Casimir element c of a symmetric algebra A the operator is
``FrobeniusStructure.casimir_times``, which multiplies by c through the swap
law c(a (x) 1) = (1 (x) a) c straight from the structure table of A, with
no product in A (x) A; each structure computes that certificate once.

A scalar needs no minimal polynomial.  Z[zeta_n] is the ring of integers of
Q(zeta_n), with 1, zeta, ..., zeta^(phi(n)-1) as an integral basis
(Washington, *Introduction to Cyclotomic Fields*, GTM 83, Thm 2.6), and a
``Cyc`` is kept in lowest terms on that basis, so a scalar is an algebraic
integer exactly when its denominator is 1 (``is_integral_scalar``).
"""

from __future__ import annotations

from .linalg import iterates, krylov_relation
from .scalars import QQ


class InapplicableHypothesis(Exception):
    pass


class EquivalenceViolation(Exception):
    """The two sides of a certified equivalence disagree; indicates a bug."""


class NotASymmetricHomomorphism(Exception):
    pass


class IntegralityCertificate:
    """Minimal polynomial over Q plus the integrality verdict.

    ``witness`` is (index, coefficient) for some non-integer coefficient
    when the verdict is negative.
    """

    def __init__(self, description, min_poly, integral, witness):
        self.description = description
        self.min_poly = min_poly          # ascending QQ coefficients, monic
        self.integral = integral
        self.witness = witness

    def __repr__(self):
        tag = "integral" if self.integral else "not integral"
        return f"IntegralityCertificate({self.description}: {tag})"

    def poly_strings(self):
        return [QQ.format(c) for c in self.min_poly]


def minimal_polynomial_over_Q(field, dim, unit, times):
    """Monic minimal polynomial over Q of an element of a dim-dimensional
    algebra over ``field``, as ascending QQ coefficients.  ``unit`` is the
    unit of the algebra and ``times(v)`` is the element times v, both as
    sparse vectors {index: scalar}; the powers are reduced as sparse rows
    of their nonzero coordinates over Q, the coordinate a/den of a scalar
    on the power basis flattened straight into the QQ value a/den."""
    phi = field.phi
    flat = ({i * phi + j: QQ.from_nums((a,), c.den) for i, c in vec.items()
             for j, a in enumerate(c.nums) if a}
            for vec in iterates(times, unit))
    return krylov_relation(QQ, dim * phi, flat)


def is_integral_over_Z(field, dim, unit, times, description="element"):
    poly = minimal_polynomial_over_Q(field, dim, unit, times)
    witness = None
    for i, c in enumerate(poly):
        if c.den != 1:
            witness = (i, c)
            break
    return IntegralityCertificate(description, poly, witness is None, witness)


def is_integral_scalar(x) -> bool:
    """Whether the scalar x of Q(zeta_n) is an algebraic integer: its
    denominator on the integral power basis is 1."""
    return x.den == 1


# ---------------------------------------------------------------------------
# divisibility verdicts
# ---------------------------------------------------------------------------


class DivisibilityVerdict:
    def __init__(self, holds, gamma_one, degrees, direct, casimir_cert):
        self.holds = holds
        self.gamma_one = gamma_one        # the integer u with Gamma(1) = u 1
        self.degrees = degrees
        self.direct = direct              # list of bool, d(S) | u
        self.casimir_cert = casimir_cert

    def __repr__(self):
        return (f"DivisibilityVerdict(holds={self.holds}, "
                f"Gamma(1)={self.gamma_one}, degrees={self.degrees})")


def _gamma_one_integer(frobenius):
    scal = frobenius.gamma_one_scalar
    if scal is None:
        raise InapplicableHypothesis("Gamma(1) is not a scalar multiple "
                                     "of the unit")
    if not scal.is_rational():
        raise InapplicableHypothesis("Gamma(1) is not rational")
    if scal.den != 1:
        shown = frobenius.field.format(scal)
        raise InapplicableHypothesis(f"Gamma(1) = {shown} is not a rational "
                                     "integer")
    return scal.nums[0]


def frobenius_divisibility_verdict(frobenius, data):
    """Divides-verdict with both routes computed independently: direct
    division tests d(S) | Gamma(1), and integrality of the Casimir element
    in A (x) A.  The routes must agree."""
    if not all(data.split_certified):
        raise InapplicableHypothesis("non-split component present")
    u = _gamma_one_integer(frobenius)
    direct = [u % d == 0 for d in data.degrees]
    cert = frobenius.casimir_certificate()
    if all(direct) != cert.integral:
        raise EquivalenceViolation(
            f"direct division {direct} vs casimir integrality "
            f"{cert.integral}")
    return DivisibilityVerdict(cert.integral, u, list(data.degrees),
                               direct, cert)


# ---------------------------------------------------------------------------
# relative divisibility along a symmetric homomorphism
# ---------------------------------------------------------------------------


class RelativeReport:
    def __init__(self, induced_dims, scalars, integral, ratio_checks):
        self.induced_dims = induced_dims
        self.scalars = scalars
        self.integral = integral          # list of bool, one per scalar
        self.ratio_checks = ratio_checks


def verify_symmetric_homomorphism(A, lam, B, mu, images,
                                  multiplicative=False):
    """Check that the linear map phi with phi(x_k) = images[k] in B is a
    homomorphism of symmetric algebras (A, lambda) -> (B, mu): unit to
    unit, multiplicative, and mu o phi = lambda.  Unless the caller has
    proven phi ``multiplicative``, every basis pair is checked, with
    phi(x_i x_j) read off the table of A
    (``algebra.first_non_multiplicative_pair``).  Raises
    NotASymmetricHomomorphism naming the first failure."""
    from .algebra import combine, first_non_multiplicative_pair
    if combine((c, images[k]) for k, c in A.unit.items()) != B.unit:
        raise NotASymmetricHomomorphism("unit not preserved")
    pair = (None if multiplicative
            else first_non_multiplicative_pair(A, B, images))
    if pair is not None:
        raise NotASymmetricHomomorphism(
            "multiplicativity fails at basis pair ({},{})".format(*pair))
    for i, image in enumerate(images):
        if B.apply_form(mu, image) != lam.get(i, B.field.zero):
            raise NotASymmetricHomomorphism(
                f"mu o phi != lambda at basis index {i}")


def relative_divisibility(A, frob_A, data_A, B, frob_B, images):
    """Per-block report for a homomorphism of symmetric algebras
    (A, lambda) -> (B, mu), phi(x_k) = images[k]: induced dimensions, the
    scalars Gamma^mu(1)/dim Ind, whether each is an algebraic integer, and the
    exact equality Gamma^mu(1)/dim Ind = Gamma^lambda(1)_S / d(S).  The
    caller proves that phi is such a homomorphism
    (``verify_symmetric_homomorphism`` or, for a character map,
    ``hopf.representation_ring``)."""
    from .algebra import combine
    from .wedderburn import gamma_one_eigenvalue
    field = A.field
    if not frob_A.casimir_certificate().integral:
        raise InapplicableHypothesis("source Casimir element is not "
                                     "integral over Z")
    mu_scalar = frob_B.gamma_one_scalar
    if mu_scalar is None:
        raise InapplicableHypothesis("Gamma^mu(1) is not scalar")

    # phi(e_S) is an idempotent, so R_phi(e_S) is a projection: its rank is
    # its trace, the right-regular character rho of B at phi(e_S)
    rho = B.right_regular_character()
    induced_dims, scalars, integral, ratio_checks = [], [], [], []
    for s, e in enumerate(data_A.idempotents):
        trace = B.apply_form(rho, combine((c, images[k])
                                          for k, c in e.items()))
        if not trace.is_rational() or trace.den != 1 or trace.nums[0] < 0:
            raise InapplicableHypothesis(
                f"induced module of block {s} has trace "
                f"{field.format(trace)}, not a rank")
        rank = trace.nums[0]
        d = data_A.degrees[s]
        if rank == 0 or rank % d != 0:
            raise InapplicableHypothesis(
                f"induced module of block {s} is degenerate (rank {rank})")
        dim_ind = rank // d
        scal = mu_scalar / dim_ind
        induced_dims.append(dim_ind)
        scalars.append(scal)
        integral.append(is_integral_scalar(scal))
        gam_s = gamma_one_eigenvalue(frob_A, data_A, s)
        ratio_checks.append(scal == gam_s / d)
    return RelativeReport(induced_dims, scalars, integral, ratio_checks)
