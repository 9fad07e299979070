"""Hopf-algebra layer: axioms, integrals, the Hopf Casimir element, duals,
constructors (group algebra, dual, Drinfeld double), representation ring,
and the theorem checkers (divisibility, Zhu, class equation, factorizability
and Schneider).

A ``HopfAnalysis`` session holds the artefacts the checkers share: the
integrals, the Frobenius structures of (H, lambda) and (H*, Lambda0), the
Wedderburn split, the representation ring and the quasitriangular data.
Each is built on first use and kept, so one session builds each once; the
checkers take the session as their one argument.

Every element of H (x) H is a sparse dict mapping the flat index
i*dim + k of e_i (x) e_k to its nonzero coefficient: ``delta[j]`` =
Delta(x_j), the Casimir element, the R-matrix and b = tau(R) R.  The
axioms and the theorems apply a few maps to such elements, each written
once: S on one leg (``algebra.map_leg`` on ``antipode_columns``, the
sparse columns S(x_j) that ``HopfAlgebraData`` stores), Delta on one leg
(``HopfAlgebraData.delta_on_leg``), the product m(z)
(``algebra.multiply_legs``, which also gives Gamma(1) = m(c)), and the
contractions ``contract_left/right``.  So the Casimir element is
S(Lambda_1) (x) Lambda_2 in four placements, the Zhu element is
Lambda <- chi_{S*} = (chi o S (x) Id)(Delta Lambda), and lambda is an
integral of H* when (Id (x) lambda) Delta = lambda 1 = (lambda (x) Id) Delta.
The Drinfeld map Phi(f) = b1 <f, b2> is read off b with
``contract_right``, and its rank from the rows of b.  The character map
chi of the representation ring sends the basis of R to ``W.characters``,
and Psi = Phi o chi sends it to the Phi(chi_S).  A linear map between
algebras is passed as the list of images of the basis.  No check reads
the dense ``Matrix`` view ``HopfAlgebraData.antipode``.

Identities are certified on a small witness, and a full scan runs only
to name a failure.  ``verify_hopf`` proves Delta and eps multiplicative on
the pairs (x_j, s) for s in the generating set of Light's test
(``StructureConstantAlgebra.generating_set``).  The fusion rules are
read off the central primitive idempotents e_u, N_st^u =
(chi_s chi_t)(e_u) / d_u mod a prime, and certified exactly on integer
numerators (``fusion_rules``).  Psi lands in the span of the e_S, where
products are pointwise, so its multiplicativity is r^3 scalar checks
(``psi_on_blocks``).
"""

from __future__ import annotations

import functools
from operator import add

from .algebra import (StructureConstantAlgebra, TensorSquareAlgebra,
                      VerificationReport, _add_into, _clean, _common_den,
                      _num_arith, _nums, _times_den, contract_left,
                      contract_right, first_non_multiplicative_pair,
                      frobenius_structure, integral_product, linear_image,
                      map_leg, multiply_legs, tensor_dict)
from .groups import FiniteGroup
from .integrality import (InapplicableHypothesis,
                          frobenius_divisibility_verdict,
                          is_integral_scalar, relative_divisibility,
                          verify_symmetric_homomorphism)
from .linalg import EchelonSubspace, Matrix, sparse
from .modular import BadPrime, _int_poly_eval, component_roots, reduce_scalar
from .scalars import CyclotomicField, QQ, Rat
from .wedderburn import WedderburnData, central_primitive_idempotents


class HopfError(Exception):
    pass


class NotUnimodular(HopfError):
    pass


class NormalizationImpossible(HopfError):
    pass


class NonIntegralFusion(HopfError):
    pass


class HopfAlgebraData:
    """H with Delta(x_j) = ``delta[j]`` and the antipode as its sparse
    columns S(x_j) = {i: S_ij}, kept in ascending i without zeros."""

    def __init__(self, algebra: StructureConstantAlgebra, delta, counit,
                 antipode_columns, name=""):
        self.algebra = algebra
        self.delta = [dict(d) for d in delta]
        self.counit = list(counit)
        self.antipode_columns = [{i: c for i, c in sorted(col.items()) if c}
                                 for col in antipode_columns]
        self.name = name or algebra.name

    @functools.cached_property
    def antipode(self):
        """S as a dense ``Matrix``, built from the columns on first read.
        The library never reads it; the tests' oracles and the benchmark's
        tracer (``perfbench/traced.py``) do."""
        zero = self.field.zero
        return Matrix.from_columns(self.field, [
            [col.get(i, zero) for i in range(self.dim)]
            for col in self.antipode_columns])

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def field(self):
        return self.algebra.field

    def delta_of(self, vec):
        """Delta applied to a coefficient vector, as a sparse flat dict."""
        out = {}
        for j, c in enumerate(vec):
            if not bool(c):
                continue
            for idx, d in self.delta[j].items():
                cur = out.get(idx)
                val = c * d
                out[idx] = val if cur is None else cur + val
        return _clean(out)

    def counit_of(self, vec):
        val = self.field.zero
        for c, e in zip(vec, self.counit):
            val = val + c * e
        return val

    def antipode_of(self, vec):
        """S applied to a coefficient vector, through the columns."""
        out = self.algebra.zero_vec()
        for col, c in zip(self.antipode_columns, vec):
            if c:
                for i, s in col.items():
                    out[i] = out[i] + c * s
        return out

    def after_antipode(self, form):
        """The linear form f o S for f given by its values on the basis."""
        zero = self.field.zero
        return [sum((form[i] * s for i, s in col.items() if form[i]), zero)
                for col in self.antipode_columns]

    def delta_on_leg(self, z, first):
        """(Delta (x) Id)(z) when ``first``, else (Id (x) Delta)(z), for z in
        H (x) H: a sparse triple tensor keyed (a, b, c)."""
        n = self.dim
        out = {}
        for idx, c in z.items():
            i, j = divmod(idx, n)
            for idx2, d in self.delta[i if first else j].items():
                a, b = divmod(idx2, n)
                _add_into(out, (a, b, j) if first else (i, a, b), c * d)
        return _clean(out)

    def __repr__(self):
        return f"HopfAlgebraData({self.name or 'H'}, dim={self.dim})"


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def verify_hopf(H: HopfAlgebraData) -> VerificationReport:
    """All bialgebra and Hopf axioms, plus the involutory condition, checked
    on the sparse structure constants, comultiplication and antipode.

    Multiplicativity of Delta and eps is proven on the n |S| pairs
    (x_j, s), s in the generating set S of Light's test, when A passed
    its axioms; otherwise, or when one pair fails, all n^2 pairs are
    checked and name the failures."""
    report = H.algebra.verify()
    algebra_ok = report.passed
    A = H.algebra
    field = H.field
    n = H.dim
    table = A.table
    T = TensorSquareAlgebra(A)

    # coassociativity and counit axioms, per basis element
    for j, dj in enumerate(H.delta):
        report.record(H.delta_on_leg(dj, True) == H.delta_on_leg(dj, False),
                      ("coassociativity", j))
        basis = A.basis_vec(j)
        report.record(contract_left(field, H.counit, dj, n) == basis,
                      ("counit-left", j))
        report.record(contract_right(field, H.counit, dj, n) == basis,
                      ("counit-right", j))

    # Delta and counit are algebra maps: compare Delta(x_i x_j), summed over
    # table[i][j], with Delta(x_i) Delta(x_j) in A (x) A
    delta_unit = H.delta_of(A.unit) == tensor_dict(field, A.unit, A.unit)
    counit_unit = H.counit_of(A.unit) == field.one
    report.record(delta_unit, ("delta-unit",))
    report.record(counit_unit, ("counit-unit",))

    def multiplicative(i, j):
        lhs = {}
        eps_prod = field.zero
        for k, c in table[i][j].items():
            for idx, d in H.delta[k].items():
                _add_into(lhs, idx, c * d)
            eps_prod = eps_prod + c * H.counit[k]
        return (_clean(lhs) == T.mult(H.delta[i], H.delta[j]),
                eps_prod == H.counit[i] * H.counit[j])

    # Once A is associative, Delta(1) = 1 (x) 1 and eps(1) = 1, the t with
    # Delta(x t) = Delta(x) Delta(t) for all x are closed under products,
    # and so are those with eps(x t) = eps(x) eps(t): the pairs (x_j, s)
    # for s in A.generating_set prove both maps multiplicative
    gens = (A.generating_set if algebra_ok and delta_unit and counit_unit
            else None)
    if not (gens and all(all(multiplicative(j, s)) for j in range(n)
                         for s in gens)):
        for i in range(n):
            for j in range(n):
                delta_ok, counit_ok = multiplicative(i, j)
                report.record(delta_ok, ("delta-multiplicative", i, j))
                report.record(counit_ok, ("counit-multiplicative", i, j))

    # antipode axiom, both sides, on the sparse columns S(x_i)
    scols = H.antipode_columns
    unit = sparse(A.unit)
    for j, dj in enumerate(H.delta):
        target = _clean({t: H.counit[j] * u for t, u in unit.items()})
        report.record(multiply_legs(A, map_leg(dj, scols, n, True))
                      == target, ("antipode-left", j))
        report.record(multiply_legs(A, map_leg(dj, scols, n, False))
                      == target, ("antipode-right", j))

    # S(S(x_j)) = x_j for every j
    involutory = True
    for j in range(n):
        s2 = {}
        for r, s in scols[j].items():
            for t, d in scols[r].items():
                _add_into(s2, t, s * d)
        involutory = involutory and _clean(s2) == {j: field.one}
    report.record(involutory, ("involutory",))
    return report


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------


class IntegralData:
    """Two-sided integral Lambda with <eps, Lambda> = dim H, the form
    lambda = chi_reg / dim, and Lambda0 = Lambda / dim."""

    def __init__(self, Lambda, lam, Lambda0):
        self.Lambda = Lambda
        self.lam = lam
        self.Lambda0 = Lambda0


def integrals(H: HopfAlgebraData) -> IntegralData:
    A = H.algebra
    field = H.field
    n = H.dim
    space = EchelonSubspace(field, n,
                            _left_integral_conditions(H)).kernel().basis
    if not space:
        raise NormalizationImpossible("no nonzero left integral")
    if len(space) != 1:
        raise HopfError(f"left integral space has dimension {len(space)}")
    raw = space[0]
    # Lambda x_h = eps(h) Lambda, read off the table
    support = sparse(raw)
    for h in range(n):
        if (multiply_legs(A, {k * n + h: x for k, x in support.items()})
                != _clean({k: H.counit[h] * x for k, x in support.items()})):
            raise NotUnimodular(f"left integral is not right at basis {h}")
    s = H.counit_of(raw)
    if not bool(s):
        raise NormalizationImpossible("<eps, Lambda> = 0")
    scale = field.from_rat(Rat(n)) / s
    Lambda = [scale * x for x in raw]

    inv_dim = field.from_rat(Rat(1, n))
    lam = [inv_dim * c for c in A.regular_character()]
    if A.apply_form(lam, Lambda) != field.one:
        raise HopfError("<lambda, Lambda> != 1")
    if A.apply_form(lam, A.unit) != field.one:
        raise HopfError("<lambda, 1> != 1")
    # lambda is a two-sided integral of H*:
    # (Id (x) lambda) Delta(x_k) = lambda(x_k) 1 = (lambda (x) Id) Delta(x_k)
    for k, dk in enumerate(H.delta):
        want = [lam[k] * u for u in A.unit]
        if (contract_right(field, lam, dk, n) != want
                or contract_left(field, lam, dk, n) != want):
            raise HopfError("lambda is not a two-sided integral of the dual")
    Lambda0 = [inv_dim * x for x in Lambda]
    return IntegralData(Lambda, lam, Lambda0)


def _left_integral_conditions(H):
    """Lambda is a left integral iff sum_k Lambda_k c_hk^r = eps(h) Lambda_r
    for all h, r: the rows of that system, one index h at a time."""
    table = H.algebra.table
    n = H.dim
    for h in range(n):
        row_h = table[h]
        rows = {}
        for k in range(n):
            for r, c in row_h[k].items():
                _add_into(rows.setdefault(r, {}), k, c)
        eps = H.counit[h]
        if eps:
            for r in range(n):
                _add_into(rows.setdefault(r, {}), r, -eps)
        yield from rows.values()


# ---------------------------------------------------------------------------
# analysis session
# ---------------------------------------------------------------------------


class HopfAnalysis:
    """One analysis of a Hopf algebra H that has passed ``verify_hopf``,
    with its R-matrix R (a sparse dict on H (x) H) when it has one.

    Each artefact below is built on first read and kept; assigning to one
    replaces it, which is how the tests inject a corrupted artefact.
    ``prime`` is the prime of the Wedderburn splits of H and of its
    representation ring."""

    def __init__(self, H: HopfAlgebraData, R=None, prime=None):
        self.H = H
        self.R = R
        self.prime = prime

    @functools.cached_property
    def integrals(self) -> IntegralData:
        return integrals(self.H)

    @functools.cached_property
    def frobenius(self):
        """The Frobenius structure of (H, lambda)."""
        return frobenius_structure(self.H.algebra, self.integrals.lam)

    @functools.cached_property
    def dual(self) -> StructureConstantAlgebra:
        """H* with the convolution product."""
        return dual_algebra(self.H)

    @functools.cached_property
    def dual_frobenius(self):
        """The Frobenius structure of (H*, Lambda0); its algebra is H*."""
        return frobenius_structure(self.dual, self.integrals.Lambda0)

    @functools.cached_property
    def wedderburn(self) -> WedderburnData:
        return central_primitive_idempotents(self.H.algebra, self.frobenius,
                                             prime=self.prime)

    @functools.cached_property
    def ring(self) -> RepresentationRing:
        return representation_ring(self)

    @functools.cached_property
    def quasitriangular(self) -> QuasitriangularData:
        return quasitriangular_verify(self.H, self.R)

    @functools.cached_property
    def factorizable(self) -> FactorizableVerdict:
        return factorizable_check(self.quasitriangular)


# ---------------------------------------------------------------------------
# Hopf Casimir element
# ---------------------------------------------------------------------------


def hopf_casimir(session: HopfAnalysis):
    """The Casimir element of (H, lambda) from the integral, in all four
    antipode placements, cross-checked against the dual-basis construction;
    also asserts Gamma^lambda(1) = dim 1 and Gamma^Lambda(eps) = eps, the
    latter as Gamma^Lambda0(eps) = dim eps, since Lambda0 = Lambda / dim."""
    H = session.H
    A = H.algebra
    field = H.field
    n = H.dim
    # both structures first: a degenerate form is reported before the
    # Casimir expressions are compared
    frob, dual_frob = session.frobenius, session.dual_frobenius
    dL = H.delta_of(session.integrals.Lambda)
    scols = H.antipode_columns
    c1 = map_leg(dL, scols, n, True)          # S(Lambda_1) (x) Lambda_2
    c2 = map_leg(dL, scols, n, True, True)    # Lambda_2 (x) S(Lambda_1)
    c3 = map_leg(dL, scols, n, False, True)   # S(Lambda_2) (x) Lambda_1
    c4 = map_leg(dL, scols, n, False)         # Lambda_1 (x) S(Lambda_2)
    if not (c1 == c2 == c3 == c4):
        raise HopfError("four Casimir expressions disagree")

    if frob.casimir != c1:
        raise HopfError("integral Casimir differs from the dual-basis one")
    dim_scalar = field.from_rat(Rat(n))
    if frob.gamma_one() != [dim_scalar * u for u in A.unit]:
        raise HopfError("Gamma^lambda(1) != dim H")

    if dual_frob.gamma_one() != [dim_scalar * e for e in H.counit]:
        raise HopfError("Gamma^Lambda(eps) != 1")
    return c1


# ---------------------------------------------------------------------------
# duals and constructors
# ---------------------------------------------------------------------------


def dual_algebra(H: HopfAlgebraData) -> StructureConstantAlgebra:
    """H* with the convolution product, on the dual basis."""
    n = H.dim
    table = [[{} for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for idx, c in H.delta[k].items():
            i, j = divmod(idx, n)
            table[i][j][k] = c
    return StructureConstantAlgebra(H.field, n, table, list(H.counit),
                                    name=(H.name + "*") if H.name else "dual")


def dual_hopf(H: HopfAlgebraData) -> HopfAlgebraData:
    A = H.algebra
    n = H.dim
    dual = dual_algebra(H)
    delta = [dict() for _ in range(n)]
    for i in range(A.dim):
        for j in range(A.dim):
            for k, c in A.table[i][j].items():
                _add_into(delta[k], i * n + j, c)
    counit = list(A.unit)
    # S* is the transpose of S: column i of S* is row i of S
    scols = [{} for _ in range(n)]
    for k, col in enumerate(H.antipode_columns):
        for i, c in col.items():
            scols[i][k] = c
    return HopfAlgebraData(dual, [_clean(d) for d in delta], counit, scols,
                           name=(H.name + "*") if H.name else "dual")


def group_algebra(G: FiniteGroup, field=None, conductor=None):
    """kG with the group-like Hopf structure."""
    if field is None:
        field = (CyclotomicField(conductor) if conductor and conductor > 1
                 else QQ)
    n = G.order
    table = [[{G.table[i][j]: field.one} for j in range(n)]
             for i in range(n)]
    unit = [field.one if i == G.identity else field.zero for i in range(n)]
    A = StructureConstantAlgebra(field, n, table, unit, name=f"k[{G.name}]")
    delta = [{j * n + j: field.one} for j in range(n)]
    counit = [field.one] * n
    S = [{G.inverse[j]: field.one} for j in range(n)]
    return HopfAlgebraData(A, delta, counit, S, name=f"k[{G.name}]")


def drinfeld_double(G: FiniteGroup, field=None, conductor=None,
                    verify=True):
    """D(G) on the basis delta_x (x) g (flat index x*|G| + g), with its
    canonical R-matrix.  Returns (HopfAlgebraData, QuasitriangularData)."""
    if field is None:
        field = (CyclotomicField(conductor or G.exponent)
                 if (conductor or G.exponent) > 1 else QQ)
    m = G.order
    n = m * m
    one, zero = field.one, field.zero
    inv = G.inverse
    tbl = G.table

    def idx(x, g):
        return x * m + g

    table = [[{} for _ in range(n)] for _ in range(n)]
    for x in range(m):
        for g in range(m):
            a = idx(x, g)
            for y in range(m):
                if tbl[tbl[g][y]][inv[g]] != x:
                    continue
                for h in range(m):
                    table[a][idx(y, h)][idx(x, tbl[g][h])] = one
    e = G.identity
    unit = [zero] * n
    # 1 = sum_x delta_x (x) e
    for x in range(m):
        unit[idx(x, e)] = one
    A = StructureConstantAlgebra(field, n, table, unit, name=f"D({G.name})")

    delta = [dict() for _ in range(n)]
    counit = [zero] * n
    for x in range(m):
        for g in range(m):
            a = idx(x, g)
            for u in range(m):
                v = tbl[inv[u]][x]
                delta[a][idx(u, g) * n + idx(v, g)] = one
            counit[a] = one if x == e else zero
    # S(delta_x (x) g) = delta_{g^-1 x^-1 g} (x) g^-1
    S = [{idx(tbl[tbl[inv[g]][inv[x]]][g], inv[g]): one}
         for x in range(m) for g in range(m)]
    H = HopfAlgebraData(A, delta, counit, S, name=f"D({G.name})")

    R = {idx(g, e) * n + idx(y, g): one for g in range(m) for y in range(m)}
    Q = quasitriangular_verify(H, R) if verify else None
    return H, Q


def double_projection(G: FiniteGroup, double: HopfAlgebraData,
                      target: HopfAlgebraData):
    """The surjection D(G) ->> kG, delta_x (x) g -> [x = e] g, as the
    images of the basis of D(G), verified to be a map of Hopf algebras."""
    A = target.algebra
    images = [A.basis_vec(g) if x == G.identity else A.zero_vec()
              for x in range(G.order) for g in range(G.order)]
    _verify_hopf_map(double, target, images)
    return images


def _verify_hopf_map(H1, H2, images):
    """Check that the linear map with x_j -> images[j] is a map of Hopf
    algebras H1 -> H2: unit, products, counit, comultiplication and
    antipode."""
    A1, A2 = H1.algebra, H2.algebra
    if linear_image(A2, images, enumerate(A1.unit)) != A2.unit:
        raise HopfError("map does not preserve the unit")
    pair = first_non_multiplicative_pair(A1, A2, images)
    if pair is not None:
        raise HopfError("map not multiplicative at ({},{})".format(*pair))
    n1 = A1.dim
    for j, image in enumerate(images):
        if H1.counit[j] != H2.counit_of(image):
            raise HopfError(f"map does not preserve the counit at {j}")
        lhs = {}
        for idx, c in H1.delta[j].items():
            a, b = divmod(idx, n1)
            for k, v in tensor_dict(A2.field, images[a], images[b]).items():
                _add_into(lhs, k, c * v)
        if _clean(lhs) != H2.delta_of(image):
            raise HopfError(f"map does not preserve comultiplication at {j}")
        if (linear_image(A2, images, H1.antipode_columns[j].items())
                != H2.antipode_of(image)):
            raise HopfError(f"map does not preserve the antipode at {j}")


# ---------------------------------------------------------------------------
# representation ring and character map
# ---------------------------------------------------------------------------


class RepresentationRing:
    """R_k(H) on the basis of irreducible characters inside H*.

    ``ring`` is the StructureConstantAlgebra with the fusion constants; the
    character map sends its basis element s to ``W.characters[s]`` in H*.
    ``dual_index[s]`` is the index of S* with chi_{S*} = chi_S o antipode.
    ``frobenius`` is the ring's Frobenius structure for the form
    [V] -> dim V^H and ``wedderburn`` its split, shared by the
    class-equation and Schneider checks.
    """

    def __init__(self, ring, dual_index, frobenius, wedderburn):
        self.ring = ring
        self.dual_index = dual_index
        self.frobenius = frobenius
        self.wedderburn = wedderburn


def representation_ring(session: HopfAnalysis) -> RepresentationRing:
    H, W = session.H, session.wedderburn
    field = H.field
    r = W.num_blocks
    chars = W.characters
    table = [[{u: field.from_int(N) for u, N in cell.items()} for cell in row]
             for row in fusion_rules(session.dual, W)]

    # unit of the ring: the trivial character (fusion row acts as identity)
    one = next((s for s in range(r)
                if all(table[s][t] == {t: field.one} for t in range(r))),
               None)
    if one is None:
        raise NonIntegralFusion("no unit among the characters")
    # with the exact fusion rule above and delta = Lambda0 o chi below, chi
    # is a homomorphism of symmetric algebras (R, delta) -> (H*, Lambda0)
    if list(chars[one]) != H.counit:
        raise NonIntegralFusion("the unit of the ring is not the counit")
    unit = [field.one if u == one else field.zero for u in range(r)]
    ring = StructureConstantAlgebra(field, r, table, unit,
                                    name=f"R({H.name})" if H.name else "R")

    delta_form = []
    for s in range(r):
        val = field.zero
        for c, l0 in zip(chars[s], session.integrals.Lambda0):
            val = val + c * l0
        if not field.is_rational(val):
            raise NonIntegralFusion("delta form value not rational")
        q = field.as_rat(val)
        if q.denominator != 1 or q < 0:
            raise NonIntegralFusion(f"delta([S_{s}]) = {q} not a "
                                    "nonnegative integer")
        delta_form.append(field.from_rat(q))
    if [bool(v) for v in delta_form] != [bool(u) for u in unit]:
        raise NonIntegralFusion("delta form does not pick out the trivial "
                                "character")

    dual_index = []
    for s in range(r):
        twisted = H.after_antipode(chars[s])
        match = [t for t in range(r) if list(chars[t]) == twisted]
        if len(match) != 1:
            raise HopfError(f"chi_{s} o S is not an irreducible character")
        dual_index.append(match[0])
    frob_R = frobenius_structure(ring, delta_form)
    data_R = central_primitive_idempotents(ring, frob_R,
                                           prime=session.prime)
    return RepresentationRing(ring, dual_index, frob_R, data_R)


def fusion_rules(dual, W):
    """The fusion constants N_st^u >= 0 with chi_s chi_t = sum_u N_st^u
    chi_u in H* (``dual``), for the characters of the split W of H: one
    list of dicts {u: N} without zeros per s.

    chi_v(e_u) = d_u [v = u], so N_st^u = (chi_s chi_t)(e_u) / d_u.  It is
    read mod the prime of W at one root and lifted into [0, d_s d_t], then
    certified exactly on integer numerators: with delta the common
    denominator of the characters and D that of the table of H*,
    D delta^2 chi_s chi_t (``integral_product``) equals
    D delta sum_u N_st^u delta chi_u.  When a reading fails its
    certificate, or none can be made mod p, the coefficients are taken
    exactly in the base field (``_exact_fusion``), which rejects the pair
    when its product leaves the character span or a coefficient is not a
    nonnegative integer."""
    field = dual.field
    D = dual.integral_table[0]
    delta = _common_den(c for chi in W.characters for c in chi)
    pad = _num_arith(field)[1]
    nums = [[(k, _nums(_times_den(c, delta), pad))
             for k, c in enumerate(chi) if c] for chi in W.characters]
    reading = _fusion_reading(field, W, D * delta * delta)
    out = []
    for s, a in enumerate(nums):
        row = []
        for t, b in enumerate(nums):
            prod = integral_product(dual, a, b)
            N = None if reading is None else reading(prod, W.degrees[s]
                                                     * W.degrees[t])
            if N is None or _fusion_combination(nums, N, D * delta) != prod:
                N = _exact_fusion(field, W, prod, D * delta * delta, s, t)
            row.append(N)
        out.append(row)
    return out


def _fusion_reading(field, W, scale):
    """The map (D delta^2 chi_s chi_t, d_s d_t) -> {u: N_st^u}, read off
    (chi_s chi_t)(e_u) / d_u mod the prime p of W at its first root and
    lifted into [0, d_s d_t] (None when a value lies outside); None when
    some e_u or scale d_u does not reduce mod p."""
    p = W.prime_used
    w = component_roots(field.conductor, p, 1)[0][0]
    try:
        idems = [[(k, reduce_scalar(x, w, p)) for k, x in enumerate(e) if x]
                 for e in W.idempotents]
        invs = [pow(scale * d, -1, p) for d in W.degrees]
    except (BadPrime, ValueError):
        return None

    def read(prod, bound):
        at_w = {k: _int_poly_eval(v, w, p) for k, v in prod.items()}
        N = {}
        for u, (e, inv) in enumerate(zip(idems, invs)):
            val = sum(at_w[k] * x for k, x in e if k in at_w) * inv % p
            if val > bound:
                return None
            if val:
                N[u] = val
        return N

    return read


def _fusion_combination(nums, N, scale):
    """scale sum_u N_u nums[u] as {k: numerator tuple} without zeros."""
    out = {}
    for u, m in N.items():
        f = scale * m
        for k, v in nums[u]:
            v = tuple([f * x for x in v])
            cur = out.get(k)
            out[k] = v if cur is None else tuple(map(add, cur, v))
    return {k: v for k, v in out.items() if any(v)}


def _exact_fusion(field, W, prod, scale, s, t):
    """{u: N_st^u} from the exact coefficients (chi_s chi_t)(e_u) / d_u,
    with chi_s chi_t = prod / scale; raises NonIntegralFusion when the
    product is not the combination of the characters with these
    coefficients, or when a coefficient is not a nonnegative integer."""
    value = {k: field.from_nums(v, scale) for k, v in prod.items()}
    coeffs = [sum((value[k] * x for k, x in enumerate(e)
                   if x and k in value), field.zero) / field.from_int(d)
              for e, d in zip(W.idempotents, W.degrees)]
    combo = {}
    for c, chi in zip(coeffs, W.characters):
        if c:
            for k, x in enumerate(chi):
                if x:
                    _add_into(combo, k, c * x)
    if _clean(combo) != value:
        raise NonIntegralFusion("character product leaves the "
                                "character span")
    N = {}
    for u, c in enumerate(coeffs):
        if not field.is_rational(c):
            raise NonIntegralFusion("non-rational fusion constant")
        q = field.as_rat(c)
        if q.denominator != 1 or q < 0:
            raise NonIntegralFusion(f"fusion constant {q} at ({s},{t})")
        if q:
            N[u] = int(q)
    return N


# ---------------------------------------------------------------------------
# theorem checkers
# ---------------------------------------------------------------------------


def frobenius_divisibility_hopf(session: HopfAnalysis):
    """The FD pipeline: the Hopf Casimir element with all its cross-checks,
    then the divisibility verdict for lambda on the Wedderburn split.

    H must already have passed ``verify_hopf``; like the other checkers,
    this does not check the axioms again."""
    hopf_casimir(session)
    return frobenius_divisibility_verdict(
        session.H.algebra, session.frobenius, session.wedderburn)


class ZhuEntry:
    def __init__(self, index, degree, central, identity_ok, integral,
                 divides):
        self.index = index
        self.degree = degree
        self.central = central
        self.identity_ok = identity_ok
        self.integral = integral
        self.divides = divides


def zhu_check(session: HopfAnalysis):
    """Per-irreducible check: when chi_S is central in H*, the element
    Lambda <- chi_{S*} equals e(S) dim H / d(S), has integral coefficients,
    and d(S) | dim H follows."""
    H, W = session.H, session.wedderburn
    field = H.field
    n = H.dim
    dual = session.dual_frobenius.algebra
    dL = H.delta_of(session.integrals.Lambda)
    out = []
    for s in range(W.num_blocks):
        chi = list(W.characters[s])
        central = dual.is_central(chi)
        if not central:
            out.append(ZhuEntry(s, W.degrees[s], False, None, None, None))
            continue
        # Lambda <- chi_{S*} = (chi o S (x) Id)(Delta Lambda)
        hit = contract_left(field, H.after_antipode(chi), dL, n)
        d = W.degrees[s]
        scale = field.from_rat(Rat(n, d))
        identity_ok = hit == [scale * x for x in W.idempotents[s]]
        integral = all(map(is_integral_scalar, hit))
        divides = n % d == 0
        if integral and not divides:
            raise HopfError("integral hit but degree does not divide dim; "
                            "internal inconsistency")
        out.append(ZhuEntry(s, d, True, identity_ok, integral, divides))
    return out


class ClassEquationReport:
    def __init__(self, induced_dims, scalars_integral, dim):
        self.induced_dims = induced_dims
        self.scalars_integral = scalars_integral
        self.dim = dim

    @property
    def holds(self):
        return all(self.scalars_integral) and all(
            self.dim % m == 0 for m in self.induced_dims)


def class_equation_check(session: HopfAnalysis):
    """dim Ind from R_k(H) to H* divides dim H, for every irreducible of
    the representation ring; cross-checked through relative_divisibility
    along the character map, with Frobenius forms delta and Lambda0.
    ``representation_ring`` has proven that the character map is a
    homomorphism of these symmetric algebras."""
    RR, dual_frob = session.ring, session.dual_frobenius
    rep = relative_divisibility(RR.ring, RR.frobenius, RR.wedderburn,
                                dual_frob.algebra, dual_frob,
                                session.wedderburn.characters)
    if not all(rep.ratio_checks):
        raise HopfError("relative-divisibility ratio check failed")
    return ClassEquationReport(rep.induced_dims, rep.integral, session.H.dim)


# ---------------------------------------------------------------------------
# quasitriangular structures
# ---------------------------------------------------------------------------


class QuasitriangularData:
    """R and b = tau(R) R as sparse dicts on H (x) H, with the report of
    the axioms.  b is the Drinfeld map Phi(f) = b1 <f, b2>: Phi(f) is
    ``contract_right(field, f, b, dim)``."""

    def __init__(self, H, R, b, report):
        self.H = H
        self.R = R
        self.b = b
        self.report = report


def quasitriangular_verify(H: HopfAlgebraData, R) -> QuasitriangularData:
    """The three quasitriangular axioms plus invertibility of R (an
    element of H (x) H); builds b = tau(R) R, from which
    Phi(f) = b1 <f, b2> is read.

    H must be a verified Hopf algebra: the R-products (``r_products``)
    use the unit law instead of expanding the unit into basis terms."""
    A = H.algebra
    field = H.field
    n = H.dim
    T = TensorSquareAlgebra(A)
    report = VerificationReport(True)
    Rd = _clean(R)

    # invertibility: (S (x) Id)(R) is the inverse when the axioms hold;
    # verified directly as a product
    Rinv = map_leg(Rd, H.antipode_columns, n, True)
    report.record(T.mult(Rd, Rinv) == T.unit, ("R-invertible-right",))
    report.record(T.mult(Rinv, Rd) == T.unit, ("R-invertible-left",))

    # (eps (x) Id)(R) = 1 = (Id (x) eps)(R)
    report.record(contract_left(field, H.counit, Rd, n) == A.unit,
                  ("counit-R-left",))
    report.record(contract_right(field, H.counit, Rd, n) == A.unit,
                  ("counit-R-right",))

    # (Delta (x) Id)(R) = R13 R23 and (Id (x) Delta)(R) = R13 R12
    r13r23, r13r12 = r_products(A, Rd)
    report.record(H.delta_on_leg(Rd, True) == r13r23,
                  ("quasitriangular-delta-left",))
    report.record(H.delta_on_leg(Rd, False) == r13r12,
                  ("quasitriangular-delta-right",))

    # tau(Delta h) R = R Delta h for every basis h
    for j in range(n):
        lhs = T.mult(T.switch(H.delta[j]), Rd)
        rhs = T.mult(Rd, H.delta[j])
        report.record(lhs == rhs, ("intertwining", j))

    b = T.mult(T.switch(Rd), Rd)
    return QuasitriangularData(H, Rd, b, report)


def r_products(A, Rd):
    """R13 R23 = sum a (x) c (x) bd and R13 R12 = sum ac (x) d (x) b over
    pairs of terms a (x) b, c (x) d of R (a sparse flat dict), as sparse
    triple tensors keyed (i, j, k).  They use the unit law 1 c = c = c 1,
    so A must satisfy it."""
    n = A.dim
    table = A.table
    terms = [(divmod(idx, n), c) for idx, c in Rd.items()]
    r13r23 = {}
    r13r12 = {}
    for (a, b), c1 in terms:
        row_a, row_b = table[a], table[b]
        for (c, d), c2 in terms:
            f = c1 * c2
            for t, e in row_b[d].items():
                _add_into(r13r23, (a, c, t), f * e)
            for t, e in row_a[c].items():
                _add_into(r13r12, (t, d, b), f * e)
    return _clean(r13r23), _clean(r13r12)


class FactorizableVerdict:
    """Whether Phi is bijective, with its rank."""

    def __init__(self, factorizable, rank, dim, proof_identities):
        self.factorizable = factorizable
        self.rank = rank
        self.dim = dim
        self.proof_identities = proof_identities


def factorizable_check(Q: QuasitriangularData) -> FactorizableVerdict:
    """Phi bijective <=> factorizable; also the proof identity
    <eps, b1> b2 = 1.  Phi(delta^j) = sum_i b_ij x_i, so the rank of Phi
    is that of the rows {j: b_ij} of b."""
    H = Q.H
    A = H.algebra
    field = H.field
    n = H.dim
    if not Q.report.passed:
        raise HopfError(f"quasitriangular axioms fail: "
                        f"{Q.report.failures[:3]}")
    rows = {}
    for idx, c in Q.b.items():
        i, j = divmod(idx, n)
        rows.setdefault(i, {})[j] = c
    rank = EchelonSubspace(field, n, rows.values()).dim
    ident = contract_left(field, H.counit, Q.b, n) == A.unit
    return FactorizableVerdict(rank == n, rank, n, (ident,))


class SchneiderReport:
    def __init__(self, psi_checks, induced_dims, squares, scalars_integral,
                 dim):
        # named boolean checks that relative_divisibility does not make:
        # "image-is-center" and "phi-lambda-is-Lambda0"
        self.psi_checks = psi_checks
        self.induced_dims = induced_dims
        self.squares = squares            # d(S)^2 in block order of Irr R
        self.scalars_integral = scalars_integral
        self.dim = dim

    @property
    def holds(self):
        return (all(self.psi_checks.values())
                and self.induced_dims == self.squares
                and all(self.scalars_integral))


def schneider_check(session: HopfAnalysis):
    """For a factorizable H: Psi = Phi o chi embeds R_k(H) into Z(H),
    Phi(lambda) = Lambda0, and dim Ind of each irreducible of R equals
    d(S)^2, whence (dim S)^2 | dim H.  Phi is read off the session's b,
    and Psi's images of the basis of R are Phi(chi_S).

    That Psi is a homomorphism of symmetric algebras (R, delta) ->
    (H, lambda) (unit, products, lambda o Psi = delta) is checked once, by
    ``verify_symmetric_homomorphism``, which raises
    NotASymmetricHomomorphism before any report is built.  Products are
    proven on the blocks of H (``psi_on_blocks``), with no product in H;
    only when that fails are the r^2 products of basis pairs formed, to
    name the first pair that fails."""
    H, verdict = session.H, session.factorizable
    A = H.algebra
    field = H.field
    n = H.dim
    if not verdict.factorizable:
        raise InapplicableHypothesis("Hopf algebra is not factorizable")
    RR, I, b = session.ring, session.integrals, session.quasitriangular.b
    psi = [contract_right(field, chi, b, n)
           for chi in session.wedderburn.characters]

    checks = {}
    im = EchelonSubspace(field, n, map(sparse, psi))
    checks["image-is-center"] = (im.dim == len(A.center_basis())
                                 and all(A.is_central(v) for v in im.basis))
    checks["phi-lambda-is-Lambda0"] = (contract_right(field, I.lam, b, n)
                                       == list(I.Lambda0))

    frob = session.frobenius
    verify_symmetric_homomorphism(
        RR.ring, RR.frobenius.lam, A, frob.lam, psi,
        multiplicative=psi_on_blocks(RR.ring, session.wedderburn, psi))
    rep = relative_divisibility(RR.ring, RR.frobenius, RR.wedderburn, A,
                                frob, psi)
    if not all(rep.ratio_checks):
        raise HopfError("relative-divisibility ratio check failed")
    squares = sorted(d * d for d in session.wedderburn.degrees)
    return SchneiderReport(checks, sorted(rep.induced_dims), squares,
                           rep.integral, n)


def psi_on_blocks(ring, W, psi):
    """Whether the map x_s -> psi[s] from the representation ring into H
    is proven multiplicative on the blocks of H, with r^3 scalar checks.

    W's central primitive idempotents e_S are certified orthogonal, so
    once psi_s = sum_S c_sS e_S holds exactly for c_sS = chi_S(psi_s) /
    d_S, psi_s psi_t = sum_S c_sS c_tS e_S, and Psi(x_s x_t) =
    sum_S (sum_u N_st^u c_uS) e_S.  So Psi is multiplicative exactly when
    c_sS c_tS = sum_u N_st^u c_uS for all s, t and S.  False when either
    step fails."""
    field = ring.field
    zero = field.zero
    idems = [sparse(e) for e in W.idempotents]
    chars = [sparse(chi) for chi in W.characters]
    scales = [field.from_rat(Rat(1, d)) for d in W.degrees]
    coeffs = []
    for image in psi:
        v = sparse(image)
        c = [sum((x * v[k] for k, x in chi.items() if k in v), zero) * f
             for chi, f in zip(chars, scales)]
        combo = {}
        for cS, e in zip(c, idems):
            if cS:
                for k, x in e.items():
                    _add_into(combo, k, cS * x)
        if _clean(combo) != v:
            return False
        coeffs.append(c)
    return all(a * b == sum((N * coeffs[u][S] for u, N in cell.items()),
                            zero)
               for s, row in enumerate(ring.table)
               for t, cell in enumerate(row)
               for S, (a, b) in enumerate(zip(coeffs[s], coeffs[t])))
