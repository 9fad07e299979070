"""The exact checks that read the structure table and the block images,
against the dense loops they replaced (``dense_oracle``).

* ``first_non_multiplicative_pair`` reports the same first failing pair as
  the dense loop, on the class-equation character map and the Schneider
  map Psi of relabelled D(S3) and D(C4), and on ``double_projection``.
* Psi's images Phi(chi_S), Phi(lambda) and the rank of Phi, read off b,
  equal the dense Phi laid out from b and the dense product Phi chi, on
  relabelled D(S3), D(C4) and D(D4).
* Characters, block dimensions and the orthogonality test of the
  Wedderburn split agree with ``hit_form_left``, the rank of the products
  x_j e and the pairwise products on every input of the small ladder.
* A Psi corrupted through b still stops ``schneider_check``, through its
  one ``verify_symmetric_homomorphism`` call.
* The fusion rules read off the blocks equal the solution by elimination,
  and a wrong reading fails its exact certificate.
* A corrupted character stops the class equation in the fusion proof of
  ``representation_ring``, which the class equation does not repeat.
"""

import copy
import random

import pytest

import frobdiv.hopf as hopf
from frobdiv import (HopfAnalysis, central_primitive_idempotents,
                     double_projection, drinfeld_double, dual_algebra,
                     group_algebra, named_group)
from frobdiv.algebra import (combine, contract_right,
                             first_non_multiplicative_pair)
from frobdiv.hopf import (NonIntegralFusion, class_equation_check,
                         factorizable_check, schneider_check)
from frobdiv.integrality import NotASymmetricHomomorphism
from frobdiv.linalg import sparse
from frobdiv.modular import PrecisionExceeded
from frobdiv.scalars import Rat
from frobdiv.wedderburn import _verify_system

from dense_oracle import (dense_block_dim,
                          dense_first_non_multiplicative_pair, dense_phi,
                          dense_psi, dense_rank, dense_solve_many, dense_vec,
                          hit_form_left, matrix_columns, pairwise_orthogonal,
                          permute_hopf, permute_r)
from ladder import LADDER, ladder_algebra


def relabelled_double(gname, seed):
    """A session of D(G) with its R-matrix on a seeded relabelling of the
    basis; the module's tests share the artefacts it builds."""
    G = named_group(gname)
    H, Q = drinfeld_double(G, conductor=G.exponent)
    perm = list(range(H.dim))
    random.Random(seed).shuffle(perm)
    return HopfAnalysis(permute_hopf(H, perm), permute_r(Q.R, perm))


@pytest.fixture(scope="module", params=[("S3", 1), ("C4", 2)],
                ids=["D(S3)", "D(C4)"])
def double(request):
    return relabelled_double(*request.param)


def corrupted_columns(images, B, k):
    """The images with the unit of B added to image k."""
    out = list(images)
    out[k] = combine([(B.field.one, out[k]), (B.field.one, B.unit)])
    return out


def assert_same_first_pair(A, B, images):
    assert first_non_multiplicative_pair(A, B, images) is None
    assert dense_first_non_multiplicative_pair(A, B, images) is None
    for k in sorted({1, A.dim // 2, A.dim - 1}):
        bad = corrupted_columns(images, B, k)
        pair = first_non_multiplicative_pair(A, B, bad)
        assert pair is not None
        assert pair == dense_first_non_multiplicative_pair(A, B, bad)


def psi_images(S):
    """Psi(x_s) = Phi(chi_s), read off b."""
    H, b = S.H, S.quasitriangular.b
    return [contract_right(chi, b, H.dim) for chi in S.wedderburn.characters]


def test_character_map_first_failing_pair(double):
    RR = double.ring
    assert_same_first_pair(RR.ring, dual_algebra(double.H),
                           double.wedderburn.characters)


def test_schneider_psi_first_failing_pair(double):
    assert_same_first_pair(double.ring.ring, double.H.algebra,
                           psi_images(double))


@pytest.mark.parametrize("gname", ["C2", "S3"])
def test_double_projection_first_failing_pair(gname):
    G = named_group(gname)
    D, _ = drinfeld_double(G, conductor=G.exponent, verify=False)
    target = group_algebra(G, field=D.field)
    pi = double_projection(G, D, target)
    assert_same_first_pair(D.algebra, target.algebra, pi)


def with_b(S, b):
    """A copy of the session S whose quasitriangular data, and so Phi and
    the factorizable verdict, are read off ``b``."""
    bad = copy.copy(S.quasitriangular)
    bad.b = b
    out = copy.copy(S)
    out.quasitriangular = bad
    out.factorizable = factorizable_check(bad)
    return out


@pytest.mark.parametrize("gname,seed", [("S3", 1), ("C4", 2), ("D4", 3)],
                         ids=["D(S3)", "D(C4)", "D(D4)"])
def test_phi_and_psi_against_dense_oracle(gname, seed):
    """Psi's images, Phi(lambda) and the rank of Phi, read off b, against
    the dense Phi laid out from b and the dense product Phi chi."""
    S = relabelled_double(gname, seed)
    H, Q, I = S.H, S.quasitriangular, S.integrals
    n = H.dim
    phi = dense_phi(Q)
    assert psi_images(S) == [sparse(col) for col in matrix_columns(
        dense_psi(Q, S.wedderburn.characters))]
    assert contract_right(I.lam, Q.b, n) == sparse(phi.apply(
        dense_vec(H.algebra, I.lam)))
    assert S.factorizable.rank == n == dense_rank(phi)
    assert schneider_check(S).holds
    # without the terms x_0 (x) x_j of b, Phi loses rank
    cut = with_b(S, {idx: c for idx, c in Q.b.items() if idx >= n})
    assert cut.factorizable.rank == dense_rank(dense_phi(cut.quasitriangular))
    assert not cut.factorizable.factorizable


def test_corrupted_psi_stops_schneider(double):
    H, Q = double.H, double.quasitriangular
    assert schneider_check(double).holds
    n = H.dim
    outside = [k for k in range(n) if k not in H.counit]
    inside = [k for k in range(n) if k in H.counit]
    for k1, k2 in (outside[:2], inside[:2]):
        # swapping two columns of Phi (second legs of b) on which the
        # counit agrees keeps Phi(eps) = 1 and the rank of Phi; only
        # multiplicativity breaks
        swap = {k1: k2, k2: k1}
        b = {idx - idx % n + swap.get(idx % n, idx % n): c
             for idx, c in Q.b.items()}
        with pytest.raises(NotASymmetricHomomorphism,
                           match="multiplicativity"):
            schneider_check(with_b(double, b))
    doubled = {idx: c + c for idx, c in Q.b.items()}
    with pytest.raises(NotASymmetricHomomorphism, match="unit"):
        schneider_check(with_b(double, doubled))


def test_fusion_rules_against_the_character_solve(double):
    # N_st^u read off the blocks and certified, against the solution of
    # chi_s chi_t = sum_u N_st^u chi_u by elimination, with chi_s chi_t
    # convolved term by term over Delta
    H, W = double.H, double.wedderburn
    field, n = H.field, H.dim
    chars = [dense_vec(H.algebra, chi) for chi in W.characters]
    rows = [[chi[k] for chi in chars] for k in range(n)]

    def convolve(f, g):
        out = [field.zero] * n
        for k, d in enumerate(H.delta):
            for idx, c in d.items():
                i, j = divmod(idx, n)
                out[k] = out[k] + c * f[i] * g[j]
        return out

    got = hopf.fusion_rules(double.dual, W)
    want = dense_solve_many(field, rows, [convolve(a, b) for a in chars
                                          for b in chars])
    r = W.num_blocks
    assert [{u: field.from_rat(N) for u, N in got[s][t].items()}
            for s in range(r) for t in range(r)] == [
        {u: c for u, c in enumerate(x) if c} for x in want]


def test_wrong_fusion_reading_fails_its_certificate(double, monkeypatch):
    # a reading one too large somewhere is caught by the exact identity,
    # and the exact coefficients take its place
    W = double.wedderburn
    right = hopf.fusion_rules(double.dual, W)
    original = hopf._fusion_reading
    exact = []

    def off_by_one(field, W, scale):
        read = original(field, W, scale)

        def wrong(prod, bound):
            N = dict(read(prod, bound))
            N[0] = N.get(0, 0) + 1
            return N
        return wrong

    def counted(field, W, prod, scale, s, t):
        exact.append((s, t))
        return original_exact(field, W, prod, scale, s, t)

    original_exact = hopf._exact_fusion
    monkeypatch.setattr(hopf, "_fusion_reading", off_by_one)
    monkeypatch.setattr(hopf, "_exact_fusion", counted)
    assert hopf.fusion_rules(double.dual, W) == right
    assert len(exact) == W.num_blocks ** 2


def test_corrupted_character_stops_class_equation(double):
    H, I, W = double.H, double.integrals, double.wedderburn
    assert class_equation_check(double).holds
    s = next(s for s, chi in enumerate(W.characters) if chi != H.counit)
    chi = dense_vec(H.algebra, W.characters[s])
    k = next(k for k, c in enumerate(chi) if c != chi[0])
    chi[0], chi[k] = chi[k], chi[0]
    bad = copy.copy(W)
    bad.characters = W.characters[:s] + [sparse(chi)] + W.characters[s + 1:]
    S = HopfAnalysis(H)
    S.integrals, S.wedderburn = I, bad
    with pytest.raises(NonIntegralFusion):
        class_equation_check(S)
    # characters that multiply exactly, with a unit other than the counit
    twisted = copy.copy(H)
    twisted.counit = {k: c + c for k, c in H.counit.items()}
    S = HopfAnalysis(twisted)
    S.integrals, S.wedderburn = I, W
    with pytest.raises(NonIntegralFusion, match="unit of the ring"):
        class_equation_check(S)


# ---------------------------------------------------------------------------
# characters, block dimensions and orthogonality on the small ladder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gname,kind,conductor", LADDER,
                         ids=[f"{k}-{g}-{c}" for g, k, c in LADDER])
def test_block_data_against_dense_products(gname, kind, conductor):
    A = ladder_algebra(gname, kind, conductor)
    field = A.field
    data = central_primitive_idempotents(A)
    chi_reg = A.regular_character()
    for s, e in enumerate(data.idempotents):
        denom = field.from_rat(Rat(data.degrees[s] * data.center_dims[s]))
        want = {k: v / denom
                for k, v in hit_form_left(A, e, chi_reg).items()}
        assert data.characters[s] == want
        assert data.block_dims[s] == dense_block_dim(A, e)
    assert pairwise_orthogonal(A, data.idempotents)
    _verify_system(A, data.idempotents, data.block_dims)
    # 1, e, -e sums to 1 and is not orthogonal: both tests say so
    e = data.idempotents[0]
    broken = [A.unit, e, {k: -c for k, c in e.items()}]
    assert not pairwise_orthogonal(A, broken)
    with pytest.raises(PrecisionExceeded, match="not orthogonal"):
        _verify_system(A, broken, [dense_block_dim(A, f) for f in broken])
